// stream-20k: the live rank service on a 20k-document graph. A StreamSource
// (insert / delete / add-edge / remove-edge, the library's default mix) is
// offered open loop at a fixed rate to an IngestCoordinator in 16-event
// batches; point and top-k queries go to a LiveRankService between events,
// and a full reconvergence (a chaos campaign: membership churn, lossy acked
// delivery, replicas, mass audit) runs every kReconvergeEvery offered
// events. The fused pass path is not involved.
//
// The timed phase replays rounds: each round starts a coordinator from the
// set-up state and offers the same kRoundEvents events, so the figures do
// not drift with how far a run gets (the live graph grows as the stream
// inserts documents). The event stream is the standard one (kWorldSeed):
// per-seed streams moved the cascade volume by ±15% through the input
// alone. The reconvergence campaigns come from a standard pool of
// kCampaigns, one per round in turn, so that every run draws on the same
// ones. --seed drives the query targets and where in the pool the rounds
// start.
//
// The reconvergence marks fall half a period into the round (events 512
// and 1,536 of 2,048), so that events wait behind both of a round's
// reconvergences. The tail is the p99 over all of the run's events: it
// rests on every reconvergence of the run (about 30), where a p99 per
// round would rest on the one or two of that round.
//
// Open loop on a virtual clock: event i of a round is due at
// i / kOfferedPerSec. The server starts it at max(due, server free) and each
// call advances the server by its measured wall time, so sleep jitter stays
// out of the latencies while waiting behind a slow batch or a
// reconvergence still counts from the due time. An event is visible once
// the flush that applies it returns. Generator time and the staleness
// probes are kept off the server's clock.

#include <algorithm>
#include <cmath>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "graph/generator.hpp"
#include "graph/mutable_digraph.hpp"
#include "pagerank/centralized.hpp"
#include "stream/ingest_coordinator.hpp"
#include "stream/live_rank_service.hpp"
#include "stream/stream_source.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace dprank;

constexpr std::uint32_t kBatch = 16;
// About half the closed-loop event rate of the service this benchmark was
// written against, so the queue stays bounded and a slower service shows
// as waiting.
constexpr double kOfferedPerSec = 500.0;
constexpr std::uint64_t kReconvergeEvery = 1024;
constexpr std::uint64_t kRoundEvents = 2 * kReconvergeEvery;
// A 30 s run holds about twice this many rounds.
constexpr std::uint64_t kCampaigns = 8;
constexpr std::uint64_t kTopKEvery = 4;  // a point query after every event
constexpr std::size_t kTopK = 10;
// Staleness at a reconvergence mark above this is a failed check.
constexpr double kStalenessBound = 0.05;

IngestConfig ingest_config(std::uint64_t seed, bool tiny) {
  IngestConfig ic;
  // offer() never flushes on its own: the benchmark flushes every kBatch
  // events so that it can read each batch's IngestBatchStats.
  ic.batch_size = kBatch + 1;
  ic.reconverge_every_events = 0;
  ic.seed = seed;
  ic.options.epsilon = 1e-6;
  ic.options.threads = 1;
  ic.reconverge.initial_peers = tiny ? 8 : 16;
  ic.reconverge.events = 8;
  ic.reconverge.min_live = tiny ? 4 : 8;
  ic.reconverge.replicas = 1;
  return ic;
}

}  // namespace

void run_stream(const RunConfig& cfg, Spans& spans, Result& out) {
  const NodeId docs = cfg.tiny ? 1'000 : 20'000;
  const std::uint64_t reconverge_every = cfg.tiny ? 128 : kReconvergeEvery;
  const std::uint64_t round_events = cfg.tiny ? 2 * reconverge_every
                                              : kRoundEvents;
  const IngestConfig ic = ingest_config(kWorldSeed, cfg.tiny);

  // ---- set-up: graph, exact initial ranks, coordinator and one warm-up
  // reconvergence; rounds start from the warmed-up graph and ranks ----
  std::optional<IngestCoordinator> initial;
  std::vector<double> setup_s, gen_ms, oracle_ms;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const double t0 = now_ms();
    std::optional<Digraph> base;
    std::vector<double> ranks;
    gen_ms.push_back(spans.time("graph.generate", 0, [&] {
      base.emplace(paper_graph(docs, kWorldSeed));
    }));
    oracle_ms.push_back(spans.time("pagerank.oracle", 0, [&] {
      ranks = centralized_pagerank(*base, ic.options.damping, 1e-13).ranks;
    }));
    initial.reset();
    spans.time("stream.coordinator_init", 0, [&] {
      initial.emplace(MutableDigraph(*base), std::move(ranks), ic);
    });
    spans.time("fault.reconverge", 0, [&] { initial->reconverge(); });
    setup_s.push_back((now_ms() - t0) / 1e3);
  }

  // The round's events, generated once; their generation cost is the
  // generator's cost on every round's timeline.
  StreamSourceConfig sc;
  sc.initial_docs = docs;
  sc.max_events = round_events;
  sc.seed = kWorldSeed;
  sc.events_per_sec = kOfferedPerSec;
  sc.min_live_docs = 16;
  StreamSource source(sc);
  std::vector<StreamEvent> stream(round_events);
  std::vector<double> source_us;
  for (StreamEvent& ev : stream) {
    source_us.push_back(
        spans.time("stream.source", 0, [&] { ev = source.next(); }) * 1e3);
  }

  // ---- timed phase ----
  const double interval_ms = 1e3 / kOfferedPerSec;
  double busy_ms = 0.0;  // server wall time spent on the service
  std::vector<double> latency, offer_us, flush_ms, query_us, reconverge_ms,
      late_ms, staleness, batch_traced, batch_plain;
  // The rate is taken round by round and reported as the median over
  // rounds, so one slow episode does not set the run's figure.
  std::vector<double> round_rate;
  std::uint64_t backlog_max = 0, cascade_updates = 0, coalesced = 0,
                topk_calls = 0, topk_hits = 0;
  std::uint64_t op = 1;
  const double start = now_ms();
  for (std::uint64_t round = 1;; ++round) {
    const double busy_before = busy_ms;
    IngestConfig round_config = ic;
    round_config.seed =
        kWorldSeed * 1'000'003ULL + (cfg.seed + round) % kCampaigns;
    IngestCoordinator coord(initial->graph(), initial->ranks(), round_config);
    LiveRankService service(coord);
    Rng query_rng(cfg.seed ^ 0x5eedULL);
    double server_ms = 0.0;    // virtual time the server is next free
    double producer_ms = 0.0;  // virtual time the generator is next free
    double batch_service = 0.0;
    std::vector<double> batch_due;  // due times of the pending events
    auto serve = [&](double ms) {
      server_ms += ms;
      busy_ms += ms;
      batch_service += ms;
    };
    spans.set_recording(op % 2 == 1);
    for (std::uint64_t i = 0; i < round_events; ++i) {
      const double due = static_cast<double>(i) * interval_ms;
      producer_ms = std::max(producer_ms, due) + source_us[i] / 1e3;
      late_ms.push_back(producer_ms - due);
      // The server takes the event once it is free and the event is in
      // hand; events due by then wait behind it.
      server_ms = std::max(server_ms, producer_ms);
      const auto due_count =
          static_cast<std::uint64_t>(server_ms / interval_ms) + 1;
      backlog_max = std::max(backlog_max,
                             due_count > i + 1 ? due_count - (i + 1) : 0);
      const double off =
          spans.time("stream.offer", op, [&] { coord.offer(stream[i]); });
      serve(off);
      offer_us.push_back(off * 1e3);
      batch_due.push_back(due);
      out.attempt();

      double q = spans.time("stream.query_point", op, [&] {
        (void)service.rank_of(static_cast<NodeId>(
            query_rng.bounded(coord.graph().num_nodes())));
      });
      serve(q);
      query_us.push_back(q * 1e3);
      out.attempt();
      if (i % kTopKEvery == 0) {
        std::vector<std::pair<NodeId, double>> top;
        q = spans.time("stream.query_topk", op,
                       [&] { top = service.top_k(kTopK); });
        serve(q);
        query_us.push_back(q * 1e3);
        ++topk_calls;
        out.attempt();
        out.check(top.size() == kTopK, "stream: top-k returned too few");
      }

      if (batch_due.size() < kBatch) continue;
      IngestBatchStats bs;
      const double f =
          spans.time("stream.flush", op, [&] { bs = coord.flush(); });
      serve(f);
      flush_ms.push_back(f);
      if (round == 1) {
        cascade_updates += bs.cascade.updates_delivered;
        coalesced += bs.coalesced_seeds;
      }
      for (const double d : batch_due) latency.push_back(server_ms - d);
      batch_due.clear();
      (spans.recording() ? batch_traced : batch_plain).push_back(batch_service);
      batch_service = 0.0;
      ++op;
      // A traced run records every other batch, to price its own spans.
      spans.set_recording(op % 2 == 1);

      if ((i + 1 + reconverge_every / 2) % reconverge_every != 0) continue;
      if (round == 1) {
        // Staleness at the mark, off the server's clock.
        const StalenessReport rep = service.measure_staleness();
        staleness.push_back(rep.mean_abs);
        out.check(rep.mean_abs < kStalenessBound,
                  "stream: staleness at a reconvergence mark above bound");
      }
      const double r =
          spans.time("fault.reconverge", op, [&] { coord.reconverge(); });
      serve(r);
      batch_service = 0.0;  // not part of the next batch's service
      reconverge_ms.push_back(r);
      out.attempt();
      out.check(std::abs(coord.mass_ratios().back() - 1.0) <= 1e-9,
                "stream: mass_ratio != 1 at reconvergence");
    }
    topk_hits += service.topk_cache_hits();
    round_rate.push_back(static_cast<double>(round_events) /
                         ((busy_ms - busy_before) / 1e3));
    if (now_ms() - start >= cfg.seconds * 1e3) break;
  }
  spans.set_recording(true);
  const auto round_ev = static_cast<double>(round_events);

  if (!cfg.trace) {
    out.metric("setup_s", quantile(setup_s, 0.5), "s");
    out.metric("latency_p50_ms", quantile(latency, 0.5), "ms");
    out.metric("latency_p99_ms", quantile(latency, 0.99), "ms");
    out.metric("throughput_per_s", quantile(round_rate, 0.5), "1/s");
    out.metric("msgs_per_op", static_cast<double>(cascade_updates) / round_ev,
               "count");
    // Before the round's last reconvergence, 1,024 events after the one
    // before it.
    out.metric("rank_error", staleness.back(), "1");
    out.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    return;
  }
  out.metric("graph.generate_ms", quantile(gen_ms, 0.5), "ms");
  out.metric("pagerank.oracle_ms", quantile(oracle_ms, 0.5), "ms");
  out.metric("stream.source_us", quantile(source_us, 0.5), "us");
  out.metric("stream.offer_us", quantile(offer_us, 0.5), "us");
  out.metric("stream.flush_ms", quantile(flush_ms, 0.5), "ms");
  out.metric("stream.cascade_updates_per_event",
             static_cast<double>(cascade_updates) / round_ev, "count");
  out.metric("stream.coalesced_seeds_per_event",
             static_cast<double>(coalesced) / round_ev, "count");
  out.metric("stream.query_us_p50", quantile(query_us, 0.5), "us");
  out.metric("stream.query_us_p99", quantile(query_us, 0.99), "us");
  out.metric("stream.topk_hit_ratio",
             static_cast<double>(topk_hits) / static_cast<double>(topk_calls),
             "ratio");
  out.metric("fault.reconverge_ms", quantile(reconverge_ms, 0.5), "ms");
  out.metric("stream.backlog_max_events", static_cast<double>(backlog_max),
             "count");
  out.metric("stream.generator_late_ms", quantile(late_ms, 1.0), "ms");
  out.metric("trace.overhead_pct",
             (quantile(batch_traced, 0.5) / quantile(batch_plain, 0.5) - 1.0) *
                 100.0,
             "%");
  add_self_times(spans, out);
}

}  // namespace perfbench
