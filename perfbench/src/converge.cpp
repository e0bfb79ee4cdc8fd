// converge-100k: repeated full solves of the paper's 100k-document graph
// on 500 peers (epsilon 1e-3, fifo, one thread). Each operation is a
// fresh DistributedPagerank plus run(), so only the fused pass path runs;
// stream, search, faults and membership are bypassed.

#include <optional>
#include <vector>

#include "common/simd.hpp"
#include "graph/generator.hpp"
#include "p2p/placement.hpp"
#include "pagerank/centralized.hpp"
#include "pagerank/distributed_engine.hpp"
#include "pagerank/quality.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace dprank;

// The tail and the rate are taken per round of this many solves and
// reported as the median over rounds: a run holds ~180 solves, whose own
// p99 would rest on its two slowest.
constexpr std::size_t kRoundSolves = 30;

struct Solve {
  double latency_ms = 0.0;
  double init_ms = 0.0;
  double run_ms = 0.0;
  std::vector<double> pass_ms;
  DistributedRunResult result;
  std::uint64_t docs_recomputed = 0;
  std::uint64_t messages = 0;
  std::uint64_t local_updates = 0;
  std::uint64_t digest = 0;
  double engine_mb = 0.0;
  std::vector<double> ranks;  // kept for the first solve only
};

Solve solve(const Digraph& g, const Placement& placement,
            const PagerankOptions& opts, Spans& spans, std::uint64_t op,
            bool keep_ranks) {
  Solve s;
  std::optional<DistributedPagerank> engine;
  s.latency_ms = spans.time("bench.solve", op, [&] {
    s.init_ms = spans.time("pagerank.engine_init", op,
                           [&] { engine.emplace(g, placement, opts); });
    s.run_ms = spans.time("pagerank.run", op, [&] {
      if (!spans.recording()) {
        s.result = engine->run();
        return;
      }
      // Pass boundaries from the observer's timestamps.
      std::vector<double> stamps{now_ms()};
      s.result = engine->run(
          nullptr, [&](std::uint64_t, const std::vector<double>&) {
            stamps.push_back(now_ms());
          });
      for (std::size_t i = 1; i < stamps.size(); ++i) {
        spans.add("pagerank.pass", op, stamps[i - 1], stamps[i]);
        s.pass_ms.push_back(stamps[i] - stamps[i - 1]);
      }
    });
  });
  for (const PassStats& p : engine->pass_history()) {
    s.docs_recomputed += p.docs_recomputed;
    s.local_updates += p.local_updates;
  }
  s.messages = engine->traffic().messages();
  s.digest = fnv1a_rank_digest(engine->ranks());
  s.engine_mb = static_cast<double>(engine->memory_bytes()) / (1024.0 * 1024.0);
  if (keep_ranks) s.ranks = engine->ranks();
  return s;
}

// Bytes the fold touches: every in-CSR cell, one offset pair read, one
// document id and one accumulator per document.
double fold_gbps(const Digraph& g, int reps) {
  const std::size_t n = g.num_nodes();
  const std::vector<double> cells(g.num_edges(), 0.5);
  std::vector<std::uint32_t> docs(n);
  for (std::size_t v = 0; v < n; ++v) docs[v] = static_cast<std::uint32_t>(v);
  std::vector<double> acc(n);
  const simd::Level level = simd::active_level();
  std::vector<double> ms;
  for (int r = 0; r < reps; ++r) {
    const double t0 = now_ms();
    simd::fold_cells(level, cells.data(), g.in_offsets_data(), docs.data(), n,
                     acc.data());
    ms.push_back(now_ms() - t0);
  }
  const double bytes = static_cast<double>(g.num_edges()) * 8.0 +
                       static_cast<double>(n) * (8.0 + 4.0 + 8.0);
  return bytes / (quantile(ms, 0.5) * 1e6);
}

}  // namespace

void run_converge(const RunConfig& cfg, Spans& spans, Result& out) {
  const NodeId docs = cfg.tiny ? 2'000 : 100'000;
  const PeerId peers = cfg.tiny ? 20 : 500;
  PagerankOptions opts;  // epsilon 1e-3, fifo, damping 0.85
  opts.threads = 1;

  // ---- set-up: graph, placement, oracle and one warm-up solve ----
  std::optional<Digraph> graph;
  std::optional<Placement> placement;
  std::vector<double> oracle;
  std::vector<double> setup_s, gen_ms, place_ms, oracle_ms;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const double t0 = now_ms();
    gen_ms.push_back(spans.time("graph.generate", 0, [&] {
      graph.reset();
      graph.emplace(paper_graph(docs, kWorldSeed));
    }));
    place_ms.push_back(spans.time("p2p.placement", 0, [&] {
      placement.emplace(Placement::random(docs, peers, cfg.seed));
    }));
    oracle_ms.push_back(spans.time("pagerank.oracle", 0, [&] {
      oracle = centralized_pagerank(*graph, opts.damping).ranks;
    }));
    (void)solve(*graph, *placement, opts, spans, 0, false);
    setup_s.push_back((now_ms() - t0) / 1e3);
  }

  // ---- timed phase ----
  std::vector<double> latency, latency_traced, latency_plain;
  std::vector<double> init_ms, run_ms, pass_ms;
  std::uint64_t first_digest = 0;
  Solve first;
  const double start = now_ms();
  for (std::uint64_t op = 1;; ++op) {
    // A traced run records every other solve, to price its own spans.
    spans.set_recording(op % 2 == 1);
    Solve s = solve(*graph, *placement, opts, spans, op, op == 1);
    out.attempt();
    latency.push_back(s.latency_ms);
    (spans.recording() ? latency_traced : latency_plain)
        .push_back(s.latency_ms);
    init_ms.push_back(s.init_ms);
    run_ms.push_back(s.run_ms);
    pass_ms.insert(pass_ms.end(), s.pass_ms.begin(), s.pass_ms.end());
    if (op == 1) first_digest = s.digest;
    out.check(s.result.converged, "converge: solve did not converge");
    out.check(s.digest == first_digest,
              "converge: same-seed solve changed the rank digest");
    if (op == 1) first = std::move(s);
    if (op >= 2 && now_ms() - start >= cfg.seconds * 1e3) break;
  }
  const double elapsed_s = (now_ms() - start) / 1e3;
  spans.set_recording(true);

  const double rank_error = summarize_quality(first.ranks, oracle).avg;
  out.check(rank_error < 0.01, "converge: rank_error above 0.01");

  const auto n = static_cast<double>(latency.size());
  std::vector<double> round_p99, round_rate;
  for (std::size_t i = 0; i + kRoundSolves <= latency.size();
       i += kRoundSolves) {
    const std::vector<double> round(
        latency.begin() + static_cast<long>(i),
        latency.begin() + static_cast<long>(i + kRoundSolves));
    round_p99.push_back(quantile(round, 0.99));
    double busy_ms = 0.0;
    for (const double ms : round) busy_ms += ms;
    round_rate.push_back(static_cast<double>(kRoundSolves) / (busy_ms / 1e3));
  }
  if (round_p99.empty()) {  // a run too short for one round
    round_p99.push_back(quantile(latency, 0.99));
    round_rate.push_back(n / elapsed_s);
  }
  if (!cfg.trace) {
    out.metric("setup_s", quantile(setup_s, 0.5), "s");
    out.metric("latency_p50_ms", quantile(latency, 0.5), "ms");
    out.metric("latency_p99_ms", quantile(round_p99, 0.5), "ms");
    out.metric("throughput_per_s", quantile(round_rate, 0.5), "1/s");
    out.metric("msgs_per_op", static_cast<double>(first.messages), "count");
    out.metric("rank_error", rank_error, "1");
    out.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    return;
  }
  out.metric("graph.generate_ms", quantile(gen_ms, 0.5), "ms");
  out.metric("p2p.placement_ms", quantile(place_ms, 0.5), "ms");
  out.metric("pagerank.oracle_ms", quantile(oracle_ms, 0.5), "ms");
  out.metric("pagerank.engine_init_ms", quantile(init_ms, 0.5), "ms");
  out.metric("pagerank.run_ms", quantile(run_ms, 0.5), "ms");
  out.metric("pagerank.pass_ms_p50", quantile(pass_ms, 0.5), "ms");
  out.metric("pagerank.pass_ms_max", quantile(pass_ms, 1.0), "ms");
  out.metric("pagerank.passes", static_cast<double>(first.result.passes),
             "count");
  out.metric("pagerank.docs_recomputed",
             static_cast<double>(first.docs_recomputed), "count");
  out.metric("net.messages", static_cast<double>(first.messages), "count");
  out.metric("net.local_updates", static_cast<double>(first.local_updates),
             "count");
  out.metric("common.fold_gbps", fold_gbps(*graph, 30), "GB/s");
  out.metric("graph.bytes_per_edge",
             static_cast<double>(graph->memory_bytes()) /
                 static_cast<double>(graph->num_edges()),
             "B");
  out.metric("pagerank.engine_mb", first.engine_mb, "MiB");
  out.metric("trace.overhead_pct",
             (quantile(latency_traced, 0.5) / quantile(latency_plain, 0.5) -
              1.0) * 100.0,
             "%");
  add_self_times(spans, out);
}

}  // namespace perfbench
