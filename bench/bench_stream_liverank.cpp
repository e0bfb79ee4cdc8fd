// Streaming-graph live-rank service: staleness vs ingest throughput vs
// batch size (extension; ROADMAP item 1).
//
// The paper's incremental results (§3.1, §4.7, Table 4) are one-shot
// probes. This bench runs the production shape: a seeded event stream
// (inserts / deletes / edge mutations, Zipf attachment) is ingested
// through the batching IngestCoordinator while a LiveRankService answers
// top-k and point-rank queries between batches, with full distributed
// reconvergence — churn/crash faults and the mass audit active — firing
// at fixed offered-event marks. Ingest, reconvergence, and queries
// interleave on the simulated timeline; every query is answered from
// whatever the coordinator has applied so far, which is exactly what
// makes the answers stale.
//
// The sweep holds the stream fixed (same seed, same rate) and varies
// only the batch size, mapping the freshness/throughput trade-off:
// bigger batches amortize cascade work but widen the pending window a
// query cannot see. Acceptance gates (non-zero exit on violation):
//   (a) same-seed double run => identical rank digests (determinism);
//   (b) mass_ratio == 1.0 at every audited reconvergence quiescence;
//   (c) mean measured staleness decreases monotonically as the batch
//       size shrinks at fixed ingest rate.

#include "bench_util.hpp"

#include "graph/generator.hpp"
#include "graph/mutable_digraph.hpp"
#include "pagerank/centralized.hpp"
#include "stream/ingest_coordinator.hpp"
#include "stream/live_rank_service.hpp"
#include "stream/stream_source.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace dprank {
namespace {

// Stream shape shared by every case; only the batch size varies.
constexpr std::uint64_t kStreamSeed = 42;
constexpr std::uint64_t kQueryEvery = 7;       // top-k + point query cadence
constexpr std::uint64_t kStalenessEvery = 30;  // oracle-solve cadence
constexpr std::uint64_t kReconvergeEvery = 120;

std::uint64_t stream_docs() {
  return full_scale_requested() ? 10'000 : 2'000;
}
std::uint64_t stream_events() {
  return full_scale_requested() ? 960 : 240;
}

struct Row {
  std::uint32_t batch = 0;
  std::uint64_t digest = 0;
  bool digest_stable = true;
  std::vector<double> mass_ratios;
  double staleness_mean = 0.0;  // mean over the measurement marks
  double staleness_max = 0.0;
  double lag_mean = 0.0;  // pending events per staleness mark
  std::uint64_t events = 0;
  std::uint64_t batches = 0;
  std::uint64_t topk_cache_hits = 0;
  std::uint64_t topk_recomputes = 0;
  double wall_seconds = 0.0;
};

benchutil::ResultStore<Row>& store() {
  static benchutil::ResultStore<Row> s;
  return s;
}

struct StreamCase {
  std::uint32_t batch = 1;
  bool determinism_check = true;
};

const std::vector<StreamCase> kCases{
    {.batch = 1, .determinism_check = true},
    {.batch = 8, .determinism_check = true},
    {.batch = 32, .determinism_check = true},
};

std::string case_key(const StreamCase& c) {
  return "batch=" + std::to_string(c.batch);
}

struct ScenarioResult {
  std::uint64_t digest = 0;
  std::vector<double> mass_ratios;
  double staleness_sum = 0.0;
  double staleness_max = 0.0;
  double lag_sum = 0.0;
  std::uint64_t staleness_marks = 0;
  std::uint64_t batches = 0;
  std::uint64_t topk_cache_hits = 0;
  std::uint64_t topk_recomputes = 0;
};

ScenarioResult run_scenario(std::uint32_t batch,
                            obs::MetricsRegistry* metrics) {
  const std::uint64_t docs = stream_docs();
  const Digraph base =
      paper_graph(static_cast<NodeId>(docs), experiment_seed());

  IngestConfig ic;
  ic.batch_size = batch;
  ic.reconverge_every_events = kReconvergeEvery;
  ic.seed = kStreamSeed;
  ic.options.epsilon = 1e-6;
  ic.options.threads = 1;  // the determinism contract is asserted at 1
  ic.reconverge.initial_peers = 16;
  ic.reconverge.events = 8;
  ic.reconverge.min_live = 8;
  ic.reconverge.replicas = 1;

  std::vector<double> ranks =
      centralized_pagerank(base, ic.options.damping, 1e-13).ranks;
  IngestCoordinator coord(MutableDigraph(base), std::move(ranks), ic,
                          metrics);
  LiveRankService service(coord, metrics);

  StreamSourceConfig sc;
  sc.initial_docs = static_cast<NodeId>(docs);
  sc.max_events = stream_events();
  sc.seed = kStreamSeed;
  sc.events_per_sec = 1000.0;  // fixed offered rate across the sweep
  sc.min_live_docs = 16;
  StreamSource source(sc);

  ScenarioResult r;
  for (std::uint64_t i = 1; i <= stream_events(); ++i) {
    coord.offer(source.next());
    if (i % kQueryEvery == 0) {
      // Queries land mid-ingest and are served from the live state.
      (void)service.top_k(10);
      (void)service.rank_of(static_cast<NodeId>(i % docs));
    }
    if (i % kStalenessEvery == 0) {
      const StalenessReport rep = service.measure_staleness();
      r.staleness_sum += rep.mean_abs;
      r.staleness_max = std::max(r.staleness_max, rep.max_abs);
      r.lag_sum += static_cast<double>(rep.pending_events);
      ++r.staleness_marks;
    }
  }
  const IngestBatchStats tail = coord.flush();  // drain the last batch
  (void)tail;
  r.digest = coord.digest();
  r.mass_ratios = coord.mass_ratios();
  r.topk_cache_hits = service.topk_cache_hits();
  r.topk_recomputes = service.topk_recomputes();
  // version() bumps once per applied batch and once per reconvergence.
  r.batches = coord.version() - coord.reconverge_cycles();
  return r;
}

void BM_StreamLiveRank(benchmark::State& state) {
  const StreamCase& c = kCases[static_cast<std::size_t>(state.range(0))];
  for (auto _ : state) {
    benchutil::WallTimer timer;
    const ScenarioResult first = run_scenario(c.batch,
                                              &obs::default_registry());
    Row row;
    row.wall_seconds = timer.seconds();
    row.batch = c.batch;
    row.digest = first.digest;
    row.mass_ratios = first.mass_ratios;
    row.events = stream_events();
    row.batches = first.batches;
    row.topk_cache_hits = first.topk_cache_hits;
    row.topk_recomputes = first.topk_recomputes;
    row.staleness_mean =
        first.staleness_marks == 0
            ? 0.0
            : first.staleness_sum /
                  static_cast<double>(first.staleness_marks);
    row.staleness_max = first.staleness_max;
    row.lag_mean = first.staleness_marks == 0
                       ? 0.0
                       : first.lag_sum /
                             static_cast<double>(first.staleness_marks);
    if (c.determinism_check) {
      const ScenarioResult again = run_scenario(c.batch, nullptr);
      row.digest_stable = again.digest == first.digest;
    }
    store().put(case_key(c), row);
    state.counters["staleness_mean"] = row.staleness_mean;
    state.counters["lag_mean"] = row.lag_mean;
    state.counters["batches"] = static_cast<double>(row.batches);
  }
}

void register_benchmarks() {
  for (std::size_t i = 0; i < kCases.size(); ++i) {
    benchmark::RegisterBenchmark("stream/liverank", BM_StreamLiveRank)
        ->Args({static_cast<long>(i)})
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  }
}

double mass_worst(const std::vector<double>& ratios) {
  double worst = 1.0;
  for (const double m : ratios) {
    if (std::abs(m - 1.0) > std::abs(worst - 1.0)) worst = m;
  }
  return worst;
}

void print_table() {
  benchutil::print_banner(
      "Streaming live-rank: staleness vs batch size at fixed ingest rate",
      {"2k docs / 240 events", "10k docs / 960 events"});
  TextTable table({"Config", "events", "batches", "staleness mean",
                   "staleness max", "lag mean", "mass worst", "topk hit/rec",
                   "stable digest"});
  for (const StreamCase& c : kCases) {
    const auto* r = store().find(case_key(c));
    if (r == nullptr) continue;
    table.add_row({case_key(c), format_count(r->events),
                   format_count(r->batches),
                   format_sig(r->staleness_mean, 3),
                   format_sig(r->staleness_max, 3),
                   format_fixed(r->lag_mean, 1),
                   format_fixed(mass_worst(r->mass_ratios), 6),
                   format_count(r->topk_cache_hits) + "/" +
                       format_count(r->topk_recomputes),
                   r->digest_stable ? "yes" : "NO"});
  }
  benchutil::emit(table, "stream_liverank");
  std::cout << "\nShrinking the batch narrows the pending window a query "
               "cannot see, so staleness falls monotonically toward the "
               "per-event mode, while larger batches amortize cascade work "
               "into fewer, cheaper coalesced injections. Reconvergence "
               "fires at fixed offered-event marks: every audited "
               "quiescence accounts its rank mass exactly, and the whole "
               "ingest+query history replays bit for bit from the seed.\n";
}

void write_json() {
  double wall = 0.0;
  double mass_min = 1.0;
  bool stable = true;
  bool monotone = true;
  std::vector<double> means;
  for (const StreamCase& c : kCases) {
    const auto* r = store().find(case_key(c));
    if (r == nullptr) continue;
    wall += r->wall_seconds;
    for (const double m : r->mass_ratios) mass_min = std::min(mass_min, m);
    stable = stable && r->digest_stable;
    means.push_back(r->staleness_mean);
  }
  for (std::size_t i = 1; i < means.size(); ++i) {
    monotone = monotone && means[i - 1] <= means[i] * (1.0 + 1e-9);
  }
  auto config = benchutil::standard_config();
  config["stream_docs"] = std::to_string(stream_docs());
  config["stream_events"] = std::to_string(stream_events());
  config["reconverge_every"] = std::to_string(kReconvergeEvery);
  std::map<std::string, double> metrics{
      {"digest_stable", stable ? 1.0 : 0.0},
      {"staleness_monotone", monotone ? 1.0 : 0.0},
      {"mass_ratio_min", mass_min},
  };
  for (std::size_t i = 0; i < kCases.size() && i < means.size(); ++i) {
    metrics["staleness_mean_batch" + std::to_string(kCases[i].batch)] =
        means[i];
  }
  benchutil::write_bench_json("stream_liverank", wall, config, metrics);
}

// Acceptance gates; any violation exits non-zero so the CI stream-soak
// job goes red.
int check_acceptance() {
  int failures = 0;
  std::vector<std::pair<std::uint32_t, double>> means;  // (batch, mean)
  for (const StreamCase& c : kCases) {
    const auto* r = store().find(case_key(c));
    if (r == nullptr) continue;  // filtered out on the command line
    if (!r->digest_stable) {
      std::cout << "ACCEPTANCE FAIL [" << case_key(c)
                << "]: same-seed rerun diverged\n";
      ++failures;
    }
    if (r->mass_ratios.empty()) {
      std::cout << "ACCEPTANCE FAIL [" << case_key(c)
                << "]: no audited reconvergence points\n";
      ++failures;
    }
    for (const double m : r->mass_ratios) {
      if (std::abs(m - 1.0) > 1e-9) {
        std::cout << "ACCEPTANCE FAIL [" << case_key(c)
                  << "]: mass_ratio = " << m << "\n";
        ++failures;
      }
    }
    means.emplace_back(r->batch, r->staleness_mean);
  }
  // (c) staleness decreases monotonically as the batch size shrinks.
  for (std::size_t i = 1; i < means.size(); ++i) {
    if (means[i - 1].second > means[i].second * (1.0 + 1e-9)) {
      std::cout << "ACCEPTANCE FAIL: staleness not monotone in batch size ("
                << "batch=" << means[i - 1].first << " -> "
                << means[i - 1].second << " vs batch=" << means[i].first
                << " -> " << means[i].second << ")\n";
      ++failures;
    }
  }
  if (means.size() >= 2 && means.front().second >= means.back().second) {
    std::cout << "ACCEPTANCE FAIL: smallest batch is not strictly fresher "
              << "than the largest\n";
    ++failures;
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace dprank

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  dprank::register_benchmarks();
  benchmark::RunSpecifiedBenchmarks();
  dprank::print_table();
  dprank::write_json();
  benchmark::Shutdown();
  return dprank::check_acceptance();
}
