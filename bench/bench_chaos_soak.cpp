// Chaos soak: dynamic membership under convergence pressure (extension).
//
// The paper's availability experiments (§4.3) model graceful churn over a
// fixed population. This soak drives the open-world case: a seeded
// schedule of ~40 join / leave / crash events strikes while the chaotic
// iteration converges, with lossy acked delivery underneath and the
// invariant contracts swept every few passes. The report answers the
// robustness questions directly:
//
//   * does the run still converge, and how much longer does it take?
//   * is every emitted contribution accounted for (mass_ratio == 1.0)?
//   * how long does the failure detector take to declare each crash?
//   * how much state moves (handoffs), and how many sends chased a
//     crashed-but-undeclared owner (stale-owner queries)?
//   * is the whole history bit-reproducible from the seed?
//
// The same-seed double run asserts the determinism contract the CI
// chaos-soak job relies on: identical config + seed => identical rank
// digest, event for event.

#include "bench_util.hpp"

#include "fault/campaign.hpp"
#include "graph/generator.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

namespace dprank {
namespace {

struct Row {
  ChaosCampaignReport rep;
  double wall_seconds = 0.0;
  bool digest_stable = true;  // same-seed double run matched
};

benchutil::ResultStore<Row>& store() {
  static benchutil::ResultStore<Row> s;
  return s;
}

struct SoakCase {
  std::uint64_t seed = 42;
  std::uint32_t replicas = 1;
  bool determinism_check = false;  // run twice, compare digests
};

const std::vector<SoakCase> kCases{
    {.seed = 42, .replicas = 1, .determinism_check = true},
    {.seed = 7, .replicas = 1, .determinism_check = false},
    {.seed = 42, .replicas = 0, .determinism_check = false},
};

std::string case_key(const SoakCase& c) {
  return "seed=" + std::to_string(c.seed) +
         "/replicas=" + std::to_string(c.replicas);
}

ChaosCampaignConfig soak_config(const SoakCase& c, std::uint64_t num_docs) {
  ChaosCampaignConfig cfg;
  cfg.initial_peers = 64;
  cfg.events = 40;
  cfg.seed = c.seed;
  cfg.replicas = c.replicas;
  cfg.options.epsilon = 1e-3;
  cfg.options.threads = 1;  // the determinism contract is asserted at 1
  cfg.options.validate_every_n_passes = 4;
  (void)num_docs;  // graph size is decided by the caller
  return cfg;
}

std::uint64_t soak_docs() {
  return full_scale_requested() ? 10'000 : 2'000;
}

void BM_ChaosSoak(benchmark::State& state) {
  const SoakCase& c = kCases[static_cast<std::size_t>(state.range(0))];
  const std::uint64_t num_docs = soak_docs();
  const Digraph g = paper_graph(num_docs, experiment_seed());
  const ChaosCampaignConfig cfg = soak_config(c, num_docs);

  for (auto _ : state) {
    benchutil::WallTimer timer;
    Row row;
    row.rep = run_chaos_campaign(g, cfg, &obs::default_registry());
    row.wall_seconds = timer.seconds();
    if (c.determinism_check) {
      const ChaosCampaignReport again = run_chaos_campaign(g, cfg);
      row.digest_stable = again.rank_digest == row.rep.rank_digest &&
                          again.result.passes == row.rep.result.passes;
    }
    store().put(case_key(c), row);
    state.counters["passes"] = static_cast<double>(row.rep.result.passes);
    state.counters["mass_ratio"] = row.rep.result.mass_ratio;
    state.counters["handoff_docs"] =
        static_cast<double>(row.rep.handoff_docs);
  }
}

void register_benchmarks() {
  for (std::size_t i = 0; i < kCases.size(); ++i) {
    benchmark::RegisterBenchmark("chaos/soak", BM_ChaosSoak)
        ->Args({static_cast<long>(i)})
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  }
}

std::uint64_t latency_percentile(std::vector<std::uint64_t> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

void print_table() {
  benchutil::print_banner(
      "Chaos soak: join/leave/crash churn mid-convergence",
      {"2k docs", "10k docs"});
  TextTable table({"Config", "passes", "mass ratio", "events (j/l/c)",
                   "handoffs", "stale queries", "dropped dead", "gave up",
                   "detect p50/max", "live at end", "stable digest"});
  for (const SoakCase& c : kCases) {
    const auto* r = store().find(case_key(c));
    if (r == nullptr) continue;
    const auto& rep = r->rep;
    table.add_row(
        {case_key(c), std::to_string(rep.result.passes),
         format_fixed(rep.result.mass_ratio, 6),
         std::to_string(rep.joins) + "/" + std::to_string(rep.leaves) + "/" +
             std::to_string(rep.crashes),
         format_count(rep.handoff_docs), format_count(rep.stale_owner_queries),
         format_count(rep.outbox_dropped_dead), format_count(rep.gave_up),
         std::to_string(latency_percentile(rep.detection_latencies, 0.5)) +
             "/" +
             std::to_string(latency_percentile(rep.detection_latencies, 1.0)),
         std::to_string(rep.final_live_peers),
         r->digest_stable ? "yes" : "NO"});
  }
  benchutil::emit(table, "chaos_soak");
  std::cout << "\nEvery configuration converges with the audited rank mass "
               "at exactly 1.0: replicas restore crashed ranks, the "
               "detector's declared-dead verdict evicts doomed outbox and "
               "channel state into the audit ledger, and the quiescence "
               "repair re-injects whatever leaked. The same seed replays "
               "the identical history bit for bit.\n";
}

void write_json() {
  double wall = 0.0;
  double mass_min = 1.0;
  double passes_total = 0.0;
  double handoffs = 0.0;
  double stale = 0.0;
  double detect_max = 0.0;
  bool stable = true;
  for (const SoakCase& c : kCases) {
    const auto* r = store().find(case_key(c));
    if (r == nullptr) continue;
    wall += r->wall_seconds;
    mass_min = std::min(mass_min, r->rep.result.mass_ratio);
    passes_total += static_cast<double>(r->rep.result.passes);
    handoffs += static_cast<double>(r->rep.handoff_docs);
    stale += static_cast<double>(r->rep.stale_owner_queries);
    detect_max = std::max(
        detect_max, static_cast<double>(
                        latency_percentile(r->rep.detection_latencies, 1.0)));
    stable = stable && r->digest_stable;
  }
  auto config = benchutil::standard_config();
  config["soak_docs"] = std::to_string(soak_docs());
  config["initial_peers"] = "64";
  config["events"] = "40";
  benchutil::write_bench_json("chaos_soak", wall, config,
                              {{"mass_ratio_min", mass_min},
                               {"passes_total", passes_total},
                               {"handoff_docs", handoffs},
                               {"stale_owner_queries", stale},
                               {"detection_latency_max", detect_max},
                               {"digest_stable", stable ? 1.0 : 0.0}});
}

// The soak doubles as an acceptance gate (CI runs it with contracts
// on): every case must converge with the audited mass exactly
// accounted, and the same-seed double run must replay bit for bit.
// A violation exits non-zero so the chaos-soak job goes red.
int check_acceptance() {
  int failures = 0;
  for (const SoakCase& c : kCases) {
    const auto* r = store().find(case_key(c));
    if (r == nullptr) continue;  // filtered out on the command line
    const auto& rep = r->rep;
    if (!rep.result.converged) {
      std::cout << "ACCEPTANCE FAIL [" << case_key(c)
                << "]: did not converge\n";
      ++failures;
    }
    if (std::abs(rep.result.mass_ratio - 1.0) > 1e-9) {
      std::cout << "ACCEPTANCE FAIL [" << case_key(c)
                << "]: mass_ratio = " << rep.result.mass_ratio << "\n";
      ++failures;
    }
    if (!r->digest_stable) {
      std::cout << "ACCEPTANCE FAIL [" << case_key(c)
                << "]: same-seed rerun diverged\n";
      ++failures;
    }
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
