// Table 1: convergence rate of the distributed pagerank algorithm for
// 500 peers, error threshold 1e-3, with 100/75/50% of peers present.
//
// Paper's result shape: ~74-120 passes at full availability, growing
// slowly with graph size (500x nodes -> +60% passes); 50% availability
// costs about a factor of two.
//
// Also reproduces the §4.3 trajectory claims: the fraction of documents
// within 1% of the centralized reference after 10 and 30 passes.

#include "bench_util.hpp"

#include "pagerank/quality.hpp"

#include <map>
#include <string>
#include <vector>

namespace dprank {
namespace {

struct Row {
  std::uint64_t passes = 0;
  bool converged = false;
};

benchutil::ResultStore<Row>& store() {
  static benchutil::ResultStore<Row> s;
  return s;
}

struct Trajectory {
  double frac_pass10 = 0.0;
  double frac_pass30 = 0.0;
  std::uint64_t passes = 0;
};

benchutil::ResultStore<Trajectory>& trajectory_store() {
  static benchutil::ResultStore<Trajectory> s;
  return s;
}

std::string key_of(std::uint64_t size, double availability) {
  return size_label(size) + "/" + format_fixed(availability, 2);
}

void BM_Convergence(benchmark::State& state) {
  const auto size = static_cast<std::uint64_t>(state.range(0));
  const double availability = static_cast<double>(state.range(1)) / 100.0;
  ExperimentConfig cfg;
  cfg.num_docs = size;
  cfg.num_peers = 500;
  cfg.epsilon = 1e-3;
  cfg.availability = availability;
  cfg.seed = experiment_seed();
  const StandardExperiment exp(cfg);
  for (auto _ : state) {
    const auto outcome = exp.run_distributed();
    store().put(key_of(size, availability),
                {outcome.run.passes, outcome.run.converged});
    state.counters["passes"] = static_cast<double>(outcome.run.passes);
    state.counters["messages"] = static_cast<double>(outcome.messages);
  }
}

void BM_Trajectory(benchmark::State& state) {
  const auto size = static_cast<std::uint64_t>(state.range(0));
  ExperimentConfig cfg;
  cfg.num_docs = size;
  cfg.num_peers = 500;
  cfg.epsilon = 1e-3;
  cfg.seed = experiment_seed();
  const StandardExperiment exp(cfg);
  const auto& ref = exp.reference_ranks();
  for (auto _ : state) {
    Trajectory t;
    const auto outcome = exp.run_distributed(
        [&](std::uint64_t pass, const std::vector<double>& ranks) {
          if (pass == 9) {
            t.frac_pass10 =
                summarize_quality(ranks, ref).fraction_within_1pct;
          }
          if (pass == 29) {
            t.frac_pass30 =
                summarize_quality(ranks, ref).fraction_within_1pct;
          }
        });
    t.passes = outcome.run.passes;
    trajectory_store().put(size_label(size), t);
    state.counters["frac_1pct_at_pass10"] = t.frac_pass10;
    state.counters["frac_1pct_at_pass30"] = t.frac_pass30;
  }
}

void register_benchmarks() {
  for (const auto size : experiment_graph_sizes()) {
    for (const long avail : {100L, 75L, 50L}) {
      benchmark::RegisterBenchmark("table1/convergence", BM_Convergence)
          ->Args({static_cast<long>(size), avail})
          ->Iterations(1)
          ->Unit(benchmark::kMillisecond);
    }
    benchmark::RegisterBenchmark("table1/trajectory", BM_Trajectory)
        ->Args({static_cast<long>(size)})
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  }
}

void print_table() {
  benchutil::print_banner(
      "Table 1: passes to convergence (500 peers, epsilon = 1e-3)",
      benchutil::kPaperSizes);
  TextTable table({"Graph size", "100% peers", "75% peers", "50% peers"});
  for (const auto size : experiment_graph_sizes()) {
    std::vector<std::string> row{size_label(size)};
    for (const double avail : {1.0, 0.75, 0.5}) {
      const auto* r = store().find(key_of(size, avail));
      row.push_back(r == nullptr
                        ? "-"
                        : std::to_string(r->passes) +
                              (r->converged ? "" : "*"));
    }
    table.add_row(std::move(row));
  }
  benchutil::emit(table, "table1_1");

  std::cout << "\nSection 4.3 trajectory (fraction of documents within 1% "
               "of R_c):\n";
  TextTable traj({"Graph size", "after 10 passes", "after 30 passes",
                  "total passes"});
  for (const auto size : experiment_graph_sizes()) {
    const auto* t = trajectory_store().find(size_label(size));
    if (t == nullptr) continue;
    traj.add_row({size_label(size), format_fixed(t->frac_pass10 * 100, 1) + "%",
                  format_fixed(t->frac_pass30 * 100, 1) + "%",
                  std::to_string(t->passes)});
  }
  benchutil::emit(traj, "table1_2");
  std::cout << "\nPaper (Table 1): 10k:74/134/166  100k:88/137/196  "
               "500k:118/139/196  5000k:120/141/241 passes.\n";
}

/// Instrumentation-overhead probe for the BENCH json: the same 10k-doc
/// run with the metrics registry attached (the default posture) vs
/// detached, best of 3 each. Tracing stays off — this measures the cost
/// the telemetry subsystem imposes on every ordinary bench run.
std::map<std::string, double> measure_overhead() {
  ExperimentConfig cfg;
  cfg.num_docs = 10'000;
  cfg.num_peers = 500;
  cfg.epsilon = 1e-3;
  cfg.seed = experiment_seed();
  const StandardExperiment exp(cfg);
  (void)exp.run_distributed();  // warm graph/reference caches
  double best_on = 1e300;
  double best_off = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    {
      const benchutil::WallTimer t;
      (void)exp.run_distributed(
          nullptr, StandardExperiment::Telemetry{});
      best_on = std::min(best_on, t.seconds());
    }
    {
      const benchutil::WallTimer t;
      (void)exp.run_distributed(
          nullptr, StandardExperiment::Telemetry{.registry = nullptr});
      best_off = std::min(best_off, t.seconds());
    }
  }
  const double ratio = best_off > 0.0 ? best_on / best_off : 1.0;
  std::cout << "\nInstrumentation overhead (registry on vs off, 10k docs): "
            << format_fixed((ratio - 1.0) * 100.0, 2) << "%\n";
  return {{"registry_on_seconds", best_on},
          {"registry_off_seconds", best_off},
          {"registry_overhead_ratio", ratio}};
}

}  // namespace
}  // namespace dprank

int main(int argc, char** argv) {
  const dprank::benchutil::WallTimer wall;
  benchmark::Initialize(&argc, argv);
  dprank::register_benchmarks();
  benchmark::RunSpecifiedBenchmarks();
  dprank::print_table();
  const auto overhead = dprank::measure_overhead();
  dprank::benchutil::write_bench_json("table1", wall.seconds(),
                                      dprank::benchutil::standard_config(),
                                      overhead);
  benchmark::Shutdown();
  return 0;
}
