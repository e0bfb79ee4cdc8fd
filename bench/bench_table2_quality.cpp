// Table 2: relative-error distribution of the distributed pagerank
// against the centralized reference, for thresholds 0.2 and 1e-1..1e-6.
//
// Paper's result shape: even epsilon = 0.2 leaves 99.9% of pages within
// a few percent; epsilon = 1e-3 bounds the maximum error near 1%; error
// shrinks roughly linearly with epsilon and the trends are graph-size
// independent.

#include "bench_util.hpp"

#include "pagerank/quality.hpp"

#include <string>
#include <vector>

namespace dprank {
namespace {

struct Cell {
  QualityReport q;
  double top100_overlap = 0.0;
  double kendall_tau = 0.0;
};

benchutil::ResultStore<Cell>& store() {
  static benchutil::ResultStore<Cell> s;
  return s;
}

std::string key_of(std::uint64_t size, double eps) {
  return size_label(size) + "/" + benchutil::threshold_label(eps);
}

void BM_Quality(benchmark::State& state) {
  const auto size = static_cast<std::uint64_t>(state.range(0));
  const double eps = benchutil::kTable23Thresholds[
      static_cast<std::size_t>(state.range(1))];
  ExperimentConfig cfg;
  cfg.num_docs = size;
  cfg.num_peers = 500;
  cfg.epsilon = eps;
  cfg.seed = experiment_seed();
  const StandardExperiment exp(cfg);
  const auto& ref = exp.reference_ranks();
  for (auto _ : state) {
    const auto outcome = exp.run_distributed();
    Cell cell;
    cell.q = summarize_quality(outcome.ranks, ref);
    cell.top100_overlap = top_k_overlap(outcome.ranks, ref, 100);
    cell.kendall_tau = kendall_tau_sampled(outcome.ranks, ref, 100'000);
    store().put(key_of(size, eps), cell);
    state.counters["max_rel_err"] = cell.q.max;
    state.counters["avg_rel_err"] = cell.q.avg;
    state.counters["top100_overlap"] = cell.top100_overlap;
  }
}

void register_benchmarks() {
  for (const auto size : experiment_graph_sizes()) {
    for (std::size_t t = 0; t < benchutil::kTable23Thresholds.size(); ++t) {
      benchmark::RegisterBenchmark("table2/quality", BM_Quality)
          ->Args({static_cast<long>(size), static_cast<long>(t)})
          ->Iterations(1)
          ->Unit(benchmark::kMillisecond);
    }
  }
}

void print_table() {
  benchutil::print_banner(
      "Table 2: relative error |R_d - R_c| / R_c vs threshold epsilon",
      benchutil::kPaperSizes);
  for (const auto size : experiment_graph_sizes()) {
    std::cout << "Relative error for " << size_label(size) << " nodes:\n";
    std::vector<std::string> header{"% pages"};
    for (const double eps : benchutil::kTable23Thresholds) {
      header.push_back(benchutil::threshold_label(eps));
    }
    TextTable table(header);
    const std::vector<std::pair<std::string, double QualityReport::*>> rows{
        {"50", &QualityReport::p50},    {"75", &QualityReport::p75},
        {"90", &QualityReport::p90},    {"99", &QualityReport::p99},
        {"99.9", &QualityReport::p99_9}, {"Max.", &QualityReport::max},
        {"Avg.", &QualityReport::avg}};
    for (const auto& [label, member] : rows) {
      std::vector<std::string> cells{label};
      for (const double eps : benchutil::kTable23Thresholds) {
        const auto* c = store().find(key_of(size, eps));
        cells.push_back(c == nullptr ? "-" : format_sig(c->q.*member, 3));
      }
      table.add_row(std::move(cells));
    }
    // Ordering quality (beyond the paper): what the search layer
    // actually consumes is the rank *ordering*.
    {
      std::vector<std::string> cells{"top-100 ovl"};
      for (const double eps : benchutil::kTable23Thresholds) {
        const auto* c = store().find(key_of(size, eps));
        cells.push_back(c == nullptr ? "-"
                                     : format_fixed(c->top100_overlap, 2));
      }
      table.add_row(std::move(cells));
    }
    {
      std::vector<std::string> cells{"Kendall tau"};
      for (const double eps : benchutil::kTable23Thresholds) {
        const auto* c = store().find(key_of(size, eps));
        cells.push_back(c == nullptr ? "-"
                                     : format_fixed(c->kendall_tau, 3));
      }
      table.add_row(std::move(cells));
    }
    benchutil::emit(table, "table2_" + size_label(size));
    std::cout << "\n";
  }
  std::cout << "Paper's summary: with epsilon 0.2 only ~0.1% of pages "
               "exceed a few percent error; epsilon 1e-3 keeps the max "
               "error below ~1% at every size.\n";
}

}  // namespace
}  // namespace dprank

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  dprank::register_benchmarks();
  benchmark::RunSpecifiedBenchmarks();
  dprank::print_table();
  benchmark::Shutdown();
  return 0;
}
