// Table 3: pagerank update message traffic vs error threshold, plus the
// Eq. 4 execution-time estimate at 32 KB/s and 200 KB/s for the largest
// graph in the sweep.
//
// Paper's result shape: total messages grow ~logarithmically as epsilon
// drops (1e-1 -> 1e-6 costs <3x the messages); messages per node are
// nearly graph-size independent (~35-120); execution time is dominated
// by communication and measured in hours.

#include "bench_util.hpp"

#include "sim/time_model.hpp"

#include <string>
#include <vector>

namespace dprank {
namespace {

struct Row {
  std::uint64_t messages = 0;
  double per_node = 0.0;
  double hours_32k = 0.0;
  double hours_200k = 0.0;
  std::uint64_t passes = 0;
};

benchutil::ResultStore<Row>& store() {
  static benchutil::ResultStore<Row> s;
  return s;
}

std::string key_of(std::uint64_t size, double eps) {
  return size_label(size) + "/" + benchutil::threshold_label(eps);
}

void BM_Traffic(benchmark::State& state) {
  const auto size = static_cast<std::uint64_t>(state.range(0));
  const double eps = benchutil::kTable23Thresholds[
      static_cast<std::size_t>(state.range(1))];
  ExperimentConfig cfg;
  cfg.num_docs = size;
  cfg.num_peers = 500;
  cfg.epsilon = eps;
  cfg.seed = experiment_seed();
  const StandardExperiment exp(cfg);
  for (auto _ : state) {
    const auto outcome = exp.run_distributed();
    Row row;
    row.messages = outcome.messages;
    row.per_node = static_cast<double>(outcome.messages) /
                   static_cast<double>(size);
    row.hours_32k =
        estimate_serialized(outcome.history, modem_network()).total_hours();
    row.hours_200k = estimate_serialized(outcome.history, broadband_network())
                         .total_hours();
    row.passes = outcome.run.passes;
    store().put(key_of(size, eps), row);
    state.counters["messages"] = static_cast<double>(row.messages);
    state.counters["msgs_per_node"] = row.per_node;
    state.counters["est_hours_32KBps"] = row.hours_32k;
  }
}

void register_benchmarks() {
  for (const auto size : experiment_graph_sizes()) {
    for (std::size_t t = 0; t < benchutil::kTable23Thresholds.size(); ++t) {
      benchmark::RegisterBenchmark("table3/traffic", BM_Traffic)
          ->Args({static_cast<long>(size), static_cast<long>(t)})
          ->Iterations(1)
          ->Unit(benchmark::kMillisecond);
    }
  }
}

void print_table() {
  benchutil::print_banner(
      "Table 3: message traffic vs threshold (24-byte updates)",
      benchutil::kPaperSizes);
  const auto sizes = experiment_graph_sizes();
  const auto largest = sizes.back();

  std::vector<std::string> header{"Threshold"};
  for (const auto size : sizes) {
    header.push_back(size_label(size) + " total(M)");
    header.push_back(size_label(size) + " avg/node");
  }
  header.push_back("hrs@32KB/s(" + size_label(largest) + ")");
  header.push_back("hrs@200KB/s(" + size_label(largest) + ")");

  TextTable table(header);
  for (const double eps : benchutil::kTable23Thresholds) {
    std::vector<std::string> cells{benchutil::threshold_label(eps)};
    for (const auto size : sizes) {
      const auto* r = store().find(key_of(size, eps));
      if (r == nullptr) {
        cells.insert(cells.end(), {"-", "-"});
        continue;
      }
      cells.push_back(format_fixed(
          static_cast<double>(r->messages) / 1e6, 3));
      cells.push_back(format_fixed(r->per_node, 1));
    }
    const auto* big = store().find(key_of(largest, eps));
    cells.push_back(big == nullptr ? "-" : format_fixed(big->hours_32k, 2));
    cells.push_back(big == nullptr ? "-" : format_fixed(big->hours_200k, 2));
    table.add_row(std::move(cells));
  }
  benchutil::emit(table, "table3_1");
  std::cout << "\nPaper (5000k column): 35-117 avg msgs/node from epsilon "
               "0.2 down to 1e-6; 33.7-117 hours at 32 KB/s.\n"
               "Growth check: messages increase ~logarithmically with "
               "1/epsilon and msgs/node is nearly size-independent.\n";
}

}  // namespace
}  // namespace dprank

int main(int argc, char** argv) {
  const dprank::benchutil::WallTimer wall;
  benchmark::Initialize(&argc, argv);
  dprank::register_benchmarks();
  benchmark::RunSpecifiedBenchmarks();
  dprank::print_table();
  dprank::benchutil::write_bench_json("table3", wall.seconds(),
                                      dprank::benchutil::standard_config());
  benchmark::Shutdown();
  return 0;
}
