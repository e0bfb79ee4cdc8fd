// Figure 2: propagation of pagerank increments on document insert.
//
// Reproduces the paper's worked example exactly — G (rank 1.0, three
// out-links) sends 1/3 to each; H (two out-links) forwards 1/6 to K and
// L — and times the cascade machinery on the tiny graph and on a
// web-scale graph as a microbenchmark.

#include "bench_util.hpp"

#include "common/rng.hpp"
#include "graph/generator.hpp"
#include "pagerank/centralized.hpp"
#include "pagerank/incremental.hpp"

#include <string>
#include <vector>

namespace dprank {
namespace {

void BM_Figure2Cascade(benchmark::State& state) {
  const Digraph g = figure2_graph();
  PagerankOptions opts;
  opts.damping = 1.0;  // the figure's illustration has no damping
  opts.epsilon = 1e-9;
  std::vector<double> ranks(6, 0.0);
  IncrementalPagerank engine(g, ranks, opts);
  for (auto _ : state) {
    std::fill(ranks.begin(), ranks.end(), 0.0);
    const auto stats = engine.seed_and_propagate(0);
    benchmark::DoNotOptimize(stats);
  }
  state.counters["updates"] = 5;
}

void BM_WebGraphProbe(benchmark::State& state) {
  const auto size = static_cast<std::uint64_t>(state.range(0));
  const double eps = 1e-3;
  const auto graph = cached_paper_graph(size, experiment_seed());
  std::vector<double> ranks = centralized_pagerank(*graph, 0.85, 1e-10).ranks;
  PagerankOptions opts;
  opts.epsilon = eps;
  IncrementalPagerank engine(*graph, ranks, opts);
  Rng rng(7);
  std::uint64_t updates = 0;
  std::uint64_t probes = 0;
  for (auto _ : state) {
    const auto node = static_cast<NodeId>(rng.bounded(graph->num_nodes()));
    const auto stats = engine.probe_insert(node);
    updates += stats.updates_delivered;
    ++probes;
    benchmark::DoNotOptimize(stats);
  }
  state.counters["avg_updates_per_insert"] =
      probes == 0 ? 0.0
                  : static_cast<double>(updates) / static_cast<double>(probes);
}

void print_figure() {
  benchutil::print_banner(
      "Figure 2: increment propagation example",
      benchutil::kPaperSizes);
  const Digraph g = figure2_graph();
  const char* names = "GHIJKL";

  for (const double d : {1.0, 0.85}) {
    PagerankOptions opts;
    opts.damping = d;
    opts.epsilon = 1e-9;
    std::vector<double> ranks(6, 0.0);
    IncrementalPagerank engine(g, ranks, opts);
    const auto stats = engine.seed_and_propagate(0);
    std::cout << "damping d = " << d << " (paper's figure is d = 1):\n";
    TextTable table({"Document", "Increment received"});
    for (NodeId v = 0; v < 6; ++v) {
      table.add_row({std::string(1, names[v]),
                     v == 0 ? "1 (seed)" : format_sig(ranks[v], 4)});
    }
    table.print(std::cout);
    std::cout << "path length " << stats.path_length << ", coverage "
              << stats.nodes_covered << ", updates "
              << stats.updates_delivered << "\n\n";
  }
  std::cout << "Paper: G seeds 1, H/I/J receive 1/3, K/L receive 1/6; the "
               "increment falls below the threshold and propagation "
               "stops.\n";
}

void register_benchmarks() {
  benchmark::RegisterBenchmark("figure2/cascade", BM_Figure2Cascade);
  for (const auto size : experiment_graph_sizes()) {
    benchmark::RegisterBenchmark("figure2/web_graph_probe", BM_WebGraphProbe)
        ->Args({static_cast<long>(size)})
        ->Unit(benchmark::kMicrosecond);
  }
}

}  // namespace
}  // namespace dprank

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  dprank::register_benchmarks();
  benchmark::RunSpecifiedBenchmarks();
  dprank::print_figure();
  benchmark::Shutdown();
  return 0;
}
