// Table 4: path length and node coverage of document-insert update
// cascades, averaged over 1000 random documents per (size, threshold).
//
// Paper's protocol (§4.7): pick a random node, set its pagerank to the
// initial value (1.0), propagate increments to its out-links; each
// receiver adds the increment and forwards d*delta/outdeg while the
// change is significant. Path length is the longest forwarding chain;
// node coverage is the number of distinct documents an update reaches
// (an upper bound on insert-generated messages).
//
// Paper's result shape: path length ~2-24 growing with log(1/epsilon),
// nearly size-independent; coverage grows ~linearly in 1/epsilon and
// saturates at graph size for small graphs / tiny thresholds.

#include "bench_util.hpp"

#include "common/rng.hpp"
#include "pagerank/centralized.hpp"
#include "pagerank/incremental.hpp"

#include <map>
#include <string>
#include <vector>

namespace dprank {
namespace {

struct Row {
  double avg_path = 0.0;
  double avg_coverage = 0.0;
  double avg_messages = 0.0;
};

benchutil::ResultStore<Row>& store() {
  static benchutil::ResultStore<Row> s;
  return s;
}

std::string key_of(std::uint64_t size, double eps) {
  return size_label(size) + "/" + benchutil::threshold_label(eps);
}

constexpr std::uint32_t kProbes = 1000;  // the paper's sample size

void BM_InsertProbes(benchmark::State& state) {
  const auto size = static_cast<std::uint64_t>(state.range(0));
  const double eps = benchutil::kTable4Thresholds[
      static_cast<std::size_t>(state.range(1))];
  const auto graph = cached_paper_graph(size, experiment_seed());
  // Converged base ranks; the centralized solver is the cheap route to
  // the same fixed point the distributed run reaches. Deliberate
  // cross-iteration cache. dprank-lint: allow(mutable-global)
  static std::map<std::uint64_t, std::vector<double>> rank_cache;
  auto& base_ranks = rank_cache[size];
  if (base_ranks.empty()) {
    base_ranks = centralized_pagerank(*graph, 0.85, 1e-12).ranks;
  }

  PagerankOptions opts;
  opts.epsilon = eps;
  for (auto _ : state) {
    std::vector<double> ranks = base_ranks;
    IncrementalPagerank engine(*graph, ranks, opts);
    Rng rng(experiment_seed() ^ 0x7AB1E4ULL);
    Row row;
    for (std::uint32_t i = 0; i < kProbes; ++i) {
      const auto node =
          static_cast<NodeId>(rng.bounded(graph->num_nodes()));
      const auto stats = engine.probe_insert(node);
      row.avg_path += stats.path_length;
      row.avg_coverage += static_cast<double>(stats.nodes_covered);
      row.avg_messages += static_cast<double>(stats.updates_delivered);
    }
    row.avg_path /= kProbes;
    row.avg_coverage /= kProbes;
    row.avg_messages /= kProbes;
    store().put(key_of(size, eps), row);
    state.counters["avg_path_length"] = row.avg_path;
    state.counters["avg_node_coverage"] = row.avg_coverage;
  }
}

void register_benchmarks() {
  for (const auto size : experiment_graph_sizes()) {
    for (std::size_t t = 0; t < benchutil::kTable4Thresholds.size(); ++t) {
      benchmark::RegisterBenchmark("table4/insert_probes", BM_InsertProbes)
          ->Args({static_cast<long>(size), static_cast<long>(t)})
          ->Iterations(1)
          ->Unit(benchmark::kMillisecond);
    }
  }
}

void print_table() {
  benchutil::print_banner(
      "Table 4: insert propagation, 1000 random documents per cell",
      benchutil::kPaperSizes);
  const auto sizes = experiment_graph_sizes();

  std::cout << "Path length:\n";
  std::vector<std::string> header{"Threshold"};
  for (const auto size : sizes) header.push_back(size_label(size));
  {
    TextTable table(header);
    for (const double eps : benchutil::kTable4Thresholds) {
      std::vector<std::string> cells{benchutil::threshold_label(eps)};
      for (const auto size : sizes) {
        const auto* r = store().find(key_of(size, eps));
        cells.push_back(r == nullptr ? "-" : format_fixed(r->avg_path, 1));
      }
      table.add_row(std::move(cells));
    }
    benchutil::emit(table, "table4_1");
  }

  std::cout << "\nNode coverage:\n";
  {
    TextTable table(header);
    for (const double eps : benchutil::kTable4Thresholds) {
      std::vector<std::string> cells{benchutil::threshold_label(eps)};
      for (const auto size : sizes) {
        const auto* r = store().find(key_of(size, eps));
        cells.push_back(r == nullptr ? "-"
                                     : format_fixed(r->avg_coverage, 0));
      }
      table.add_row(std::move(cells));
    }
    benchutil::emit(table, "table4_2");
  }

  std::cout << "\nUpdate messages per insert (upper-bounded by coverage "
               "in the paper's accounting):\n";
  {
    TextTable table(header);
    for (const double eps : benchutil::kTable4Thresholds) {
      std::vector<std::string> cells{benchutil::threshold_label(eps)};
      for (const auto size : sizes) {
        const auto* r = store().find(key_of(size, eps));
        cells.push_back(r == nullptr ? "-"
                                     : format_fixed(r->avg_messages, 0));
      }
      table.add_row(std::move(cells));
    }
    benchutil::emit(table, "table4_3");
  }
  std::cout << "\nPaper: path length 2.0-24.3 (growing ~3 hops per decade "
               "of epsilon); coverage 14 -> ~10k-327k as epsilon drops to "
               "1e-5, saturating at graph size on small graphs.\n";
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
