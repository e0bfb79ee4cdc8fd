// Ablation: centralized crawler alternatives (§5) vs the distributed
// computation's own traffic.
//
// Scheme 1 (naive crawl): fetch every document to a central server.
// Scheme 2 (link shipping): upload only the link structure, compute
// centrally, redistribute ranks.
// Distributed: the pagerank update messages measured by the engine.
//
// The paper argues scheme 1 is unworkable and scheme 2 still clashes
// with P2P philosophy; the numbers show where each sits.

#include "bench_util.hpp"

#include "pagerank/crawler.hpp"

namespace dprank {
namespace {

struct Row {
  CrawlerTraffic crawler;
  std::uint64_t distributed_bytes = 0;
  std::uint64_t distributed_messages = 0;
};

benchutil::ResultStore<Row>& store() {
  static benchutil::ResultStore<Row> s;
  return s;
}

void BM_Centralized(benchmark::State& state) {
  const auto size = static_cast<std::uint64_t>(state.range(0));
  ExperimentConfig cfg;
  cfg.num_docs = size;
  cfg.num_peers = 500;
  cfg.epsilon = 1e-3;
  cfg.seed = experiment_seed();
  const StandardExperiment exp(cfg);
  for (auto _ : state) {
    Row row;
    row.crawler = centralized_crawler_traffic(exp.graph());
    const auto outcome = exp.run_distributed();
    row.distributed_messages = outcome.messages;
    row.distributed_bytes = outcome.messages * 24;
    store().put(size_label(size), row);
    state.counters["crawler_naive_MB"] =
        static_cast<double>(row.crawler.naive_fetch_bytes) / 1e6;
    state.counters["distributed_MB"] =
        static_cast<double>(row.distributed_bytes) / 1e6;
  }
}

void register_benchmarks() {
  for (const auto size : experiment_graph_sizes()) {
    benchmark::RegisterBenchmark("ablation/centralized", BM_Centralized)
        ->Args({static_cast<long>(size)})
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  }
}

void print_table() {
  benchutil::print_banner(
      "Ablation: centralized crawler vs distributed computation traffic",
      benchutil::kPaperSizes);
  TextTable table({"Graph size", "naive crawl (MB)", "link upload (MB)",
                   "rank redistribution (MB)", "distributed updates (MB)",
                   "distributed msgs (M)"});
  for (const auto size : experiment_graph_sizes()) {
    const auto* r = store().find(size_label(size));
    if (r == nullptr) continue;
    table.add_row(
        {size_label(size),
         format_fixed(static_cast<double>(r->crawler.naive_fetch_bytes) / 1e6,
                      1),
         format_fixed(static_cast<double>(r->crawler.link_upload_bytes) / 1e6,
                      2),
         format_fixed(
             static_cast<double>(r->crawler.rank_redistribution_bytes) / 1e6,
             2),
         format_fixed(static_cast<double>(r->distributed_bytes) / 1e6, 2),
         format_fixed(static_cast<double>(r->distributed_messages) / 1e6,
                      2)});
  }
  benchutil::emit(table, "ablation_centralized_1");
  std::cout << "\nOne-shot comparison only: the distributed scheme "
               "additionally absorbs inserts/deletes incrementally, while "
               "a crawler pays the full bill on every recomputation "
               "(weekly on the 2003-era web, per the paper).\n";
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
