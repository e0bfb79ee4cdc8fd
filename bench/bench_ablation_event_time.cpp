// Ablation: measured (event-driven) execution time vs the paper's
// analytic Eq. 4 estimates.
//
// The paper's simulator assumed instantaneous delivery and estimated
// wall-clock time analytically; the event engine simulates per-peer
// CPUs, serialized finite-bandwidth uplinks and propagation latency.
// This bench puts the three numbers side by side across bandwidths and
// latencies, quantifying how much the analytic shortcut matters.

#include "bench_util.hpp"

#include "pagerank/distributed_engine.hpp"
#include "pagerank/event_engine.hpp"
#include "sim/time_model.hpp"

#include <vector>

namespace dprank {
namespace {

struct Row {
  double event_seconds = 0.0;
  double serialized_seconds = 0.0;
  double parallel_seconds = 0.0;
  std::uint64_t event_messages = 0;
  std::uint64_t pass_messages = 0;
};

benchutil::ResultStore<Row>& store() {
  static benchutil::ResultStore<Row> s;
  return s;
}

struct NetCase {
  const char* name;
  double bandwidth;
  double latency;
};

const std::vector<NetCase> kNets{
    {"32KB/s,50ms", 32.0 * 1024, 0.050},
    {"200KB/s,50ms", 200.0 * 1024, 0.050},
    {"200KB/s,200ms", 200.0 * 1024, 0.200},
    {"T3,20ms", 5.6e6, 0.020},
};

void BM_EventTime(benchmark::State& state) {
  const auto size = static_cast<std::uint64_t>(state.range(0));
  const NetCase net_case = kNets[static_cast<std::size_t>(state.range(1))];
  constexpr PeerId kPeers = 100;
  const auto graph = cached_paper_graph(size, experiment_seed());
  const auto placement = Placement::random(size, kPeers, experiment_seed());
  PagerankOptions opts;
  opts.epsilon = 1e-3;

  for (auto _ : state) {
    EventNetParams enet;
    enet.bandwidth_bytes_per_sec = net_case.bandwidth;
    enet.latency_sec = net_case.latency;
    EventDrivenPagerank event_engine(*graph, placement, opts, enet);
    const auto event_result = event_engine.run();

    DistributedPagerank pass_engine(*graph, placement, opts);
    (void)pass_engine.run();
    NetworkParams analytic;
    analytic.bandwidth_bytes_per_sec = net_case.bandwidth;

    Row row;
    row.event_seconds = event_result.completion_seconds;
    row.serialized_seconds =
        estimate_serialized(pass_engine.pass_history(), analytic)
            .total_seconds();
    row.parallel_seconds =
        estimate_parallel(pass_engine.pass_history(), placement, analytic)
            .total_seconds();
    row.event_messages = event_result.messages;
    row.pass_messages = pass_engine.traffic().messages();
    store().put(size_label(size) + "/" + net_case.name, row);
    state.counters["event_seconds"] = row.event_seconds;
    state.counters["eq4_serialized_seconds"] = row.serialized_seconds;
  }
}

void register_benchmarks() {
  for (const auto size : experiment_graph_sizes()) {
    if (size > 100'000) continue;  // event queue scale guard
    for (std::size_t c = 0; c < kNets.size(); ++c) {
      benchmark::RegisterBenchmark("ablation/event_time", BM_EventTime)
          ->Args({static_cast<long>(size), static_cast<long>(c)})
          ->Iterations(1)
          ->Unit(benchmark::kMillisecond);
    }
  }
}

void print_table() {
  benchutil::print_banner(
      "Ablation: measured event-driven time vs Eq. 4 analytic estimates "
      "(100 peers, epsilon = 1e-3)", benchutil::kPaperSizes);
  TextTable table({"Config", "event sim (s)", "Eq.4 serialized (s)",
                   "Eq.4 parallel (s)", "event msgs", "pass msgs"});
  for (const auto size : experiment_graph_sizes()) {
    for (const auto& net_case : kNets) {
      const auto* r = store().find(size_label(size) + "/" + net_case.name);
      if (r == nullptr) continue;
      table.add_row({size_label(size) + " " + net_case.name,
                     format_fixed(r->event_seconds, 1),
                     format_fixed(r->serialized_seconds, 1),
                     format_fixed(r->parallel_seconds, 1),
                     format_count(r->event_messages),
                     format_count(r->pass_messages)});
    }
  }
  benchutil::emit(table, "ablation_event_time_1");
  std::cout << "\nThe serialized Eq. 4 model (the paper's Table 3 "
               "columns) is pessimistic on bandwidth but blind to "
               "latency; the event simulation shows latency chains "
               "dominating completion on fast links, and chaotic "
               "delivery sending more messages than the pass-coalesced "
               "accounting (each peer drains its inbox per "
               "min_batch_interval — shrink it toward 0 to watch the "
               "unbatched message bill explode, the §4.6.1 batching "
               "assumption made quantitative).\n";
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
