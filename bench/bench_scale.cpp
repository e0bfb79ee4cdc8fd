// Million-doc hot-path scaling sweep (ROADMAP item 4).
//
// Unlike the table benches, this sweep is not a paper reproduction: it
// measures how the engine's per-pass cost, memory footprint and fold
// throughput scale with graph size and peer count. Runs are pass-capped
// (kPassCap) — the steady-state hot path is the object of study, not
// convergence, so a 1M-doc configuration finishes in seconds instead of
// hundreds of passes.
//
// Per configuration the bench reports:
//   * engine pass wall (total and per pass, threads from DPRANK_THREADS),
//   * gather GB/s — the in-CSR fold kernel (common/simd.hpp) timed
//     directly over every document, at the active SIMD level and with
//     the scalar fallback pinned, so the vector speedup is visible on
//     its own and not buried in pass bookkeeping,
//   * bytes/edge and bytes/node of the CSR (compact-layout yardstick),
//     engine scratch bytes and process peak RSS.
//
// Scale control: {100k} x {500 peers} by default — a CI-sized config
// with a committed baseline (bench/baselines/BENCH_scale.json);
// DPRANK_FULL=1 runs {100k, 500k, 1000k} x {500, 2000}.

#include "bench_util.hpp"

#include "common/arena.hpp"
#include "common/simd.hpp"
#include "graph/graph_stats.hpp"
#include "obs/mem_probe.hpp"

#include <map>
#include <numeric>
#include <string>
#include <vector>

namespace dprank {
namespace {

/// Passes each engine run executes (max_passes cap; no configuration
/// converges this early, so every run measures exactly this many).
constexpr std::uint64_t kPassCap = 12;

std::vector<std::uint64_t> scale_sizes() {
  if (full_scale_requested()) return {100'000, 500'000, 1'000'000};
  return {100'000};
}

std::vector<PeerId> scale_peers() {
  if (full_scale_requested()) return {500, 2000};
  return {500};
}

struct Row {
  std::uint64_t passes = 0;
  double run_seconds = 0.0;
  double us_per_pass = 0.0;
  std::uint64_t docs_recomputed = 0;
  double bytes_per_edge = 0.0;
  double bytes_per_node = 0.0;
  double engine_mb = 0.0;
  double peak_rss_mb = 0.0;
  double gather_gbps_active = 0.0;
  double gather_gbps_scalar = 0.0;
};

benchutil::ResultStore<Row>& store() {
  static benchutil::ResultStore<Row> s;
  return s;
}

std::string key_of(std::uint64_t docs, PeerId peers) {
  return size_label(docs) + "/" + std::to_string(peers);
}

/// Time the fold kernel over every document of `g` at `level`: one
/// in-CSR cell gather per edge, best of `reps`. Throughput counts the
/// gathered cell bytes (8 per edge) — the random-access traffic the
/// kernel exists to speed up — not the sequential offset/doc streams.
double fold_gbps(simd::Level level, const Digraph& g, int reps) {
  const NodeId n = g.num_nodes();
  const EdgeId m = g.num_edges();
  if (n == 0 || m == 0) return 0.0;
  AlignedVec<double> cells(m, 0.5);
  AlignedVec<double> acc(n, 0.0);
  std::vector<NodeId> docs(n);
  std::iota(docs.begin(), docs.end(), NodeId{0});
  double best = 1e300;
  for (int rep = 0; rep < reps + 1; ++rep) {  // rep 0 warms the cache
    const benchutil::WallTimer t;
    simd::fold_cells(level, cells.data(), g.in_offsets_data(), docs.data(),
                     n, acc.data());
    benchmark::DoNotOptimize(acc.data());
    benchmark::ClobberMemory();
    const double secs = t.seconds();
    if (rep > 0 && secs < best) best = secs;
  }
  return best > 0.0 ? static_cast<double>(m) * 8.0 / best / 1e9 : 0.0;
}

void BM_Scale(benchmark::State& state) {
  const auto docs = static_cast<std::uint64_t>(state.range(0));
  const auto peers = static_cast<PeerId>(state.range(1));
  const auto graph = cached_paper_graph(docs, experiment_seed());
  const Placement placement =
      Placement::random(docs, peers, experiment_seed());
  PagerankOptions opts;
  opts.epsilon = 1e-3;
  opts.max_passes = kPassCap;
  opts.threads = experiment_threads();
  for (auto _ : state) {
    DistributedPagerank engine(*graph, placement, opts);
    engine.attach_metrics(obs::default_registry());
    const benchutil::WallTimer t;
    const auto run = engine.run();
    const double secs = t.seconds();

    Row row;
    row.passes = run.passes;
    row.run_seconds = secs;
    row.us_per_pass =
        run.passes > 0 ? secs * 1e6 / static_cast<double>(run.passes) : 0.0;
    for (const auto& ps : engine.pass_history()) {
      row.docs_recomputed += ps.docs_recomputed;
    }
    const auto layout = compute_layout_stats(*graph);
    row.bytes_per_edge = layout.bytes_per_edge;
    row.bytes_per_node = layout.bytes_per_node;
    row.engine_mb = static_cast<double>(engine.memory_bytes()) / 1e6;
    row.peak_rss_mb = static_cast<double>(obs::peak_rss_bytes()) / 1e6;
    row.gather_gbps_active = fold_gbps(simd::active_level(), *graph, 3);
    row.gather_gbps_scalar = fold_gbps(simd::Level::kScalar, *graph, 3);
    store().put(key_of(docs, peers), row);
    state.counters["us_per_pass"] = row.us_per_pass;
    state.counters["gather_gbps"] = row.gather_gbps_active;
  }
}

void register_benchmarks() {
  for (const auto docs : scale_sizes()) {
    for (const PeerId peers : scale_peers()) {
      benchmark::RegisterBenchmark("scale/hotpath", BM_Scale)
          ->Args({static_cast<long>(docs), static_cast<long>(peers)})
          ->Iterations(1)
          ->Unit(benchmark::kMillisecond);
    }
  }
}

void print_table() {
  benchutil::print_banner(
      "Scale sweep: pass-capped hot path (" + std::to_string(kPassCap) +
      " passes, epsilon = 1e-3)",
      {"100k docs x 500 peers", "100k/500k/1M docs x 500/2k peers"});
  TextTable table({"Docs/peers", "us/pass", "gather GB/s",
                   "scalar GB/s", "B/edge", "B/node", "engine MB",
                   "peak RSS MB"});
  for (const auto docs : scale_sizes()) {
    for (const PeerId peers : scale_peers()) {
      const auto* r = store().find(key_of(docs, peers));
      if (r == nullptr) continue;
      table.add_row({key_of(docs, peers), format_fixed(r->us_per_pass, 0),
                     format_fixed(r->gather_gbps_active, 2),
                     format_fixed(r->gather_gbps_scalar, 2),
                     format_fixed(r->bytes_per_edge, 1),
                     format_fixed(r->bytes_per_node, 1),
                     format_fixed(r->engine_mb, 1),
                     format_fixed(r->peak_rss_mb, 1)});
    }
  }
  benchutil::emit(table, "scale_1");
  std::cout << "\nSIMD level: " << simd::level_name(simd::active_level())
            << "\n";
}

std::map<std::string, std::string> scale_config() {
  std::string sizes;
  for (const auto s : scale_sizes()) {
    if (!sizes.empty()) sizes += ",";
    sizes += size_label(s);
  }
  std::string peers;
  for (const PeerId p : scale_peers()) {
    if (!peers.empty()) peers += ",";
    peers += std::to_string(p);
  }
  return {{"sizes", sizes},
          {"peers", peers},
          {"full_scale", full_scale_requested() ? "1" : "0"},
          {"seed", std::to_string(experiment_seed())},
          {"threads", std::to_string(experiment_threads())}};
}

std::map<std::string, double> extra_measurements() {
  std::map<std::string, double> extra;
  for (const auto& [key, r] : store().all()) {
    extra[key + "/us_per_pass"] = r.us_per_pass;
    extra[key + "/gather_gbps"] = r.gather_gbps_active;
    extra[key + "/gather_gbps_scalar"] = r.gather_gbps_scalar;
    extra[key + "/bytes_per_edge"] = r.bytes_per_edge;
    extra[key + "/engine_mb"] = r.engine_mb;
    extra[key + "/peak_rss_mb"] = r.peak_rss_mb;
  }
  return extra;
}

}  // namespace
}  // namespace dprank

int main(int argc, char** argv) {
  const dprank::benchutil::WallTimer wall;
  benchmark::Initialize(&argc, argv);
  dprank::register_benchmarks();
  benchmark::RunSpecifiedBenchmarks();
  dprank::print_table();
  dprank::benchutil::write_bench_json("scale", wall.seconds(),
                                      dprank::scale_config(),
                                      dprank::extra_measurements());
  benchmark::Shutdown();
  return 0;
}
