#pragma once

// Pluggable pagerank-engine interface — the contract every engine in the
// zoo implements: run-to-convergence over a `Digraph` plus a peer
// `Placement`, exposing ranks, pass/round history, the traffic ledger and
// the metrics/tracer/mass-audit attachment points.
//
// Engines (see engines/registry.hpp for the factory):
//  * "distributed" — the paper's Fig. 1 chaotic iteration
//    (pagerank/distributed_engine.hpp), the reference implementation.
//  * "walk" — Das Sarma-style random walks (engines/walk_engine.hpp):
//    seeded walk tokens forwarded peer to peer, ranks estimated from
//    visit counts. Statistical (traits().exact == false).
//  * "gossip" — Ishii/Tempo-style randomized gossip
//    (engines/gossip_engine.hpp): each round every peer recomputes a
//    seeded-random subset of its dirty documents. Converges to the same
//    fixed point as fifo.
//
// A "pass" is whatever one synchronized round means for the algorithm
// (Fig. 1 pass, one step of every live walk, one gossip round); engines
// fill the shared PassStats vocabulary and leave fields that do not
// apply at zero. All engine-internal randomness derives from
// EngineOptions::seed, so same-seed reruns are bit-identical.

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <vector>

#include "net/traffic_meter.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "p2p/churn.hpp"
#include "pagerank/options.hpp"

namespace dprank {

struct PassStats {
  std::uint64_t pass = 0;
  std::uint64_t docs_recomputed = 0;
  std::uint64_t messages_sent = 0;      // cross-peer, delivered immediately
  std::uint64_t messages_deferred = 0;  // parked in an outbox this pass
  std::uint64_t messages_delivered_late = 0;  // outbox drains this pass
  std::uint64_t local_updates = 0;
  std::uint64_t max_peer_messages = 0;  // busiest sender, for Eq. 4
  double max_rel_change = 0.0;
  // Fault-plan extensions (all zero without an attached plan).
  std::uint64_t crashes = 0;            // peers crashing at pass start
  std::uint64_t recovered_docs = 0;     // documents rebuilt this pass
  std::uint64_t retransmissions = 0;    // acked-delivery retries this pass
  std::uint64_t repair_messages = 0;    // mass-audit re-injections
  /// Dirty documents whose recompute the gossip engine's randomized
  /// selection pushed to a later pass (always zero for
  /// DistributedPagerank, which recomputes every dirty document).
  std::uint64_t docs_deferred = 0;
  // Dynamic-membership extensions (all zero without attach_membership).
  /// Documents whose ownership moved this pass (join pulls, leave pushes
  /// and crash-range reconstructions).
  std::uint64_t handoff_docs = 0;
  /// Cross-peer sends addressed to a crashed-but-undeclared owner — the
  /// detection-latency window where senders still query the stale owner.
  std::uint64_t stale_owner_queries = 0;
};

struct DistributedRunResult {
  std::uint64_t passes = 0;
  bool converged = false;
  /// Rank-mass conservation at termination (1.0 = every emitted
  /// contribution accounted for). Only meaningful with the mass audit
  /// enabled; 1.0 otherwise.
  double mass_ratio = 1.0;
  /// Audit rounds that found leaks and re-injected mass.
  std::uint64_t repair_rounds = 0;
};

/// Static per-engine capabilities and guarantees, used by the
/// conformance suite, the bench matrix and dprank_cli to drive every
/// engine through the shared interface without downcasting.
struct EngineTraits {
  /// Registry name (engines/registry.hpp).
  const char* name = "";
  /// run() accepts a ChurnSchedule — absent peers neither compute nor
  /// receive, and state addressed to them parks until they return.
  bool supports_churn = false;
  /// Converges to the §2.3 fixed point within epsilon; false for
  /// statistical estimators whose residual error is bounded only by
  /// quality_bound.
  bool exact = true;
  /// attach_tracer is supported (per-message causal journeys).
  bool supports_tracer = false;
  /// Declared mean relative-error bound vs centralized_pagerank on the
  /// conformance config (2k-doc paper graph, default options); enforced
  /// by tests/test_engine_interface.cpp.
  double quality_bound = 0.0;
};

/// Engine-zoo construction knobs: the shared PagerankOptions plus the
/// per-algorithm parameters the factory (engines/registry.hpp) forwards
/// to whichever engine it builds. Fields an engine does not consume are
/// ignored.
struct EngineOptions {
  PagerankOptions pagerank;
  /// Seed for algorithm-internal randomness (walk trajectories, gossip
  /// document selection). The default engine draws nothing from it.
  std::uint64_t seed = 42;
  // ---- random-walk engine (engines/walk_engine.hpp) ----
  /// Walk tokens started per document; the estimator's relative error
  /// shrinks as 1/sqrt(walks_per_node).
  std::uint32_t walks_per_node = 64;
  /// Forced-termination step cap. Survival past s steps has probability
  /// d^s (4e-15 at the default), so the truncation bias is negligible
  /// while termination is guaranteed.
  std::uint32_t walk_step_cap = 200;
  // ---- gossip engine (engines/gossip_engine.hpp) ----
  /// Probability that a dirty document is selected for recompute in a
  /// given round (the randomized-update rate).
  double gossip_fraction = 0.5;
  /// Consecutive rounds a dirty document may be passed over before its
  /// recompute is forced (keeps the randomized schedule fair).
  std::uint32_t gossip_max_defer = 8;
};

/// Abstract engine: run once to convergence, then read the results.
/// Implementations keep references to the graph/placement handed to
/// their constructors — both must outlive the engine. Attachment points
/// must be called before run(); accessors are valid any time (ranks()
/// reflects the initial state until run() completes).
class PagerankEngineInterface {
 public:
  /// Observer invoked after every pass with (pass index, current ranks);
  /// used to measure convergence trajectories (§4.3). For statistical
  /// engines the per-pass ranks are the current estimate.
  using PassObserver =
      std::function<void(std::uint64_t, const std::vector<double>&)>;
  /// Per-pass simulated duration in microseconds, driven by the pass
  /// just completed (sim/time_model.hpp's make_pass_clock builds one
  /// from the Eq. 4 network model).
  using PassClock = std::function<double(const PassStats&)>;

  PagerankEngineInterface() = default;
  PagerankEngineInterface(const PagerankEngineInterface&) = delete;
  PagerankEngineInterface& operator=(const PagerankEngineInterface&) = delete;
  PagerankEngineInterface(PagerankEngineInterface&&) = delete;
  PagerankEngineInterface& operator=(PagerankEngineInterface&&) = delete;
  virtual ~PagerankEngineInterface() = default;

  /// Run to convergence. `churn == nullptr` means all peers always
  /// present; engines with traits().supports_churn == false reject a
  /// non-null schedule with std::logic_error. Can be called once per
  /// engine instance.
  virtual DistributedRunResult run(ChurnSchedule* churn = nullptr,
                                   const PassObserver& observer = nullptr) = 0;

  [[nodiscard]] virtual const std::vector<double>& ranks() const = 0;
  [[nodiscard]] virtual const TrafficMeter& traffic() const = 0;
  [[nodiscard]] virtual const std::vector<PassStats>& pass_history()
      const = 0;

  /// Publish run telemetry into `registry` when run() finishes (net.*
  /// traffic ledger, pagerank.* run totals, per-pass series). The
  /// registry must outlive the engine; call before run().
  virtual void attach_metrics(obs::MetricsRegistry& registry) = 0;

  /// Attach a causal message tracer. Only engines with
  /// traits().supports_tracer override this; the default rejects.
  virtual void attach_tracer(obs::Tracer& /*tracer*/,
                             PassClock /*clock*/ = nullptr) {
    throw std::logic_error(
        "attach_tracer: engine does not support tracing (check "
        "traits().supports_tracer)");
  }

  /// Enable the engine's conservation audit: the distributed engine
  /// audits rank-mass against the emission ledger, the walk engine
  /// audits token conservation, the gossip engine its emission ledger.
  /// Call before run(); run() then reports mass_ratio and refuses to
  /// converge while the audit fails.
  virtual void enable_mass_audit(double tolerance = 1e-9) = 0;

  [[nodiscard]] virtual EngineTraits traits() const = 0;
};

}  // namespace dprank
