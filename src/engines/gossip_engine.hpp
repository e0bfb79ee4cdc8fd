#pragma once

// Randomized-gossip pagerank engine (Ishii & Tempo, arXiv:1203.6599,
// adapted to the paper's unnormalized chaotic iteration).
//
// Where the distributed engine recomputes every dirty document each
// pass, the gossip engine randomizes the update schedule: each round
// every present peer selects a seeded-random subset of its dirty
// documents (each with probability gossip_fraction) and recomputes only
// those. Documents passed over stay dirty and accumulate defer age; at
// gossip_max_defer consecutive skips the recompute is forced, so the
// randomized schedule stays fair and the iteration provably drains.
//
// Semantics shared with the distributed engine (pagerank/
// distributed_engine.hpp): per-out-edge contribution cells, the rank
// recursion R(v) = (1-d) + d * sum of stored in-contributions, the
// ε relative-change emission gate (against the value the out-links
// actually hold, so deferred recomputes never silently drop mass),
// same-peer updates free, cross-peer updates one 24-byte message,
// updates to absent peers parked newest-wins and billed at delivery,
// updates sent in round t visible in round t+1 (Jacobi-style buffered
// apply — results do not depend on sweep order). Convergence: no dirty
// document anywhere and no parked update.
//
// Selection randomness is a stateless hash of (seed, round, doc):
// same-seed reruns are bit-identical, with or without churn. The audit
// is the emission ledger: at quiescence every edge's effective value
// (delivered cell, or parked newest value) equals its last emitted
// value exactly; run() reports the ratio as mass_ratio.
//
// The engine is sequential (PagerankOptions::threads is ignored); the
// randomized selection is its schedule.

#include <cstdint>
#include <vector>

#include "graph/digraph.hpp"
#include "net/traffic_meter.hpp"
#include "obs/metrics.hpp"
#include "p2p/churn.hpp"
#include "p2p/placement.hpp"
#include "pagerank/engine.hpp"

namespace dprank {

class GossipEngine : public PagerankEngineInterface {
 public:
  /// The placement must cover exactly g.num_nodes() documents. The
  /// engine keeps references: graph and placement must outlive it.
  GossipEngine(const Digraph& g, const Placement& placement,
               const EngineOptions& options);
  GossipEngine(Digraph&&, const Placement&, EngineOptions) = delete;
  GossipEngine(const Digraph&, Placement&&, EngineOptions) = delete;
  GossipEngine(Digraph&&, Placement&&, EngineOptions) = delete;

  DistributedRunResult run(ChurnSchedule* churn = nullptr,
                           const PassObserver& observer = nullptr) override;

  [[nodiscard]] const std::vector<double>& ranks() const override {
    return ranks_;
  }
  [[nodiscard]] const TrafficMeter& traffic() const override {
    return meter_;
  }
  [[nodiscard]] const std::vector<PassStats>& pass_history() const override {
    return history_;
  }
  void attach_metrics(obs::MetricsRegistry& registry) override;
  void enable_mass_audit(double tolerance = 1e-9) override;

  /// Exact: converges to the same ε-fixed point as fifo, only the
  /// schedule is randomized. The bound is the fifo-equivalent mean
  /// relative error vs the oracle at ε = 1e-3, with slack.
  [[nodiscard]] EngineTraits traits() const override {
    EngineTraits t;
    t.name = "gossip";
    t.supports_churn = true;
    t.exact = true;
    t.supports_tracer = false;
    t.quality_bound = 0.01;
    return t;
  }

 private:
  struct Emission {
    EdgeId edge = 0;
    PeerId src = 0;
    double value = 0.0;
  };

  /// Selection draw for (round, doc): stateless hash from the seed.
  [[nodiscard]] bool selected(std::uint64_t round, NodeId v) const;
  void deliver_parked(const std::vector<bool>& presence, PassStats& stats);
  void apply_emissions(const std::vector<bool>& presence, PassStats& stats);
  void mark_dirty(NodeId v);
  [[nodiscard]] double audit_ratio() const;
  void flush_metrics(const DistributedRunResult& result);

  const Digraph& graph_;
  const Placement& placement_;
  EngineOptions options_;

  std::vector<double> ranks_;
  /// Value the document's out-links hold (the emission-gate reference).
  std::vector<double> last_sent_;
  /// Delivered contribution cells, indexed by out-edge id.
  std::vector<double> contrib_;
  std::vector<double> pending_value_;  // per out-edge, parked value
  std::vector<std::uint8_t> pending_;
  std::vector<std::vector<EdgeId>> deferred_by_peer_;
  std::uint64_t total_pending_ = 0;

  std::vector<std::uint8_t> in_dirty_;
  std::vector<NodeId> dirty_;
  std::vector<NodeId> keep_dirty_;   // round scratch
  std::vector<Emission> emissions_;  // round scratch
  std::vector<std::uint32_t> defer_age_;

  std::vector<std::uint64_t> peer_msgs_this_pass_;

  bool audit_enabled_ = false;
  double audit_tolerance_ = 1e-9;
  std::vector<double> emitted_value_;  // last emitted, per out-edge
  std::vector<std::uint8_t> emitted_seen_;

  TrafficMeter meter_;
  std::vector<PassStats> history_;
  bool ran_ = false;
  obs::MetricsRegistry* metrics_ = nullptr;
};

}  // namespace dprank
