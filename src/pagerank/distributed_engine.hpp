#pragma once

// Distributed pagerank engine — the paper's core contribution (§2.3,
// Fig. 1), executed under the evaluation methodology of §4.2.
//
// Semantics:
//  * Every document starts at `initial_rank`. A document's rank is
//    R(v) = (1-d) + d * sum of the stored contributions of its in-links,
//    where a contribution is the freshest value R(u)/outdeg(u) the link
//    source has sent (chaotic iteration: each document recomputes from
//    whatever values have arrived, with no global synchronization).
//  * A pagerank update message for edge u->v is modelled as a write to a
//    per-edge contribution cell (u's out-edge slot), the array-backed
//    equivalent of the 24-byte GUID+rank message of §4.6.1.
//  * A pass (§4.2): all present peers concurrently recompute the
//    documents that received updates; documents whose relative change
//    exceeds epsilon send updates to their out-links. Messages sent in
//    pass t are visible in pass t+1 ("pagerank messages are sent and
//    received instantaneously and all peers start their next iteration
//    concurrently").
//  * Execution model: each pass is a compute phase (recompute dirty
//    documents, sharded by owning peer) followed by an exchange phase.
//    With PagerankOptions::threads > 1 both phases run on a reusable
//    worker pool (common/thread_pool.hpp). On clean and churn-only
//    configurations the exchange coalesces each source peer's emissions
//    into one batch per destination peer (§4.6.1's "collect together all
//    the pagerank messages") and applies batches sharded by destination;
//    configurations with a fault plan, tracer, replicas, overlay or mass
//    audit keep the sequential sender-major exchange (those paths consume
//    ordered RNG/cache/trace state). Every per-shard result is keyed by
//    peer and merged in peer order, so ranks, pass history, residual
//    series and traffic tables are bit-identical for every thread count.
//  * Same-peer updates are applied locally without network messages
//    (Fig. 1 step b); cross-peer updates are counted in the traffic
//    meter.
//  * Churn (§3.1, §4.3): documents on absent peers neither compute nor
//    receive. Updates addressed to an absent peer wait in the sender's
//    per-edge outbox (newest value wins) and are delivered on the first
//    pass the destination peer is present. Messages are counted once, at
//    delivery.
//  * Convergence: no document has a pending recompute and no update is
//    waiting in any outbox — the paper's "error in all the documents is
//    less than the error threshold" criterion. With a fault plan
//    attached, in-flight (delayed) messages, unacked retransmissions and
//    peers awaiting crash recovery also block convergence, and with the
//    mass audit enabled the final quiescent state must additionally pass
//    the rank-mass conservation check (leaks are repaired by
//    re-injection and the iteration continues).
//
// Fault model (extension; see fault/fault_plan.hpp): a FaultPlan attaches
// the full taxonomy — drop, duplication, bounded reordering, delivery
// delay, fail-stop peer crashes, and network partitions — driven one pass
// at a time. Crashes destroy sender outbox state and the peer's stored
// contributions (unlike graceful churn); on return the peer runs
// recovery: document ranks are restored from replicas
// (p2p/replication.hpp) where a live copy exists, and contributions are
// re-requested from live link sources otherwise. With
// FaultPlanConfig::acked_delivery, cross-peer sends carry sequence
// numbers and unacked messages retransmit with exponential backoff
// (net/reliable_channel.hpp); receivers reject stale reordered values and
// suppress duplicates. The MassAuditor (pagerank/mass_audit.hpp) tracks
// every emission and re-injects leaked contributions so the chaotic
// iteration still converges to the no-fault fixed point.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "common/arena.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "fault/fault_plan.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "graph/digraph.hpp"
#include "net/ip_cache.hpp"
#include "net/reliable_channel.hpp"
#include "net/traffic_meter.hpp"
#include "p2p/churn.hpp"
#include "p2p/membership.hpp"
#include "p2p/placement.hpp"
#include "p2p/replication.hpp"
#include "pagerank/engine.hpp"
#include "pagerank/mass_audit.hpp"
#include "pagerank/options.hpp"

namespace dprank {

/// DEPRECATED legacy fault vocabulary: UDP-style drop/duplication only.
/// Superseded by FaultPlan (fault/fault_plan.hpp), which composes drop,
/// duplication, reordering, delay, crashes and partitions under one seed;
/// inject_faults() remains as a thin compatibility shim that builds an
/// equivalent FaultPlan (bit-identical drop/duplicate history for the
/// same seed). New code should use attach_fault_plan().
struct FaultModel {
  double drop_probability = 0.0;       // message vanishes in transit
  double duplicate_probability = 0.0;  // message delivered twice
  std::uint64_t seed = 42;
};

class DistributedPagerank : public PagerankEngineInterface {
 public:
  /// The placement must cover exactly g.num_nodes() documents. The engine
  /// keeps references: graph and placement must outlive it (temporaries
  /// are rejected at compile time).
  DistributedPagerank(const Digraph& g, const Placement& placement,
                      const PagerankOptions& options);
  DistributedPagerank(Digraph&&, const Placement&, PagerankOptions) = delete;
  DistributedPagerank(const Digraph&, Placement&&, PagerankOptions) = delete;
  DistributedPagerank(Digraph&&, Placement&&, PagerankOptions) = delete;

  /// Meter overlay hop costs (§3.2): every cross-peer update consults
  /// `cache` over `ring` — an enabled cache models IP caching (first
  /// message routed, then direct), a disabled one models Freenet-style
  /// per-message routing. Both must outlive the engine. Call before
  /// run(); without this, every message is billed one hop.
  void attach_overlay(const ChordRing& ring, IpCache& cache);

  /// Deliver every update to each cached copy of the destination
  /// document as well (§2.3: "all copies of the document can contain
  /// the correct computed pagerank"). Replica addresses are pointers
  /// held at the source, so replica sends cost one hop. Replicas on
  /// absent peers are skipped and counted stale. Must outlive the
  /// engine; call before run(). With a fault plan attached, replicas
  /// additionally serve as the crash-recovery rank store.
  void attach_replicas(const ReplicaRegistry& replicas);

  /// Attach the unified fault plan (drop/duplicate/reorder/delay/crash/
  /// partition; see fault/fault_plan.hpp). The plan is driven one pass at
  /// a time and advances its own RNG streams — it must outlive the engine
  /// and must not be shared between engines. Call before run().
  void attach_fault_plan(FaultPlan& plan);

  /// Attach a dynamic-membership coordinator (p2p/membership.hpp): the
  /// peer population changes while the iteration runs. Each pass the
  /// engine pulls the coordinator's PassPlan and acts on it — crashed
  /// peers lose sender state and stored contributions, declared-dead
  /// peers trigger outbox eviction (dropped_dead) and channel give-up,
  /// leavers hand their in-flight sends to their ring heir, and every
  /// document handoff moves parked state to the new owner (join/leave)
  /// or reconstructs the range from replicas and live sources
  /// (kReconstruct). The coordinator must share this engine's Placement
  /// object and must outlive it; call before run(). Mutually exclusive
  /// with attach_overlay (a static converged ring), a ChurnSchedule
  /// (both own the presence mask) and fault-plan crashes (separate crash
  /// vocabularies — schedule crashes as membership events).
  void attach_membership(MembershipCoordinator& membership);

  /// Enable the rank-mass conservation audit: at every would-be
  /// convergence the engine audits the contribution ledger and, if the
  /// accounted mass ratio deviates from 1.0 beyond `tolerance`,
  /// re-injects exactly the leaked contributions and keeps iterating.
  /// Call before run().
  void enable_mass_audit(double tolerance = 1e-9) override;

  /// DEPRECATED: legacy drop/duplicate injection. Compatibility shim that
  /// attaches an internally-owned FaultPlan with the same probabilities
  /// and seed (replays the identical fault history as the original
  /// implementation). Use attach_fault_plan() for the full taxonomy.
  void inject_faults(const FaultModel& faults);

  /// Publish run telemetry into `registry` (obs/metrics.hpp) when run()
  /// finishes: the traffic ledger under net.*, run totals under
  /// pagerank.* counters, the per-pass residual series
  /// `pagerank.residual` (x = pass, y = max relative change — matching
  /// pass_history() entry for entry), recompute/crash timelines, and a
  /// histogram of per-pass message counts. Flush-at-end keeps the hot
  /// loop untouched; live per-send metrics come from the attached
  /// IpCache (IpCache::bind_metrics). The registry must outlive the
  /// engine. Call before run().
  void attach_metrics(obs::MetricsRegistry& registry) override;

  /// Attach a causal message tracer (obs/trace.hpp). Every cross-peer
  /// update mints a TraceId at send time; DHT routing hops, outbox
  /// parking, delivery delay, drops, retransmissions, crash losses and
  /// the final application all append events under that id, so the
  /// exported Chrome trace reconstructs any message's journey by id.
  /// `clock` advances simulated time once per pass (1 us per pass when
  /// omitted — ordering only). Tracer must outlive the engine; call
  /// before run().
  void attach_tracer(obs::Tracer& tracer, PassClock clock = nullptr) override;

  /// Run to convergence. `churn == nullptr` means all peers always
  /// present. Can be called once per engine instance.
  DistributedRunResult run(ChurnSchedule* churn = nullptr,
                           const PassObserver& observer = nullptr) override;

  /// The reference implementation: exact, churn-capable, traceable. The
  /// quality bound is the fifo mean relative error vs the centralized
  /// oracle at the default ε = 1e-3 on the conformance graph, with slack.
  [[nodiscard]] EngineTraits traits() const override {
    EngineTraits t;
    t.name = "distributed";
    t.supports_churn = true;
    t.exact = true;
    t.supports_tracer = true;
    t.quality_bound = 0.01;
    return t;
  }

  [[nodiscard]] const std::vector<double>& ranks() const override {
    return ranks_;
  }
  [[nodiscard]] const TrafficMeter& traffic() const override {
    return meter_;
  }
  [[nodiscard]] const std::vector<PassStats>& pass_history() const override {
    return history_;
  }
  [[nodiscard]] std::uint64_t outbox_peak() const { return outbox_peak_; }
  /// Bytes held by the engine's per-document / per-edge arrays (capacity,
  /// not size — what the allocator actually carries). Graph storage is
  /// reported separately by Digraph::memory_bytes(); both feed the mem.*
  /// gauges and the scale bench's bytes-per-edge figure.
  [[nodiscard]] std::uint64_t memory_bytes() const;
  [[nodiscard]] const PagerankOptions& options() const { return options_; }
  [[nodiscard]] std::uint64_t replica_messages() const {
    return replica_messages_;
  }
  [[nodiscard]] std::uint64_t replica_stale_skips() const {
    return replica_stale_;
  }
  [[nodiscard]] std::uint64_t dropped_messages() const { return dropped_; }
  [[nodiscard]] std::uint64_t duplicated_messages() const {
    return duplicated_;
  }

  // ---- Fault-plan observability (zero without an attached plan) ----
  [[nodiscard]] std::uint64_t crashes() const { return crashes_seen_; }
  [[nodiscard]] std::uint64_t recovered_docs() const {
    return recovered_docs_;
  }
  [[nodiscard]] std::uint64_t replica_restores() const {
    return replica_restores_;
  }
  [[nodiscard]] std::uint64_t recovery_messages() const {
    return recovery_messages_;
  }
  [[nodiscard]] std::uint64_t repair_messages() const {
    return repair_messages_;
  }
  [[nodiscard]] std::uint64_t partition_deferrals() const {
    return partition_deferrals_;
  }
  [[nodiscard]] std::uint64_t retransmissions() const {
    return channel_ ? channel_->retransmissions() : 0;
  }
  [[nodiscard]] std::uint64_t stale_rejected() const {
    return channel_ ? channel_->stale_rejected() : 0;
  }
  [[nodiscard]] std::uint64_t duplicates_suppressed() const {
    return channel_ ? channel_->duplicates_suppressed() : 0;
  }
  /// Records the channel retired through the `gave_up` terminal outcome
  /// (declared-dead destinations + exhausted retry budgets).
  [[nodiscard]] std::uint64_t gave_up() const {
    return channel_ ? channel_->gave_up() : 0;
  }

  // ---- Membership observability (zero without attach_membership) ----
  [[nodiscard]] std::uint64_t handoff_docs() const { return handoff_docs_; }
  [[nodiscard]] std::uint64_t stale_owner_queries() const {
    return stale_owner_queries_;
  }
  /// Parked updates evicted when their destination was declared dead
  /// (the engine-side analogue of Outbox::dropped_dead_count()).
  [[nodiscard]] std::uint64_t outbox_dropped_dead() const {
    return outbox_dropped_dead_;
  }
  /// Ledger view; nullptr until enable_mass_audit() (or an audit-enabled
  /// run) creates it.
  [[nodiscard]] const MassAuditor* mass_auditor() const {
    return auditor_.get();
  }
  /// The final quiescence audit (valid after run() with audit enabled).
  [[nodiscard]] const MassAuditReport& last_audit() const {
    return last_audit_;
  }

  /// Full engine invariant walk (contracts.hpp; subsystem "pagerank"),
  /// plus a cascade into the attached subsystems (graph, overlay ring,
  /// reliable channel). Checks, at a pass boundary:
  ///  * per-edge array sizing matches the graph;
  ///  * dirty-set integrity — in_dirty_[v] set exactly for the documents
  ///    queued in dirty_, no duplicates (the parallel merge precondition);
  ///  * outbox bookkeeping — pending flags, the per-destination deferred
  ///    lists and pending_count agree edge for edge, every parked edge is
  ///    filed under the peer owning its target, and the peak never
  ///    understates the live count;
  ///  * delay-buffer accounting (delayed_total_ vs buffered messages);
  ///  * rank-mass identity on fault-free runs — the MassAuditor ledger
  ///    balances exactly against the applied + parked values (§2.3's
  ///    fixed point; skipped under a fault plan, where transient leaks
  ///    are expected until audit_and_repair re-injects them).
  /// Driven every PagerankOptions::validate_every_n_passes passes by
  /// run(); callable directly after run() returns. Throws
  /// contracts::ContractViolation on the first violation; no-op when
  /// contracts are compiled out.
  void validate_state() const;

 private:
  friend struct TestCorruptor;  // negative invariant tests corrupt privates
  struct DelayedMsg {
    EdgeId edge = 0;
    PeerId src = 0;
    double value = 0.0;
    std::uint32_t seq = 0;
    obs::TraceId trace = obs::kNoTrace;
  };

  void deliver_deferred(const std::vector<bool>& presence,
                        PassStats& stats);
  void mark_dirty(NodeId v);
  void mark_dirty_now(NodeId v);
  /// Overlay hop bill for one update from peer `src` to the document
  /// `target_doc` held by `holder`; 1 when no overlay is attached.
  [[nodiscard]] std::uint64_t send_hops(PeerId src, PeerId holder,
                                        NodeId target_doc);
  /// Fan an update for document v out to its cached copies (§2.3).
  void send_to_replicas(PeerId src, NodeId v,
                        const std::vector<bool>& presence,
                        PassStats& stats);

  // ---- fault-plan machinery ----
  void prepare_fault_state();
  [[nodiscard]] bool reachable(PeerId a, PeerId b) const {
    return plan_ == nullptr || plan_->reachable(a, b);
  }
  /// Park the freshest value for `e` in the per-edge outbox (newest
  /// sequence number wins when acked delivery tracks them). `trace`
  /// continues the message's journey from the outbox when it drains.
  void park(EdgeId e, PeerId src, PeerId dest, double value,
            std::uint32_t seq, obs::TraceId trace, PassStats& stats);
  /// Apply a delivered value to the contribution cell (sequence-checked
  /// under acked delivery). `now` marks the target dirty for the current
  /// pass instead of the next.
  bool apply_update(EdgeId e, double value, std::uint32_t seq, bool now);
  void crash_peer(PeerId p, std::uint64_t pass);
  void recover_peer(PeerId p, const std::vector<bool>& presence,
                    PassStats& stats);
  /// Fail-stop wipe, sender side: every update `p` had parked for
  /// offline destinations and its in-flight retransmission records.
  void wipe_sender_state(PeerId p);
  /// Fail-stop wipe, receiver side: document v's stored contribution
  /// cells (values still parked at live senders survive).
  void wipe_receiver_cells(NodeId v);
  /// Mass-audit + trace the channel records that reached the `gave_up`
  /// terminal outcome since the last drain.
  void drain_gave_up();
  /// Act on one pass's membership plan (crashes, declared-dead
  /// evictions, leaver state transfer, document handoffs).
  void apply_membership(const MembershipCoordinator::PassPlan& mplan,
                        std::uint64_t pass, PassStats& stats);
  void deliver_delayed(std::uint64_t pass,
                       const std::vector<bool>& presence, PassStats& stats);
  void process_retries(std::uint64_t pass,
                       const std::vector<bool>& presence, PassStats& stats);
  /// Quiescence audit; returns true when mass is conserved (converged),
  /// false after re-injecting leaked contributions (keep iterating).
  bool audit_and_repair(const std::vector<bool>& presence,
                        PassStats& stats);
  /// The MassAuditor's view of the ledger: the contribution store
  /// permuted back to out-edge indexing (it is stored per in-CSR
  /// position), with parked outbox values overlaid.
  void build_effective(std::vector<double>& out) const;

  // ---- telemetry ----
  /// End the journey `t` (no-op for kNoTrace) with the applied/stale
  /// terminal event at the receiving peer.
  void trace_terminal(obs::TraceId t, bool applied, PeerId pv);
  /// Journey mint + send/DHT-hop events for one cross-peer emission;
  /// returns the id to thread through the message's fate.
  [[nodiscard]] obs::TraceId trace_send(EdgeId e, PeerId pu, PeerId pv,
                                        NodeId v, double value,
                                        std::uint64_t pass,
                                        std::uint64_t hops);
  /// Publish run totals, the residual series and timelines to metrics_.
  void flush_metrics(const DistributedRunResult& result);

  const Digraph& graph_;
  const Placement& placement_;
  PagerankOptions options_;

  const ChordRing* ring_ = nullptr;
  IpCache* ip_cache_ = nullptr;
  const ReplicaRegistry* replicas_ = nullptr;
  std::uint64_t replica_messages_ = 0;
  std::uint64_t replica_stale_ = 0;

  MembershipCoordinator* membership_ = nullptr;
  std::uint64_t handoff_docs_ = 0;
  std::uint64_t stale_owner_queries_ = 0;
  std::uint64_t outbox_dropped_dead_ = 0;

  FaultPlan* plan_ = nullptr;
  std::unique_ptr<FaultPlan> owned_plan_;  // inject_faults() shim
  std::unique_ptr<ReliableChannel> channel_;
  std::unique_ptr<MassAuditor> auditor_;
  bool audit_enabled_ = false;
  double audit_tolerance_ = 1e-9;
  static constexpr double kAuditSlack = 1e-12;
  MassAuditReport last_audit_;
  std::uint64_t dropped_ = 0;
  std::uint64_t duplicated_ = 0;
  std::uint64_t crashes_seen_ = 0;
  std::uint64_t recovered_docs_ = 0;
  std::uint64_t replica_restores_ = 0;
  std::uint64_t recovery_messages_ = 0;
  std::uint64_t repair_messages_ = 0;
  std::uint64_t repair_rounds_ = 0;
  std::uint64_t partition_deferrals_ = 0;

  // Crash bookkeeping (sized on first use).
  std::vector<std::uint64_t> crashed_until_;  // peer offline through pass-1
  std::vector<std::uint8_t> needs_recovery_;  // uint8_t: see pending_
  std::vector<std::vector<NodeId>> docs_by_peer_;
  std::vector<NodeId> edge_src_;        // edge id -> source document
  // Replica rank store (crash-recovery path); never folded by the
  // gather kernel. dprank-lint: allow(unaligned-hot-buffer)
  std::vector<double> replica_value_;   // last rank a live replica holds
  // Churn presence minus crashed peers. vector<bool> is safe here:
  // written only by the coordinator between parallel regions, and read
  // through const access inside them. dprank-lint: allow(vector-bool)
  std::vector<bool> presence_eff_;
  // Mass-audit workspace (cold validation path, never gathered).
  // dprank-lint: allow(unaligned-hot-buffer)
  std::vector<double> effective_scratch_;  // audit workspace

  // Delivery-delay buffer: pass -> messages arriving at its start. A
  // node-based ordered map is right here: the fault path is cold, only
  // the earliest due passes are visited, and delivery order must follow
  // due-pass order. dprank-lint: allow(hot-path-map)
  std::map<std::uint64_t, std::vector<DelayedMsg>> delayed_;
  std::uint64_t delayed_total_ = 0;

  // The interface returns const std::vector<double>&, so ranks_ keeps the
  // default allocator. dprank-lint: allow(unaligned-hot-buffer)
  std::vector<double> ranks_;
  // Delivered contribution cells, indexed by in-CSR *position* (see
  // Digraph::in_edge_begin): a document's cells are contiguous, so the
  // recompute — the engine's hottest loop — streams them sequentially.
  // Everything keyed by message identity (outbox, sequence numbers,
  // audit ledger) stays on out-edge ids; writes translate through
  // Digraph::out_to_in_edge. 64-byte aligned: the recompute fold
  // sweeps this array.
  AlignedVec<double> contrib_;
  // Outbox parking values: scalar random writes only, the fold kernel
  // never streams them. dprank-lint: allow(unaligned-hot-buffer)
  std::vector<double> pending_value_;  // per out-edge, undelivered value
  // Per out-edge outbox flag. uint8_t, not vector<bool>: parallel workers
  // set flags for distinct edges concurrently, which must not share words.
  std::vector<std::uint8_t> pending_;
  std::vector<std::uint32_t> pending_seq_;  // parked seq (acked mode only)
  // (edge, sender peer) pairs parked for an absent destination peer
  std::vector<std::vector<std::pair<EdgeId, PeerId>>> deferred_by_peer_;
  std::uint64_t total_pending_ = 0;
  std::uint64_t outbox_peak_ = 0;

  std::vector<std::uint8_t> in_dirty_;  // uint8_t: see pending_
  std::vector<NodeId> dirty_;       // docs to recompute this pass
  std::vector<NodeId> next_dirty_;  // docs to recompute next pass

  std::vector<std::uint64_t> peer_msgs_this_pass_;

  // ---- pass-parallel execution (see the header comment) ----
  // Per-source-peer shard results. Everything is keyed by peer and merged
  // in sorted-peer order on the coordinating thread, never by worker
  // slot, so output is independent of the scheduler.
  struct PeerScratch {
    std::uint64_t docs_recomputed = 0;
    double max_rel = 0.0;
    std::uint64_t deferred_calls = 0;    // park() equivalents this pass
    std::uint64_t deferred_docs = 0;     // residual schedule: tail pushed
    std::vector<NodeId> senders;         // epsilon-exceeding, dirty order
    // Residual schedule: documents this peer kept dirty instead of
    // processing — the deferred low-residual tail, plus documents whose
    // change cleared epsilon but not the adaptive threshold.
    std::vector<NodeId> kept_dirty;
    // Batched exchange: emission targets grouped per destination peer.
    // buckets[i] covers targets[begin, end) for destination dst (sorted
    // by dst; the dst == source bucket holds the Fig. 1b local updates).
    struct Bucket {
      PeerId dst = 0;
      std::size_t begin = 0;
      std::size_t end = 0;
    };
    std::vector<NodeId> targets;
    // Residual schedule: |Δcontribution| per entry of targets, folded
    // into residual_ by the destination shard (deterministic order).
    // Residual-mode only; residual runs never take the fused gather
    // path. dprank-lint: allow(unaligned-hot-buffer)
    std::vector<double> target_deltas;
    std::vector<Bucket> buckets;
    std::vector<std::pair<PeerId, EdgeId>> parked;  // newly parked edges
  };
  // Per-participant workspace for bucketing emissions by destination
  // (indexed by pool slot, reused across passes).
  struct SlotScratch {
    std::vector<std::vector<NodeId>> bucket;  // per destination peer
    std::vector<std::vector<double>> bucket_delta;  // residual mode only
    std::vector<PeerId> touched;
  };
  struct DstSlice {  // one source peer's targets aimed at a destination
    PeerId src = 0;
    std::size_t begin = 0;
    std::size_t end = 0;
  };

  void prepare_parallel_state();
  /// Bucket dirty_ by owning peer into peer_dirty_ / active_peers_
  /// (sorted) and reset the active peers' scratch.
  void bucket_dirty();
  /// Invoke fn(shard) for every shard in [0, shards) — on the pool when
  /// one exists, as a plain inlined loop otherwise (the template keeps
  /// the sequential path free of std::function dispatch). fn also
  /// receives the participant slot for SlotScratch indexing.
  template <typename Fn>
  void parallel_region(std::size_t shards, Fn&& fn);
  /// Phase 1 for one peer's dirty bucket: recompute, collect senders.
  /// Under Schedule::kResidual the bucket is first ordered by accumulated
  /// residual (descending) and its low-residual tail may be deferred into
  /// kept_dirty instead of processed.
  void compute_peer(PeerId p, const std::vector<bool>& presence,
                    bool track_replica_values);
  /// Batched fast-path exchange (clean/churn configs only): emit per
  /// source peer into per-destination buckets, bill coalesced or
  /// per-update traffic, apply and mark sharded by destination peer.
  void exchange_batched(const std::vector<bool>& presence, PassStats& stats,
                        obs::Histogram* batch_hist);
  /// Single-threaded fifo fast path, compute half: replaces
  /// bucket_dirty + compute_peer + merge. The dirty set is grouped
  /// peer-major into flat preallocated arrays (counting sort — no
  /// per-peer vectors, no pass-0 allocation storm) and each segment is
  /// folded by the scalar kernel (common/simd.hpp). Ranks, counters and
  /// dirty-set membership are bit-identical to the sharded path — the
  /// golden-digest tests pin this; only the order of next_dirty_
  /// differs, which no observable state depends on.
  void compute_sequential(const std::vector<bool>& presence,
                          bool all_present, PassStats& stats);
  /// Exchange half of the fast path: delivery is one cell write at the
  /// emission site plus a per-destination tally (at 500 peers the median
  /// batch is one update, so materialized buckets cost more than the
  /// updates). Each source peer's destinations are billed in first-touch
  /// order, unsorted: every consumer of the tally is a commutative sum.
  /// kAllPresent elides the per-edge presence test on churn-free runs.
  template <bool kAllPresent>
  void exchange_sequential(const std::vector<bool>& presence,
                           PassStats& stats, obs::Histogram* batch_hist);
  /// Ordered sender-major exchange (fault plan, tracer, replicas,
  /// overlay, membership or audit attached): peers ascending, each
  /// peer's senders in recompute order, so fault fates, cache warms and
  /// trace events observe one canonical emission order.
  void exchange_ordered(const std::vector<bool>& presence, PassStats& stats,
                        std::uint64_t pass);

  std::unique_ptr<ThreadPool> pool_;   // only when options_.threads > 1
  bool batched_exchange_ = false;
  std::vector<std::vector<NodeId>> peer_dirty_;
  std::vector<PeerId> active_peers_;   // peers owning dirty docs, sorted
  std::vector<PeerScratch> peer_scratch_;
  std::vector<SlotScratch> slot_scratch_;
  std::vector<std::vector<DstSlice>> dst_incoming_;
  std::vector<std::vector<NodeId>> dst_marked_;
  std::vector<PeerId> active_dsts_;    // destinations this pass, sorted
  // ---- single-threaded fifo fast-path scratch ----
  bool seq_fast_ = false;
  AlignedVec<NodeId> seq_docs_;     // dirty docs, grouped peer-major
  AlignedVec<double> seq_acc_;      // per-doc cell sums from the fold
  AlignedVec<NodeId> seq_senders_;  // epsilon-exceeding docs, peer-major
  std::vector<std::uint32_t> seq_count_;    // per peer: docs this pass
  std::vector<std::uint64_t> seq_seg_end_;  // per peer: scatter cursor,
                                            // then one past the segment
  // Per active peer: its sender segment [pos[i], pos[i+1]) in seq_senders_.
  std::vector<std::uint64_t> seq_sender_pos_;
  // exchange_sequential scratch: per-destination update counts, reset
  // through touched_dsts_ after each source peer instead of cleared.
  // touched_dsts_ holds num_peers + 1 entries: the branch-free tally
  // stores every destination at the cursor, so once a source has
  // touched all num_peers peers its next store lands one past them.
  std::vector<std::uint32_t> dst_count32_;
  std::vector<PeerId> touched_dsts_;

  // ---- residual scheduler state (Schedule::kResidual only) ----
  bool residual_mode_ = false;
  double eff_epsilon_ = 0.0;   // this pass's emission threshold
  double prev_max_rel_ = 0.0;  // last pass's max relative change
  // Accumulated |Δcontribution| since the document's last recompute;
  // +inf until first recomputed, so pass 0 processes everything.
  // Residual scheduler state; residual runs never take the fused
  // gather path. dprank-lint: allow(unaligned-hot-buffer)
  std::vector<double> residual_;
  // Rank value behind the document's last emission: the emission gate
  // compares against what the out-links actually hold, not last pass's
  // rank, so coalesced (deferred) updates are never silently dropped.
  // Residual-mode emission gate, off the fused gather path.
  // dprank-lint: allow(unaligned-hot-buffer)
  std::vector<double> last_sent_;
  std::vector<std::uint8_t> defer_age_;  // consecutive deferrals

  TrafficMeter meter_;
  std::vector<PassStats> history_;
  bool ran_ = false;

  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  PassClock pass_clock_;
  std::vector<obs::TraceId> pending_trace_;  // parked journey per edge
};

}  // namespace dprank
