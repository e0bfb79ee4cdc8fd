#include "pagerank/distributed_engine.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "common/contracts.hpp"
#include "common/guid.hpp"
#include "common/simd.hpp"
#include "net/message.hpp"
#include "obs/mem_probe.hpp"

namespace dprank {

DistributedPagerank::DistributedPagerank(const Digraph& g,
                                         const Placement& placement,
                                         const PagerankOptions& options)
    : graph_(g), placement_(placement), options_(options) {
  if (placement.num_docs() != g.num_nodes()) {
    throw std::invalid_argument(
        "DistributedPagerank: placement does not cover the graph");
  }
  const NodeId n = g.num_nodes();
  ranks_.assign(n, options_.initial_rank);
  // "Available pagerank for in-links from the previous iteration" at
  // pass 0 is the initial value: contribution of edge u->v starts at
  // initial_rank / outdeg(u). Cells live at in-CSR positions (see the
  // header): iterate per destination, reading each source's out-degree.
  contrib_.resize(g.num_edges());
  // One division per *source document* (identical to dividing per edge —
  // same operands, same rounding), then a scatter: n divisions instead of
  // m for the million-doc constructor.
  std::vector<double> init_contrib(n);
  for (NodeId u = 0; u < n; ++u) {
    const std::uint32_t deg = g.out_degree(u);
    init_contrib[u] =
        deg == 0 ? 0.0 : options_.initial_rank / static_cast<double>(deg);
  }
  for (NodeId v = 0; v < n; ++v) {
    const auto sources = g.in_neighbors(v);
    const EdgeId base = g.in_edge_begin(v);
    for (std::size_t i = 0; i < sources.size(); ++i) {
      contrib_[base + i] = init_contrib[sources[i]];
    }
  }
  pending_value_.assign(g.num_edges(), 0.0);
  pending_.assign(g.num_edges(), false);
  deferred_by_peer_.resize(placement.num_peers());
  in_dirty_.assign(n, true);
  dirty_.resize(n);
  for (NodeId v = 0; v < n; ++v) dirty_[v] = v;  // first pass: everyone
  next_dirty_.reserve(n);
  peer_msgs_this_pass_.assign(placement.num_peers(), 0);
  residual_mode_ = options_.schedule == Schedule::kResidual;
  if (residual_mode_) {
    residual_.assign(n, std::numeric_limits<double>::infinity());
    last_sent_.assign(n, options_.initial_rank);
    defer_age_.assign(n, 0);
  }
}

void DistributedPagerank::attach_overlay(const ChordRing& ring,
                                         IpCache& cache) {
  if (ran_) throw std::logic_error("attach_overlay after run");
  if (membership_ != nullptr) {
    throw std::logic_error(
        "attach_overlay: dynamic membership is attached; the static "
        "converged ring and the self-healing ring are mutually exclusive");
  }
  if (ring.size() != placement_.num_peers()) {
    throw std::invalid_argument(
        "attach_overlay: ring size does not match placement peers");
  }
  ring_ = &ring;
  ip_cache_ = &cache;
}

void DistributedPagerank::attach_replicas(const ReplicaRegistry& replicas) {
  if (ran_) throw std::logic_error("attach_replicas after run");
  if (replicas.num_docs() != placement_.num_docs()) {
    throw std::invalid_argument(
        "attach_replicas: registry does not cover the documents");
  }
  replicas_ = &replicas;
}

void DistributedPagerank::attach_fault_plan(FaultPlan& plan) {
  if (ran_) throw std::logic_error("attach_fault_plan after run");
  if (plan_ != nullptr) {
    throw std::logic_error(
        "attach_fault_plan: a fault plan (or inject_faults shim) is "
        "already attached");
  }
  plan_ = &plan;
}

void DistributedPagerank::attach_membership(
    MembershipCoordinator& membership) {
  if (ran_) throw std::logic_error("attach_membership after run");
  if (ring_ != nullptr) {
    throw std::logic_error(
        "attach_membership: attach_overlay models a fixed converged ring; "
        "dynamic membership owns its own self-healing ring");
  }
  if (&membership.placement() != &placement_) {
    throw std::invalid_argument(
        "attach_membership: the coordinator must share this engine's "
        "Placement object (handoffs mutate it in place)");
  }
  membership_ = &membership;
}

void DistributedPagerank::enable_mass_audit(double tolerance) {
  if (ran_) throw std::logic_error("enable_mass_audit after run");
  if (tolerance < 0.0) {
    throw std::invalid_argument("enable_mass_audit: negative tolerance");
  }
  audit_enabled_ = true;
  audit_tolerance_ = tolerance;
}

void DistributedPagerank::inject_faults(const FaultModel& faults) {
  if (ran_) throw std::logic_error("inject_faults after run");
  if (plan_ != nullptr) {
    throw std::logic_error("inject_faults: a fault plan is already attached");
  }
  if (faults.drop_probability < 0.0 || faults.drop_probability >= 1.0 ||
      faults.duplicate_probability < 0.0 ||
      faults.duplicate_probability > 1.0) {
    throw std::invalid_argument("inject_faults: probabilities out of range");
  }
  FaultPlanConfig config;
  config.drop_probability = faults.drop_probability;
  config.duplicate_probability = faults.duplicate_probability;
  config.seed = faults.seed;
  owned_plan_ = std::make_unique<FaultPlan>(config);
  plan_ = owned_plan_.get();
}

void DistributedPagerank::attach_metrics(obs::MetricsRegistry& registry) {
  if (ran_) throw std::logic_error("attach_metrics after run");
  metrics_ = &registry;
}

void DistributedPagerank::attach_tracer(obs::Tracer& tracer,
                                        PassClock clock) {
  if (ran_) throw std::logic_error("attach_tracer after run");
  tracer_ = &tracer;
  pass_clock_ = std::move(clock);
  pending_trace_.assign(graph_.num_edges(), obs::kNoTrace);
}

void DistributedPagerank::trace_terminal(obs::TraceId t, bool applied,
                                         PeerId pv) {
  if (t == obs::kNoTrace) return;
  tracer_->async_end(t, applied ? "update.apply" : "update.stale",
                     "pagerank", pv, {});
}

obs::TraceId DistributedPagerank::trace_send(EdgeId e, PeerId pu, PeerId pv,
                                             NodeId v, double value,
                                             std::uint64_t pass,
                                             std::uint64_t hops) {
  const obs::TraceId tid = tracer_->begin_trace();
  if (tid == obs::kNoTrace) return tid;  // unsampled journey
  tracer_->async_begin(tid, "update.send", "pagerank", pu,
                       {{"edge", static_cast<double>(e)},
                        {"pass", static_cast<double>(pass)},
                        {"value", value}});
  if (hops > 1 && ring_ != nullptr) {
    // Hop-by-hop overlay story: send_hops() already billed the route and
    // updated the cache; route() is read-only, so re-deriving the path
    // changes nothing the simulation can observe.
    const auto route = ring_->route(pu, document_guid(v));
    for (const PeerId hop : route.hops) {
      tracer_->async_step(tid, "dht.hop", "dht", hop, {});
    }
    if (route.destination != pv) {
      tracer_->async_step(tid, "dht.hop", "dht", pv, {});
    }
  }
  return tid;
}

std::uint64_t DistributedPagerank::send_hops(PeerId src, PeerId holder,
                                             NodeId target_doc) {
  if (ring_ == nullptr) return 1;
  return std::max<std::uint64_t>(
      1, ip_cache_->send_hops_to_peer(src, holder, document_guid(target_doc),
                                      *ring_));
}

void DistributedPagerank::mark_dirty(NodeId v) {
  if (!in_dirty_[v]) {
    in_dirty_[v] = true;
    next_dirty_.push_back(v);
  }
}

void DistributedPagerank::mark_dirty_now(NodeId v) {
  if (!in_dirty_[v]) {
    in_dirty_[v] = true;
    dirty_.push_back(v);
  }
}

void DistributedPagerank::send_to_replicas(PeerId src, NodeId v,
                                           const std::vector<bool>& presence,
                                           PassStats& stats) {
  for (const PeerId rp : replicas_->replicas_of(v)) {
    if (rp == src) {
      meter_.record_local_update();
      ++stats.local_updates;
    } else if (presence[rp]) {
      // Replica addresses are pointers held at the source (§2.3):
      // replica sends are always direct.
      meter_.record_message(PagerankUpdate::kWireBytes);
      ++replica_messages_;
      ++stats.messages_sent;
    } else {
      ++replica_stale_;
    }
  }
}

void DistributedPagerank::park(EdgeId e, PeerId src, PeerId dest,
                               double value, std::uint32_t seq,
                               obs::TraceId trace, PassStats& stats) {
  if (channel_ != nullptr) {
    if (pending_[e] && pending_seq_[e] > seq) {
      // A fresher emission is already parked for this edge.
      ++stats.messages_deferred;
      if (trace != obs::kNoTrace) {
        tracer_->async_end(trace, "update.superseded", "net", dest, {});
      }
      return;
    }
    pending_seq_[e] = seq;
  }
  pending_value_[e] = value;
  if (!pending_[e]) {
    pending_[e] = true;
    deferred_by_peer_[dest].emplace_back(e, src);
    ++total_pending_;
    outbox_peak_ = std::max(outbox_peak_, total_pending_);
  }
  if (tracer_ != nullptr) {
    obs::TraceId& slot = pending_trace_[e];
    if (slot != obs::kNoTrace && slot != trace) {
      // Newest value wins the outbox slot; the overwritten journey ends.
      tracer_->async_end(slot, "update.superseded", "net", dest, {});
    }
    slot = trace;
    if (trace != obs::kNoTrace) {
      tracer_->async_step(trace, "outbox.park", "net", dest,
                          {{"edge", static_cast<double>(e)}});
    }
  }
  ++stats.messages_deferred;
}

bool DistributedPagerank::apply_update(EdgeId e, double value,
                                       std::uint32_t seq, bool now) {
  if (channel_ != nullptr && !channel_->accept(e, seq)) {
    return false;  // stale reordered value or duplicate: rejected
  }
  const EdgeId cell = graph_.out_to_in_edge(e);
  const NodeId v = graph_.out_target(e);
  if (residual_mode_) residual_[v] += std::abs(value - contrib_[cell]);
  contrib_[cell] = value;
  if (now) {
    mark_dirty_now(v);
  } else {
    mark_dirty(v);
  }
  if (channel_ != nullptr) channel_->ack(e, seq);
  return true;
}

void DistributedPagerank::prepare_fault_state() {
  const NodeId n = graph_.num_nodes();
  if (plan_ != nullptr) {
    const PeerId num_peers = placement_.num_peers();
    crashed_until_.assign(num_peers, 0);
    needs_recovery_.assign(num_peers, false);
    docs_by_peer_.assign(num_peers, {});
    for (NodeId v = 0; v < n; ++v) {
      docs_by_peer_[placement_.peer_of(v)].push_back(v);
    }
    if (plan_->config().acked_delivery) {
      channel_ = std::make_unique<ReliableChannel>(ReliableChannel::Config{
          plan_->config().ack_timeout_passes,
          plan_->config().retry_backoff_cap,
          plan_->config().retry_max_attempts});
      pending_seq_.assign(graph_.num_edges(), 0);
    }
  }
  if ((plan_ != nullptr || membership_ != nullptr) && replicas_ != nullptr &&
      !replicas_->empty()) {
    // Replicas double as the rank store crash recovery (fault plan) and
    // crash-range reconstruction (membership) restore from.
    replica_value_.assign(n, options_.initial_rank);
  }
  // Periodic validation re-uses the mass ledger for the fault-free
  // conservation identity — only worth feeding when contracts are
  // compiled in (validate_state() is a no-op otherwise).
  const bool audit_for_validation =
      options_.validate_every_n_passes != 0 && contracts::enabled();
  if (plan_ != nullptr || membership_ != nullptr || audit_enabled_ ||
      audit_for_validation) {
    auditor_ =
        std::make_unique<MassAuditor>(graph_, options_.initial_rank);
  }
  // The audit's repair pass and the membership handoffs both need to map
  // an out-edge back to its source document.
  if (audit_enabled_ || membership_ != nullptr) {
    edge_src_.resize(graph_.num_edges());
    for (NodeId u = 0; u < n; ++u) {
      for (EdgeId e = graph_.out_edge_begin(u); e < graph_.out_edge_end(u);
           ++e) {
        edge_src_[e] = u;
      }
    }
  }
}

void DistributedPagerank::crash_peer(PeerId p, std::uint64_t pass) {
  ++crashes_seen_;
  const std::uint32_t downtime =
      std::max<std::uint32_t>(1, plan_->config().crash_downtime_passes);
  crashed_until_[p] = pass + downtime;
  needs_recovery_[p] = true;
  if (tracer_ != nullptr) {
    tracer_->instant("peer.crash", "fault", p,
                     {{"pass", static_cast<double>(pass)},
                      {"downtime", static_cast<double>(downtime)}});
  }

  wipe_sender_state(p);
  // Receiver-side state lost: p's stored contributions (the cells feeding
  // its documents). Values still parked at live senders survive.
  for (const NodeId v : docs_by_peer_[p]) wipe_receiver_cells(v);
}

void DistributedPagerank::wipe_sender_state(PeerId p) {
  // Sender-side state lost: every update p had parked for offline
  // destinations vanishes with it.
  for (PeerId q = 0; q < deferred_by_peer_.size(); ++q) {
    auto& entries = deferred_by_peer_[q];
    std::size_t kept = 0;
    for (std::size_t i = 0; i < entries.size(); ++i) {
      if (entries[i].second == p) {
        const EdgeId e = entries[i].first;
        pending_[e] = false;
        --total_pending_;
        if (auditor_ != nullptr) auditor_->on_known_loss(pending_value_[e]);
        if (tracer_ != nullptr && pending_trace_[e] != obs::kNoTrace) {
          tracer_->async_end(pending_trace_[e], "crash.loss", "fault", p,
                             {});
          pending_trace_[e] = obs::kNoTrace;
        }
      } else {
        entries[kept++] = entries[i];
      }
    }
    entries.resize(kept);
  }
  // In-flight retransmission records from p are lost too (delayed
  // messages already on the wire survive — they are in the network, not
  // in p's memory).
  if (channel_ != nullptr) {
    for (const auto& lost : channel_->forget_sender(p)) {
      if (auditor_ != nullptr) auditor_->on_known_loss(lost.value);
      if (tracer_ != nullptr && lost.trace != obs::kNoTrace) {
        tracer_->async_end(lost.trace, "crash.loss", "fault", p, {});
      }
    }
  }
}

void DistributedPagerank::wipe_receiver_cells(NodeId v) {
  const auto slots = graph_.in_to_out_edge(v);
  const EdgeId base = graph_.in_edge_begin(v);
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (!pending_[slots[i]] && auditor_ != nullptr) {
      auditor_->on_known_loss(contrib_[base + i]);
    }
    contrib_[base + i] = 0.0;
  }
}

void DistributedPagerank::recover_peer(PeerId p,
                                       const std::vector<bool>& presence,
                                       PassStats& stats) {
  needs_recovery_[p] = false;
  if (tracer_ != nullptr) tracer_->instant("peer.recover", "fault", p, {});
  // Step 1: restore document ranks — from a live replica copy where one
  // exists (one fetch message per document), from the initial value
  // otherwise.
  for (const NodeId v : docs_by_peer_[p]) {
    bool restored = false;
    if (!replica_value_.empty()) {
      for (const PeerId rp : replicas_->replicas_of(v)) {
        if (presence[rp] && reachable(rp, p)) {
          ranks_[v] = replica_value_[v];
          meter_.record_message(PagerankUpdate::kWireBytes);
          ++replica_restores_;
          ++recovery_messages_;
          restored = true;
          break;
        }
      }
    }
    if (!restored) ranks_[v] = options_.initial_rank;
    ++recovered_docs_;
    ++stats.recovered_docs;
  }
  // Step 2: rebuild the contribution store by re-requesting each in-link
  // source's current contribution. Ranks were all restored above, so
  // same-peer sources are consistent regardless of document order.
  for (const NodeId v : docs_by_peer_[p]) {
    const auto sources = graph_.in_neighbors(v);
    const auto slots = graph_.in_to_out_edge(v);
    for (std::size_t i = 0; i < sources.size(); ++i) {
      const NodeId u = sources[i];
      const EdgeId e = slots[i];
      const PeerId pu = placement_.peer_of(u);
      if (pu != p && pending_[e]) {
        // The sender holds a parked (fresher) value for this edge; the
        // outbox drain later this pass delivers it.
        continue;
      }
      if (pu != p && (!presence[pu] || !reachable(pu, p))) {
        // Source unreachable: the cell stays empty until the source's
        // next emission, its outbox, or the mass audit repairs it.
        continue;
      }
      const double c =
          ranks_[u] / static_cast<double>(graph_.out_degree(u));
      contrib_[graph_.in_edge_begin(v) + i] = c;
      if (auditor_ != nullptr) auditor_->on_emit(e, c);
      if (channel_ != nullptr) {
        const std::uint32_t seq = channel_->next_seq(e);
        (void)channel_->accept(e, seq);
        channel_->ack(e, seq);
      }
      if (pu == p) {
        meter_.record_local_update();
        ++stats.local_updates;
      } else {
        // One pull: the re-request out, the contribution back.
        meter_.record_resend(PagerankUpdate::kWireBytes);
        meter_.record_message(PagerankUpdate::kWireBytes,
                              send_hops(pu, p, v));
        ++recovery_messages_;
      }
    }
    // A rebuilt document must recompute promptly whatever its residual
    // history says: its cells were just rewritten wholesale.
    if (residual_mode_) {
      residual_[v] = std::numeric_limits<double>::infinity();
    }
    mark_dirty_now(v);
  }
}

void DistributedPagerank::drain_gave_up() {
  if (channel_ == nullptr) return;
  for (const auto& g : channel_->take_gave_up()) {
    if (auditor_ != nullptr) auditor_->on_known_loss(g.value);
    if (tracer_ != nullptr && g.trace != obs::kNoTrace) {
      tracer_->async_end(g.trace, "net.gave_up", "net",
                         static_cast<PeerId>(g.dest), {});
    }
  }
}

void DistributedPagerank::apply_membership(
    const MembershipCoordinator::PassPlan& mplan, std::uint64_t pass,
    PassStats& stats) {
  const std::vector<bool>& presence = membership_->presence();

  // 1. Fail-stop crashes: the peer's sender-side outbox state,
  //    retransmission records and stored contribution cells vanish.
  //    Ownership of its documents stays frozen on the dead id until the
  //    detector's verdict (the coordinator holds the range back), so
  //    parked updates addressed to it stay correctly filed meanwhile.
  for (const PeerId p : mplan.crashes) {
    ++crashes_seen_;
    ++stats.crashes;
    if (tracer_ != nullptr) {
      tracer_->instant("peer.crash", "fault", p,
                       {{"pass", static_cast<double>(pass)}});
    }
    wipe_sender_state(p);
    for (NodeId v = 0; v < graph_.num_nodes(); ++v) {
      if (placement_.peer_of(v) == p) wipe_receiver_cells(v);
    }
  }

  // 2. Graceful leavers: in-flight sender responsibility moves to the
  //    ring heir along with the documents (§3.1 "notify before
  //    departing", extended to permanent departure). Parked entries are
  //    re-labelled to the peer now owning each edge's source.
  for (const auto& [leaver, heir] : mplan.leaves) {
    for (auto& entries : deferred_by_peer_) {
      for (auto& [e, src] : entries) {
        if (src == leaver) src = placement_.peer_of(edge_src_[e]);
      }
    }
    if (channel_ != nullptr) channel_->reassign_sender(leaver, heir);
  }

  // 3. Declared dead: the net layer stops waiting. Parked updates
  //    addressed to the dead peer are evicted (the Outbox dropped_dead
  //    exit) and the channel abandons retransmission (gave_up) — both
  //    losses are audited so the quiescence repair re-injects the mass.
  for (const PeerId d : mplan.declared_dead) {
    auto& entries = deferred_by_peer_[d];
    for (const auto& [e, src] : entries) {
      pending_[e] = false;
      --total_pending_;
      ++outbox_dropped_dead_;
      if (auditor_ != nullptr) auditor_->on_known_loss(pending_value_[e]);
      if (tracer_ != nullptr && pending_trace_[e] != obs::kNoTrace) {
        tracer_->async_end(pending_trace_[e], "outbox.dropped_dead", "net",
                           d, {});
        pending_trace_[e] = obs::kNoTrace;
      }
    }
    entries.clear();
    if (channel_ != nullptr) (void)channel_->give_up_on_dest(d);
  }
  drain_gave_up();

  // 4. Handoffs. Phase A restores every reconstructed document's rank
  //    first (from a live replica copy where one exists), so phase B's
  //    cell rebuild reads consistent source ranks whatever the order of
  //    documents inside the moved range — recover_peer's two-phase
  //    shape.
  stats.handoff_docs += mplan.handoffs.size();
  handoff_docs_ += mplan.handoffs.size();
  using Reason = MembershipCoordinator::Handoff::Reason;
  for (const auto& h : mplan.handoffs) {
    if (h.reason != Reason::kReconstruct) {
      // Live-to-live transfer: the new owner pulls (join) or the leaver
      // pushes (leave) the document's rank and its stored contribution
      // cells in one bulk message; the values themselves are already
      // correct, so only traffic and dirty bookkeeping change.
      const std::size_t cells = graph_.in_neighbors(h.doc).size();
      meter_.record_batch(1 + cells, options_.batch_payload_bytes,
                          options_.batch_header_bytes);
      continue;
    }
    bool restored = false;
    if (!replica_value_.empty()) {
      for (const PeerId rp : replicas_->replicas_of(h.doc)) {
        if (presence[rp] && reachable(rp, h.to)) {
          ranks_[h.doc] = replica_value_[h.doc];
          meter_.record_message(PagerankUpdate::kWireBytes);
          ++replica_restores_;
          ++recovery_messages_;
          restored = true;
          break;
        }
      }
    }
    if (!restored) ranks_[h.doc] = options_.initial_rank;
    ++recovered_docs_;
    ++stats.recovered_docs;
  }
  for (const auto& h : mplan.handoffs) {
    if (h.reason != Reason::kReconstruct) continue;
    const NodeId v = h.doc;
    const PeerId owner = h.to;
    const auto sources = graph_.in_neighbors(v);
    const auto slots = graph_.in_to_out_edge(v);
    for (std::size_t i = 0; i < sources.size(); ++i) {
      const NodeId u = sources[i];
      const EdgeId e = slots[i];
      const PeerId pu = placement_.peer_of(u);
      if (pu != owner && pending_[e]) {
        // A fresher value waits in the sender's outbox; the drain later
        // this pass delivers it (re-filed to the new owner below).
        continue;
      }
      if (pu != owner && (!presence[pu] || !reachable(pu, owner))) {
        // Source unreachable: the cell stays empty until the source's
        // next emission or the quiescence mass repair.
        continue;
      }
      const double c = ranks_[u] / static_cast<double>(graph_.out_degree(u));
      contrib_[graph_.in_edge_begin(v) + i] = c;
      if (auditor_ != nullptr) auditor_->on_emit(e, c);
      if (channel_ != nullptr) {
        const std::uint32_t seq = channel_->next_seq(e);
        (void)channel_->accept(e, seq);
        channel_->ack(e, seq);
      }
      if (pu == owner) {
        meter_.record_local_update();
        ++stats.local_updates;
      } else {
        // One pull: the re-request out, the contribution back.
        meter_.record_resend(PagerankUpdate::kWireBytes);
        meter_.record_message(PagerankUpdate::kWireBytes);
        ++recovery_messages_;
      }
    }
    if (residual_mode_) {
      residual_[v] = std::numeric_limits<double>::infinity();
    }
    mark_dirty_now(v);
  }

  // 5. Re-file parked entries whose target changed owner: the outbox
  //    files every parked edge under the peer owning its target
  //    (validate_state's invariant), and that peer just changed for the
  //    moved ranges. Only the old owners' lists can hold stale filings.
  if (!mplan.handoffs.empty()) {
    std::vector<PeerId> affected;
    affected.reserve(mplan.handoffs.size());
    for (const auto& h : mplan.handoffs) affected.push_back(h.from);
    std::sort(affected.begin(), affected.end());
    affected.erase(std::unique(affected.begin(), affected.end()),
                   affected.end());
    for (const PeerId from : affected) {
      auto& entries = deferred_by_peer_[from];
      std::size_t kept = 0;
      for (std::size_t i = 0; i < entries.size(); ++i) {
        const PeerId owner =
            placement_.peer_of(graph_.out_target(entries[i].first));
        if (owner == from) {
          entries[kept++] = entries[i];
        } else {
          deferred_by_peer_[owner].push_back(entries[i]);
        }
      }
      entries.resize(kept);
    }
  }
}

void DistributedPagerank::deliver_delayed(std::uint64_t pass,
                                          const std::vector<bool>& presence,
                                          PassStats& stats) {
  auto it = delayed_.begin();
  while (it != delayed_.end() && it->first <= pass) {
    for (const DelayedMsg& m : it->second) {
      const NodeId v = graph_.out_target(m.edge);
      const PeerId pv = placement_.peer_of(v);
      if (presence[pv] && reachable(m.src, pv)) {
        // Traffic was billed at send time.
        const bool applied = apply_update(m.edge, m.value, m.seq, /*now=*/true);
        trace_terminal(m.trace, applied, pv);
      } else {
        park(m.edge, m.src, pv, m.value, m.seq, m.trace, stats);
      }
    }
    delayed_total_ -= it->second.size();
    it = delayed_.erase(it);
  }
}

void DistributedPagerank::process_retries(std::uint64_t pass,
                                          const std::vector<bool>& presence,
                                          PassStats& stats) {
  if (channel_ == nullptr) return;
  const std::uint64_t before = channel_->retransmissions();
  for (auto& pend : channel_->take_due(pass)) {
    const EdgeId e = pend.slot;
    const NodeId v = graph_.out_target(e);
    const PeerId pv = placement_.peer_of(v);
    if (!presence[pv] || !reachable(pend.src, pv)) {
      // Destination offline or partitioned: hand the message to the §3.1
      // store-and-resend outbox instead of burning retries.
      park(e, pend.src, pv, pend.value, pend.seq, pend.trace, stats);
      continue;
    }
    const SendFate fate = plan_->fate_for_send();
    meter_.record_resend(PagerankUpdate::kWireBytes);
    if (pend.trace != obs::kNoTrace) {
      tracer_->async_step(pend.trace, "net.retransmit", "net", pend.src,
                          {{"attempt", static_cast<double>(pend.attempt + 1)}});
    }
    if (fate.dropped) {
      ++dropped_;
      if (pend.trace != obs::kNoTrace) {
        tracer_->async_step(pend.trace, "net.drop", "fault", pv, {});
      }
      pend.attempt += 1;  // exponential backoff grows
      channel_->track(pend, pass);
    } else {
      // Retransmissions are point-to-point recovery sends: they skip the
      // delay model; duplicates only cost traffic.
      if (fate.duplicated) {
        meter_.record_resend(PagerankUpdate::kWireBytes);
        ++duplicated_;
      }
      const bool applied = apply_update(e, pend.value, pend.seq, /*now=*/true);
      trace_terminal(pend.trace, applied, pv);
    }
  }
  stats.retransmissions += channel_->retransmissions() - before;
  // Records whose retry budget ran out during re-track above reached the
  // gave_up terminal outcome: account the loss now, not at quiescence.
  drain_gave_up();
}

void DistributedPagerank::build_effective(std::vector<double>& out) const {
  // Effective value per edge: the applied cell (permuted back from its
  // in-CSR position to the out-edge id the ledger is keyed by), or the
  // parked outbox value for edges still waiting on an offline
  // destination.
  const EdgeId m = graph_.num_edges();
  out.resize(m);
  for (EdgeId e = 0; e < m; ++e) out[e] = contrib_[graph_.out_to_in_edge(e)];
  for (const auto& entries : deferred_by_peer_) {
    for (const auto& [e, src] : entries) {
      out[e] = pending_value_[e];
    }
  }
}

bool DistributedPagerank::audit_and_repair(const std::vector<bool>& presence,
                                           PassStats& stats) {
  build_effective(effective_scratch_);
  const MassAuditReport report =
      auditor_->audit(effective_scratch_, kAuditSlack);
  if (report.conserved(audit_tolerance_)) {
    last_audit_ = report;
    return true;
  }
  // Proportional re-injection: re-send exactly the contributions the
  // ledger says went missing, then keep iterating.
  ++repair_rounds_;
  for (const EdgeId e :
       auditor_->leaking_edges(effective_scratch_, kAuditSlack)) {
    const NodeId v = graph_.out_target(e);
    const PeerId pv = placement_.peer_of(v);
    const PeerId pu = placement_.peer_of(edge_src_[e]);
    const double value = auditor_->expected(e);
    const std::uint32_t seq =
        channel_ != nullptr ? channel_->next_seq(e) : 0;
    if (presence[pv] && reachable(pu, pv)) {
      (void)apply_update(e, value, seq, /*now=*/false);
      meter_.record_resend(PagerankUpdate::kWireBytes);
      ++repair_messages_;
      ++stats.repair_messages;
    } else {
      park(e, pu, pv, value, seq, obs::kNoTrace, stats);
    }
  }
  return false;
}

void DistributedPagerank::prepare_parallel_state() {
  // The batched exchange applies updates outside the sequential emission
  // order. That is invisible on clean and churn-only runs — every write
  // lands in its own per-edge cell and every counter is a commutative
  // sum — but fault plans, tracers, replicas, overlays, dynamic
  // membership and the audit all consume ordered state (RNG draws, cache
  // warms, trace event order, stale-owner counts), so those
  // configurations keep the sequential sender-major exchange.
  batched_exchange_ = plan_ == nullptr && tracer_ == nullptr &&
                      replicas_ == nullptr && ring_ == nullptr &&
                      membership_ == nullptr && !audit_enabled_;
  const std::uint32_t threads = std::max<std::uint32_t>(1, options_.threads);
  if (threads > 1) pool_ = std::make_unique<ThreadPool>(threads - 1);
  const PeerId num_peers = placement_.num_peers();
  peer_dirty_.resize(num_peers);
  peer_scratch_.resize(num_peers);
  if (batched_exchange_) {
    if (pool_ == nullptr && !residual_mode_) {
      // Sequential fifo runs take the compute_sequential /
      // exchange_sequential fast path: flat scratch sized once here, so
      // no pass ever grows an allocation.
      seq_fast_ = true;
      const NodeId n = graph_.num_nodes();
      seq_docs_.resize(n);
      seq_acc_.resize(n);
      seq_senders_.resize(n);
      seq_count_.assign(num_peers, 0);
      seq_seg_end_.assign(num_peers, 0);
      seq_sender_pos_.reserve(static_cast<std::size_t>(num_peers) + 1);
      dst_count32_.assign(num_peers, 0);
      touched_dsts_.assign(static_cast<std::size_t>(num_peers) + 1, 0);
      return;
    }
    dst_incoming_.resize(num_peers);
    dst_marked_.resize(num_peers);
    slot_scratch_.resize(pool_ != nullptr ? pool_->concurrency() : 1);
    for (auto& ws : slot_scratch_) {
      ws.bucket.resize(num_peers);
      if (residual_mode_) ws.bucket_delta.resize(num_peers);
    }
  }
}

template <typename Fn>
void DistributedPagerank::parallel_region(std::size_t shards, Fn&& fn) {
  if (pool_ == nullptr) {
    for (std::size_t i = 0; i < shards; ++i) fn(i, 0);
    return;
  }
  pool_->run(static_cast<unsigned>(shards),
             [&fn](unsigned shard, unsigned slot) { fn(shard, slot); });
}

void DistributedPagerank::bucket_dirty() {
  for (const PeerId p : active_peers_) peer_dirty_[p].clear();
  active_peers_.clear();
  for (const NodeId v : dirty_) {
    const PeerId p = placement_.peer_of(v);
    if (peer_dirty_[p].empty()) active_peers_.push_back(p);
    peer_dirty_[p].push_back(v);
  }
  std::sort(active_peers_.begin(), active_peers_.end());
  // Determinism precondition for every per-peer merge below: results are
  // folded in this order, so it must be strictly sorted (no duplicates).
  DPRANK_ASSERT(std::adjacent_find(active_peers_.begin(),
                                   active_peers_.end(),
                                   std::greater_equal<PeerId>()) ==
                    active_peers_.end(),
                "pagerank",
                "active peer list is not strictly sorted; the parallel "
                "merge order would be scheduler-dependent");
  for (const PeerId p : active_peers_) {
    PeerScratch& s = peer_scratch_[p];
    s.docs_recomputed = 0;
    s.max_rel = 0.0;
    s.deferred_calls = 0;
    s.deferred_docs = 0;
    s.senders.clear();
    s.kept_dirty.clear();
    s.targets.clear();
    s.target_deltas.clear();
    s.buckets.clear();
    s.parked.clear();
  }
}

void DistributedPagerank::compute_peer(PeerId p,
                                       const std::vector<bool>& presence,
                                       bool track_replica_values) {
  if (!presence[p]) return;  // docs stay dirty; re-marked at the merge
  PeerScratch& s = peer_scratch_[p];
  std::vector<NodeId>& bucket = peer_dirty_[p];
  const double d = options_.damping;
  const double base = 1.0 - d;
  // Residual schedule: order the bucket by accumulated |Δcontribution|
  // so one recompute coalesces every update behind the largest pending
  // mass, and decide whether this pass may defer the low-residual tail.
  // No deferral once the iteration is within epsilon of converging — the
  // endgame runs exhaustively, exactly like fifo.
  const bool may_defer = residual_mode_ && prev_max_rel_ > options_.epsilon;
  const double cutoff =
      may_defer ? options_.residual_defer_ratio * prev_max_rel_ : 0.0;
  if (residual_mode_) {
    std::sort(bucket.begin(), bucket.end(), [&](NodeId a, NodeId b) {
      const double ra = residual_[a];
      const double rb = residual_[b];
      return ra != rb ? ra > rb : a < b;
    });
  }
  for (std::size_t i = 0; i < bucket.size(); ++i) {
    const NodeId v = bucket[i];
    if (may_defer && i != 0 && defer_age_[v] < options_.residual_max_defer) {
      // The damped residual bounds this document's possible rank change;
      // relative to its current rank it is the analogue of the epsilon
      // test. Every peer processes its top document (i == 0) and the age
      // cap forces periodic progress, so deferral cannot starve anyone.
      const double denom = ranks_[v] > 0 ? ranks_[v] : -ranks_[v];
      const double relres =
          denom > 0 ? d * residual_[v] / denom : d * residual_[v];
      if (relres < cutoff) {
        ++defer_age_[v];
        ++s.deferred_docs;
        s.kept_dirty.push_back(v);  // in_dirty_ stays set
        continue;
      }
    }
    in_dirty_[v] = 0;
    double acc = 0.0;
    const EdgeId cells_end = graph_.in_edge_end(v);
    for (EdgeId c = graph_.in_edge_begin(v); c < cells_end; ++c) {
      acc += contrib_[c];
    }
    const double newrank = base + d * acc;
    const double rel = relative_change(ranks_[v], newrank);
    ranks_[v] = newrank;
    ++s.docs_recomputed;
    s.max_rel = std::max(s.max_rel, rel);
    if (track_replica_values) {
      // A live replica mirrors the recomputation (§2.3: replicas
      // receive the same updates) — the copy crash recovery restores.
      for (const PeerId rp : replicas_->replicas_of(v)) {
        if (presence[rp]) {
          replica_value_[v] = newrank;
          break;
        }
      }
    }
    if (!residual_mode_) {
      if (rel > options_.epsilon && graph_.out_degree(v) != 0) {
        s.senders.push_back(v);
      }
      continue;
    }
    residual_[v] = 0.0;
    defer_age_[v] = 0;
    if (graph_.out_degree(v) == 0) continue;
    // Emission gate against the value the out-links actually hold (the
    // last emission), not last pass's rank — a deferred document's
    // coalesced change is judged in full.
    const double rel_sent = relative_change(last_sent_[v], newrank);
    if (rel_sent > eff_epsilon_) {
      s.senders.push_back(v);
      last_sent_[v] = newrank;
    } else if (rel_sent > options_.epsilon) {
      // Cleared epsilon but not this pass's adaptive threshold: hold the
      // emission (stay dirty) instead of dropping it — it goes out once
      // the schedule tightens.
      in_dirty_[v] = 1;
      s.kept_dirty.push_back(v);
    }
  }
}

void DistributedPagerank::exchange_batched(const std::vector<bool>& presence,
                                           PassStats& stats,
                                           obs::Histogram* batch_hist) {
  // Emission, one shard per source peer: workers write only per-edge
  // cells (contrib_ / pending_ / pending_value_ — each edge has a unique
  // emitting source) and their own peer/slot scratch. Targets are
  // grouped into one bucket per destination peer — §4.6.1's "collect
  // together all the pagerank messages going towards these documents".
  parallel_region(active_peers_.size(), [&](std::size_t i, unsigned slot) {
    const PeerId p = active_peers_[i];
    PeerScratch& s = peer_scratch_[p];
    if (s.senders.empty()) return;
    SlotScratch& ws = slot_scratch_[slot];
    for (const NodeId u : s.senders) {
      const double c = ranks_[u] / static_cast<double>(graph_.out_degree(u));
      for (EdgeId e = graph_.out_edge_begin(u); e < graph_.out_edge_end(u);
           ++e) {
        const NodeId v = graph_.out_target(e);
        const PeerId pv = placement_.peer_of(v);
        // Ledger write (validation runs only): per-edge cell, same
        // disjointness as contrib_, so workers never collide.
        if (auditor_ != nullptr) auditor_->on_emit(e, c);
        if (presence[pv]) {
          const EdgeId cell = graph_.out_to_in_edge(e);
          auto& b = ws.bucket[pv];
          if (b.empty()) ws.touched.push_back(pv);
          b.push_back(v);
          if (residual_mode_) {
            // |Δcontribution| travels with the target; the destination
            // shard folds it into residual_ (it owns v's slot).
            ws.bucket_delta[pv].push_back(c > contrib_[cell]
                                              ? c - contrib_[cell]
                                              : contrib_[cell] - c);
          }
          contrib_[cell] = c;
        } else {
          // park(), minus the shared bookkeeping (merged below).
          pending_value_[e] = c;
          ++s.deferred_calls;
          if (!pending_[e]) {
            pending_[e] = 1;
            s.parked.emplace_back(pv, e);
          }
        }
      }
    }
    std::sort(ws.touched.begin(), ws.touched.end());
    for (const PeerId dst : ws.touched) {
      auto& b = ws.bucket[dst];
      s.buckets.push_back(
          {dst, s.targets.size(), s.targets.size() + b.size()});
      s.targets.insert(s.targets.end(), b.begin(), b.end());
      b.clear();
      if (residual_mode_) {
        auto& bd = ws.bucket_delta[dst];
        s.target_deltas.insert(s.target_deltas.end(), bd.begin(), bd.end());
        bd.clear();
      }
    }
    ws.touched.clear();
  });

  // Merge, in sorted source-peer order: fold counters, bill traffic in
  // bulk (same totals as the per-update calls), park deferred edges and
  // index each bucket under its destination for the apply region.
  std::uint64_t delivered_total = 0;
  std::uint64_t local_total = 0;
  for (const PeerId p : active_peers_) {
    PeerScratch& s = peer_scratch_[p];
    if (contracts::enabled()) {
      // Determinism precondition: each shard's buckets must be strictly
      // sorted by destination and tile the target list contiguously —
      // the apply region indexes targets[begin, end) through them.
      [[maybe_unused]] std::size_t off = 0;
      [[maybe_unused]] PeerId prev_dst = 0;
      [[maybe_unused]] bool first = true;
      for (const PeerScratch::Bucket& b : s.buckets) {
        DPRANK_ASSERT(first || b.dst > prev_dst, "pagerank",
                      "exchange buckets are not strictly sorted by "
                      "destination peer");
        DPRANK_ASSERT(b.begin == off && b.end >= b.begin, "pagerank",
                      "exchange bucket ranges do not tile the target list");
        off = b.end;
        prev_dst = b.dst;
        first = false;
      }
      DPRANK_ASSERT(off == s.targets.size(), "pagerank",
                    "exchange buckets do not cover every emitted target");
    }
    stats.messages_deferred += s.deferred_calls;
    for (const auto& [dst, e] : s.parked) {
      deferred_by_peer_[dst].emplace_back(e, p);
      ++total_pending_;
    }
    std::uint64_t cross_msgs = 0;  // wire messages this peer sent
    for (const PeerScratch::Bucket& b : s.buckets) {
      const std::uint64_t k = b.end - b.begin;
      if (b.dst == p) {
        local_total += k;
        stats.local_updates += k;
      } else {
        delivered_total += k;
        if (options_.coalesce_wire) {
          meter_.record_batch(k, options_.batch_payload_bytes,
                              options_.batch_header_bytes);
          ++cross_msgs;
        } else {
          cross_msgs += k;
        }
        if (batch_hist != nullptr) batch_hist->record(static_cast<double>(k));
      }
      if (dst_incoming_[b.dst].empty()) active_dsts_.push_back(b.dst);
      dst_incoming_[b.dst].push_back({p, b.begin, b.end});
    }
    stats.messages_sent += cross_msgs;
    stats.max_peer_messages = std::max(stats.max_peer_messages, cross_msgs);
  }
  if (!options_.coalesce_wire && delivered_total != 0) {
    meter_.record_messages(delivered_total, PagerankUpdate::kWireBytes);
  }
  if (local_total != 0) meter_.record_local_updates(local_total);
  outbox_peak_ = std::max(outbox_peak_, total_pending_);

  // Apply-side marking, one shard per destination peer: a destination
  // owns its documents' dirty flags, so shards never collide; the merge
  // appends each destination's newly-marked documents in sorted order.
  std::sort(active_dsts_.begin(), active_dsts_.end());
  parallel_region(active_dsts_.size(), [&](std::size_t i, unsigned) {
    const PeerId dst = active_dsts_[i];
    auto& marked = dst_marked_[dst];
    marked.clear();
    for (const DstSlice& slice : dst_incoming_[dst]) {
      const auto& targets = peer_scratch_[slice.src].targets;
      if (residual_mode_) {
        // Fold the emitted |Δcontribution| into the destinations'
        // residuals. Slices arrive in sorted source-peer order and each
        // slice in emission order, so the floating-point accumulation
        // order is fixed regardless of thread count.
        const auto& deltas = peer_scratch_[slice.src].target_deltas;
        for (std::size_t t = slice.begin; t < slice.end; ++t) {
          residual_[targets[t]] += deltas[t];
        }
      }
      for (std::size_t t = slice.begin; t < slice.end; ++t) {
        const NodeId v = targets[t];
        if (!in_dirty_[v]) {
          in_dirty_[v] = 1;
          marked.push_back(v);
        }
      }
    }
  });
  for (const PeerId dst : active_dsts_) {
    next_dirty_.insert(next_dirty_.end(), dst_marked_[dst].begin(),
                       dst_marked_[dst].end());
    dst_incoming_[dst].clear();
  }
  active_dsts_.clear();
}

void DistributedPagerank::compute_sequential(
    const std::vector<bool>& presence, bool all_present, PassStats& stats) {
  // Group dirty_ peer-major with a counting sort over flat arrays: count
  // per peer, carve segments in ascending peer order, stable scatter.
  // Segment order and intra-segment order match bucket_dirty() exactly,
  // so the recompute below visits documents in compute_peer's order.
  active_peers_.clear();
  for (const NodeId v : dirty_) {
    const PeerId p = placement_.peer_of(v);
    if (seq_count_[p]++ == 0) active_peers_.push_back(p);
  }
  std::sort(active_peers_.begin(), active_peers_.end());
  std::uint64_t off = 0;
  for (const PeerId p : active_peers_) {
    seq_seg_end_[p] = off;  // scatter cursor, starts at the segment base
    off += seq_count_[p];
  }
  for (const NodeId v : dirty_) {
    seq_docs_[seq_seg_end_[placement_.peer_of(v)]++] = v;
  }
  // seq_seg_end_[p] now sits one past p's segment.

  // Recompute, fold-then-epilogue per segment. The scalar fold kernel
  // (common/simd.hpp) writes each document's cell sum, folded strictly
  // left to right — the per-document FP order the golden digests pin —
  // into seq_acc_. The epilogue then walks the segment in bucket order:
  // rank writes, max fold and sender selection. The AVX2 lane-refill
  // kernel computes the same bits but measured slower inside the engine
  // at every size (DESIGN.md §14.4), so the engine does not dispatch on
  // the SIMD level.
  const double d = options_.damping;
  const double base = 1.0 - d;
  const double eps = options_.epsilon;
  const double* cells = contrib_.data();
  const EdgeId* offsets = graph_.in_offsets_data();
  const float* inv_deg = graph_.inv_out_degrees().data();
  double max_rel = 0.0;
  std::uint64_t recomputed = 0;
  std::uint64_t sender_total = 0;
  seq_sender_pos_.clear();
  for (const PeerId p : active_peers_) {
    seq_sender_pos_.push_back(sender_total);
    const std::uint64_t seg_end = seq_seg_end_[p];
    const std::uint64_t seg_begin = seg_end - seq_count_[p];
    seq_count_[p] = 0;  // ready for the next pass
    if (!all_present && !presence[p]) {
      // Docs stay dirty (flags stay set); requeued for the next pass.
      next_dirty_.insert(next_dirty_.end(), seq_docs_.data() + seg_begin,
                         seq_docs_.data() + seg_end);
      continue;
    }
    simd::fold_cells_scalar(cells, offsets, seq_docs_.data() + seg_begin,
                            seg_end - seg_begin, seq_acc_.data() + seg_begin);
    for (std::uint64_t i = seg_begin; i < seg_end; ++i) {
      const NodeId v = seq_docs_[i];
      in_dirty_[v] = 0;
      const double newrank = base + d * seq_acc_[i];
      const double rel = relative_change(ranks_[v], newrank);
      ranks_[v] = newrank;
      if (rel > max_rel) max_rel = rel;
      // inv_out_degree(v) != 0 is exactly out_degree(v) != 0 (the
      // stored inverse is 0 only for degree 0), one 4-byte load.
      if (rel > eps && inv_deg[v] != 0.0f) seq_senders_[sender_total++] = v;
    }
    recomputed += seg_end - seg_begin;
  }
  seq_sender_pos_.push_back(sender_total);
  stats.docs_recomputed = recomputed;
  stats.max_rel_change = max_rel;
}

template <bool kAllPresent>
void DistributedPagerank::exchange_sequential(
    const std::vector<bool>& presence, PassStats& stats,
    obs::Histogram* batch_hist) {
  // Mirror of exchange_batched for the sequential fifo case: the same
  // emission order (source peers ascending, senders in recompute order)
  // and the same counters, but each update is one inline cell write plus
  // a plain per-destination tally instead of a materialized bucket.
  //
  // Each source peer bills its destinations in first-touch order, not
  // sorted. Every consumer of the tally is a commutative sum of
  // integers: the TrafficMeter counters, messages_sent and
  // max_peer_messages, and the batch-size histogram, whose records are
  // small integer-valued doubles (the sum stays exact; bucket counts,
  // min and max commute). Any billing order gives the same bits.
  std::uint64_t delivered_total = 0;
  std::uint64_t local_total = 0;
  // Wire-batch sizes are tallied in plain counters and recorded once
  // per size at the end of the pass: each histogram record is several
  // atomic RMWs, and at 500 peers nearly every batch holds a handful of
  // updates. record_count(k, n) is bit-identical to n record(k) calls,
  // for the same reason.
  constexpr std::uint64_t kTalliedSizes = 64;
  std::array<std::uint64_t, kTalliedSizes> batch_tally{};
  // Narrow (32-bit) cross index when the graph carries one — half the
  // index bytes through the hottest random-access loop.
  const std::uint32_t* cross32 = graph_.out_to_in32_data();
  MassAuditor* const auditor = auditor_.get();
  PeerId* const touched = touched_dsts_.data();
  std::uint32_t* const dst_count = dst_count32_.data();
  for (std::size_t ai = 0; ai < active_peers_.size(); ++ai) {
    const PeerId p = active_peers_[ai];
    const std::uint64_t s_begin = seq_sender_pos_[ai];
    const std::uint64_t s_end = seq_sender_pos_[ai + 1];
    if (s_begin == s_end) continue;
    std::size_t num_touched = 0;
    for (std::uint64_t si = s_begin; si < s_end; ++si) {
      const NodeId u = seq_senders_[si];
      const double c = ranks_[u] / static_cast<double>(graph_.out_degree(u));
      const EdgeId out_begin = graph_.out_edge_begin(u);
      const EdgeId out_end = graph_.out_edge_end(u);
      if (auditor != nullptr) {
        // Only periodic validation feeds the ledger on this path (the
        // mass audit forces the ordered exchange). Ledger writes are
        // per edge and commute, so one sweep per sender keeps the test
        // out of the edge loop.
        for (EdgeId e = out_begin; e < out_end; ++e) auditor->on_emit(e, c);
      }
      for (EdgeId e = out_begin; e < out_end; ++e) {
        const NodeId v = graph_.out_target(e);
        const PeerId pv = placement_.peer_of(v);
        if (kAllPresent || presence[pv]) {
          const EdgeId cell = cross32 != nullptr
                                  ? static_cast<EdgeId>(cross32[e])
                                  : graph_.out_to_in_edge(e);
          contrib_[cell] = c;
          // Branch-free tally: always store pv at the cursor, advance
          // the cursor only on pv's first touch by this source peer.
          touched[num_touched] = pv;
          num_touched += static_cast<std::size_t>(dst_count[pv]++ == 0);
          if (!in_dirty_[v]) {
            in_dirty_[v] = 1;
            next_dirty_.push_back(v);
          }
        } else {
          // park(), with the bookkeeping inlined (no channel, tracer or
          // fault plan can be attached on this path).
          pending_value_[e] = c;
          ++stats.messages_deferred;
          if (!pending_[e]) {
            pending_[e] = 1;
            deferred_by_peer_[pv].emplace_back(e, p);
            ++total_pending_;
          }
        }
      }
    }
    std::uint64_t cross_msgs = 0;  // wire messages this peer sent
    for (std::size_t t = 0; t < num_touched; ++t) {
      const PeerId dst = touched[t];
      const std::uint64_t k = dst_count[dst];
      dst_count[dst] = 0;  // ready for the next source peer
      if (dst == p) {
        local_total += k;
        stats.local_updates += k;
      } else {
        delivered_total += k;
        if (options_.coalesce_wire) {
          meter_.record_batch(k, options_.batch_payload_bytes,
                              options_.batch_header_bytes);
          ++cross_msgs;
        } else {
          cross_msgs += k;
        }
        if (batch_hist != nullptr) {
          if (k < kTalliedSizes) {
            ++batch_tally[k];
          } else {
            batch_hist->record(static_cast<double>(k));
          }
        }
      }
    }
    stats.messages_sent += cross_msgs;
    stats.max_peer_messages = std::max(stats.max_peer_messages, cross_msgs);
  }
  if (batch_hist != nullptr) {
    for (std::uint64_t k = 1; k < kTalliedSizes; ++k) {
      batch_hist->record_count(static_cast<double>(k), batch_tally[k]);
    }
  }
  if (!options_.coalesce_wire && delivered_total != 0) {
    meter_.record_messages(delivered_total, PagerankUpdate::kWireBytes);
  }
  if (local_total != 0) meter_.record_local_updates(local_total);
  outbox_peak_ = std::max(outbox_peak_, total_pending_);
}

void DistributedPagerank::deliver_deferred(const std::vector<bool>& presence,
                                           PassStats& stats) {
  const bool selective = plan_ != nullptr && plan_->partition_active();
  for (PeerId p = 0; p < deferred_by_peer_.size(); ++p) {
    auto& entries = deferred_by_peer_[p];
    if (!presence[p] || entries.empty()) continue;
    std::size_t kept = 0;
    for (std::size_t i = 0; i < entries.size(); ++i) {
      const auto [e, src_peer] = entries[i];
      if (selective && !plan_->reachable(src_peer, p)) {
        entries[kept++] = entries[i];  // still cut off: stays parked
        continue;
      }
      const std::uint32_t seq =
          channel_ != nullptr ? pending_seq_[e] : 0;
      obs::TraceId t = obs::kNoTrace;
      if (tracer_ != nullptr) {
        t = pending_trace_[e];
        pending_trace_[e] = obs::kNoTrace;
      }
      pending_[e] = false;
      --total_pending_;
      const bool applied = apply_update(e, pending_value_[e], seq, /*now=*/true);
      const NodeId v = graph_.out_target(e);
      meter_.record_message(PagerankUpdate::kWireBytes,
                            send_hops(src_peer, p, v));
      ++stats.messages_delivered_late;
      if (t != obs::kNoTrace) {
        tracer_->async_step(t, "outbox.deliver", "net", p, {});
        trace_terminal(t, applied, p);
      }
      if (replicas_ != nullptr && !replicas_->empty()) {
        send_to_replicas(src_peer, v, presence, stats);
      }
    }
    entries.resize(kept);
  }
}

std::uint64_t DistributedPagerank::memory_bytes() const {
  const auto bytes = [](const auto& v) {
    return static_cast<std::uint64_t>(v.capacity()) *
           sizeof(typename std::decay_t<decltype(v)>::value_type);
  };
  return bytes(ranks_) + bytes(contrib_) + bytes(pending_value_) +
         bytes(pending_) + bytes(pending_seq_) + bytes(in_dirty_) +
         bytes(dirty_) + bytes(next_dirty_) + bytes(seq_docs_) +
         bytes(seq_acc_) + bytes(seq_senders_) + bytes(seq_count_) + bytes(seq_seg_end_) +
         bytes(seq_sender_pos_) + bytes(dst_count32_) +
         bytes(touched_dsts_) + bytes(residual_) + bytes(last_sent_) +
         bytes(defer_age_);
}

void DistributedPagerank::validate_state() const {
  if (!contracts::enabled()) return;
  [[maybe_unused]] const char* kSub = "pagerank";
  const NodeId n = graph_.num_nodes();
  const EdgeId m = graph_.num_edges();
  DPRANK_INVARIANT(ranks_.size() == n, kSub,
                   "rank array does not cover the documents");
  DPRANK_INVARIANT(contrib_.size() == m, kSub,
                   "contribution store does not cover the edges");
  DPRANK_INVARIANT(pending_.size() == m && pending_value_.size() == m, kSub,
                   "outbox arrays do not cover the edges");
  DPRANK_INVARIANT(pending_seq_.empty() || pending_seq_.size() == m, kSub,
                   "parked-sequence array does not cover the edges");

  // Dirty-set integrity: the recompute queues and the membership flags
  // must agree exactly — a document queued twice would be recomputed
  // twice in one pass, and a flagged-but-unqueued document would never
  // be recomputed again. This is the precondition bucket_dirty() relies
  // on for its deterministic peer sharding.
  std::vector<std::uint8_t> queued(n, 0);
  const auto check_queue = [&](const std::vector<NodeId>& q) {
    for (const NodeId v : q) {
      DPRANK_INVARIANT(v < n, kSub, "dirty queue holds an unknown document");
      DPRANK_INVARIANT(queued[v] == 0, kSub,
                       "document " + std::to_string(v) +
                           " queued for recompute twice");
      queued[v] = 1;
      DPRANK_INVARIANT(in_dirty_[v] != 0, kSub,
                       "document " + std::to_string(v) +
                           " queued for recompute but not flagged dirty");
    }
  };
  check_queue(dirty_);
  check_queue(next_dirty_);
  std::size_t flagged = 0;
  for (NodeId v = 0; v < n; ++v) flagged += in_dirty_[v] != 0 ? 1 : 0;
  DPRANK_INVARIANT(
      flagged == dirty_.size() + next_dirty_.size(), kSub,
      "dirty flags (" + std::to_string(flagged) +
          ") disagree with the recompute queues (" +
          std::to_string(dirty_.size() + next_dirty_.size()) +
          ") — flagged-but-unqueued documents lose updates");

  // Outbox bookkeeping: pending flags, the per-destination deferred
  // lists and the counters are three views of one set of parked edges.
  std::vector<std::uint8_t> parked(m, 0);
  std::uint64_t parked_entries = 0;
  for (PeerId dest = 0; dest < deferred_by_peer_.size(); ++dest) {
    for (const auto& [e, src] : deferred_by_peer_[dest]) {
      DPRANK_INVARIANT(e < m, kSub, "parked entry holds an unknown edge");
      DPRANK_INVARIANT(parked[e] == 0, kSub,
                       "edge " + std::to_string(e) +
                           " parked in two deferred lists");
      parked[e] = 1;
      DPRANK_INVARIANT(pending_[e] != 0, kSub,
                       "edge " + std::to_string(e) +
                           " parked but not flagged pending");
      DPRANK_INVARIANT(
          placement_.peer_of(graph_.out_target(e)) == dest, kSub,
          "edge " + std::to_string(e) +
              " filed under a peer that does not own its target");
      DPRANK_INVARIANT(src < placement_.num_peers(), kSub,
                       "parked entry names an unknown sender peer");
      ++parked_entries;
    }
  }
  std::uint64_t flagged_edges = 0;
  for (EdgeId e = 0; e < m; ++e) flagged_edges += pending_[e] != 0 ? 1 : 0;
  DPRANK_INVARIANT(flagged_edges == parked_entries, kSub,
                   "outbox credit leak: " + std::to_string(flagged_edges) +
                       " edges flagged pending vs " +
                       std::to_string(parked_entries) +
                       " parked in deferred lists");
  DPRANK_INVARIANT(total_pending_ == parked_entries, kSub,
                   "outbox credit leak: pending count " +
                       std::to_string(total_pending_) + " vs " +
                       std::to_string(parked_entries) + " parked entries");
  DPRANK_INVARIANT(outbox_peak_ >= total_pending_, kSub,
                   "outbox peak understates the live pending count");

  // Residual-scheduler state: arrays cover the documents, residual mass
  // is non-negative, the defer age never escapes its cap, and any
  // document holding undigested residual is queued for a recompute (a
  // positive residual with no dirty flag would be an update the
  // scheduler lost).
  if (residual_mode_) {
    DPRANK_INVARIANT(residual_.size() == n && last_sent_.size() == n &&
                         defer_age_.size() == n,
                     kSub,
                     "residual-scheduler arrays do not cover the documents");
    for (NodeId v = 0; v < n; ++v) {
      DPRANK_INVARIANT(residual_[v] >= 0.0, kSub,
                       "negative residual at document " + std::to_string(v));
      DPRANK_INVARIANT(defer_age_[v] <= options_.residual_max_defer, kSub,
                       "defer age exceeds residual_max_defer at document " +
                           std::to_string(v));
      DPRANK_INVARIANT(!(residual_[v] > 0.0) || in_dirty_[v] != 0, kSub,
                       "document " + std::to_string(v) +
                           " holds residual mass but is not marked dirty");
    }
  }

  // Delivery-delay buffer accounting.
  std::uint64_t delayed_msgs = 0;
  for (const auto& [due, msgs] : delayed_) delayed_msgs += msgs.size();
  DPRANK_INVARIANT(delayed_msgs == delayed_total_, kSub,
                   "delay-buffer count disagrees with buffered messages");

  // Cascade into the attached subsystems: each reports under its own
  // subsystem tag, so a failure names the layer that broke.
  if (channel_ != nullptr) channel_->validate();
  graph_.validate();
  if (ring_ != nullptr) ring_->validate(/*route_samples=*/16);

  // Rank-mass conservation identity (§2.3): on fault-free runs every
  // emitted contribution is applied or parked, nothing else — the ledger
  // balances exactly. Under a fault plan or dynamic membership transient
  // leaks are expected (crash wipes, unacked drops, dropped_dead
  // evictions) until audit_and_repair re-injects them, so the identity
  // only holds at quiescence and is checked there by the audit machinery
  // instead.
  if (auditor_ != nullptr && plan_ == nullptr && membership_ == nullptr) {
    // Audit-only local (cold validation path, never gathered).
    // dprank-lint: allow(unaligned-hot-buffer)
    std::vector<double> effective;
    build_effective(effective);
    const MassAuditReport report = auditor_->audit(effective, kAuditSlack);
    DPRANK_INVARIANT(report.conserved(audit_tolerance_), kSub,
                     "rank mass leaked on a fault-free run: ratio " +
                         std::to_string(report.mass_ratio) + " across " +
                         std::to_string(report.leaking_edges) + " edge(s)");
  }
}

void DistributedPagerank::exchange_ordered(const std::vector<bool>& presence,
                                           PassStats& stats,
                                           std::uint64_t pass) {
  // Sequential sender-major exchange: fault fates, overlay cache warms
  // and trace events must observe emissions in one canonical order —
  // peers ascending, each peer's senders in recompute order.
  for (const PeerId pu : active_peers_) {
    for (const NodeId u : peer_scratch_[pu].senders) {
      const double c = ranks_[u] / static_cast<double>(graph_.out_degree(u));
      for (EdgeId e = graph_.out_edge_begin(u); e < graph_.out_edge_end(u);
           ++e) {
        const NodeId v = graph_.out_target(e);
        const PeerId pv = placement_.peer_of(v);
        bool replica_eligible = true;
        if (pv == pu) {
          const EdgeId cell = graph_.out_to_in_edge(e);
          if (residual_mode_) residual_[v] += std::abs(c - contrib_[cell]);
          contrib_[cell] = c;
          if (auditor_ != nullptr) auditor_->on_emit(e, c);
          mark_dirty(v);
          meter_.record_local_update();
          ++stats.local_updates;
        } else if (presence[pv] && reachable(pu, pv)) {
          if (auditor_ != nullptr) auditor_->on_emit(e, c);
          const std::uint32_t seq =
              channel_ != nullptr ? channel_->next_seq(e) : 0;
          SendFate fate;
          if (plan_ != nullptr) fate = plan_->fate_for_send();
          // The sender pays for the message whatever its fate.
          const std::uint64_t hops = send_hops(pu, pv, v);
          meter_.record_message(PagerankUpdate::kWireBytes, hops);
          ++stats.messages_sent;
          ++peer_msgs_this_pass_[pu];
          const obs::TraceId tid =
              tracer_ != nullptr ? trace_send(e, pu, pv, v, c, pass, hops)
                                 : obs::kNoTrace;
          if (fate.dropped) {
            ++dropped_;
            if (tid != obs::kNoTrace) {
              tracer_->async_step(tid, "net.drop", "fault", pv, {});
            }
            if (channel_ != nullptr) {
              // Unacked: schedule the retransmission.
              channel_->track({e, pv, pu, c, seq, 0, tid}, pass);
            } else {
              if (auditor_ != nullptr) auditor_->on_known_loss(c);
              if (tid != obs::kNoTrace) {
                tracer_->async_end(tid, "update.lost", "fault", pv, {});
              }
            }
            replica_eligible = false;  // lost before the fan-out point
          } else {
            if (fate.delay_passes > 0) {
              delayed_[pass + 1 + fate.delay_passes].push_back(
                  {e, pu, c, seq, tid});
              ++delayed_total_;
              if (tid != obs::kNoTrace) {
                tracer_->async_step(
                    tid, "net.delay", "fault", pv,
                    {{"passes", static_cast<double>(fate.delay_passes)}});
              }
            } else {
              const bool applied = apply_update(e, c, seq, /*now=*/false);
              trace_terminal(tid, applied, pv);
            }
            if (fate.duplicated) {
              // Idempotent overwrite: the duplicate only costs traffic.
              meter_.record_message(PagerankUpdate::kWireBytes);
              ++stats.messages_sent;
              ++duplicated_;
              if (tracer_ != nullptr) {
                tracer_->instant("net.duplicate", "fault", pv, {});
              }
              if (channel_ != nullptr && fate.delay_passes == 0) {
                (void)channel_->accept(e, seq);  // suppressed by seq
              }
            }
          }
        } else {
          if (plan_ != nullptr && presence[pv]) ++partition_deferrals_;
          if (membership_ != nullptr && membership_->undetected_crash(pv)) {
            // The sender does not know the owner is gone yet: the query
            // goes out to the stale owner and parks until the verdict.
            ++stale_owner_queries_;
            ++stats.stale_owner_queries;
          }
          if (auditor_ != nullptr) auditor_->on_emit(e, c);
          const std::uint32_t seq =
              channel_ != nullptr ? channel_->next_seq(e) : 0;
          const obs::TraceId tid =
              tracer_ != nullptr ? trace_send(e, pu, pv, v, c, pass, 1)
                                 : obs::kNoTrace;
          park(e, pu, pv, c, seq, tid, stats);
        }
        if (replica_eligible && replicas_ != nullptr &&
            !replicas_->empty() && presence[pv]) {
          send_to_replicas(pu, v, presence, stats);
        }
      }
    }
  }

  stats.max_peer_messages = 0;
  for (const PeerId pu : active_peers_) {
    if (peer_scratch_[pu].senders.empty()) continue;
    stats.max_peer_messages =
        std::max(stats.max_peer_messages, peer_msgs_this_pass_[pu]);
    peer_msgs_this_pass_[pu] = 0;  // reset only touched entries
  }
}

DistributedRunResult DistributedPagerank::run(ChurnSchedule* churn,
                                              const PassObserver& observer) {
  if (ran_) throw std::logic_error("DistributedPagerank::run: already ran");
  ran_ = true;
  if (churn != nullptr && churn->num_peers() != placement_.num_peers()) {
    throw std::invalid_argument("DistributedPagerank::run: churn peer count");
  }
  if (membership_ != nullptr && churn != nullptr) {
    throw std::invalid_argument(
        "DistributedPagerank::run: dynamic membership and a churn schedule "
        "both own the presence mask; attach one or the other");
  }
  if (membership_ != nullptr && plan_ != nullptr &&
      (!plan_->config().crashes.empty() ||
       plan_->config().crash_probability > 0.0)) {
    throw std::invalid_argument(
        "DistributedPagerank::run: fault-plan crashes are temporary "
        "(downtime + recovery) and index a static ownership map; with "
        "dynamic membership, schedule crashes as membership events");
  }
  prepare_fault_state();
  prepare_parallel_state();

  const PeerId num_peers = placement_.num_peers();
  const std::vector<bool> all_present(num_peers, true);
  const bool track_replica_values = !replica_value_.empty();
  obs::Histogram* pass_wall =
      metrics_ != nullptr ? &metrics_->histogram("pagerank.pass_wall_us")
                          : nullptr;
  obs::Histogram* batch_hist =
      metrics_ != nullptr && batched_exchange_
          ? &metrics_->histogram("pagerank.batch_size")
          : nullptr;

  // Per-phase wall split of each pass, recorded only with a registry
  // attached: each lap charges the time since the previous one to its
  // phase, so a pass costs six clock reads and the five phases tile the
  // pass. Without a registry no clock is read at all.
  enum Phase : std::uint8_t {
    kMembership, kDeliver, kCompute, kExchange, kAudit, kNumPhases
  };
  static constexpr std::array<const char*, kNumPhases> kPhaseMetric = {
      "pagerank.phase.membership_us", "pagerank.phase.deliver_us",
      "pagerank.phase.compute_us", "pagerank.phase.exchange_us",
      "pagerank.phase.audit_us"};
  std::array<obs::Histogram*, kNumPhases> phase_hist{};
  if (metrics_ != nullptr) {
    for (std::size_t i = 0; i < kNumPhases; ++i) {
      phase_hist[i] = &metrics_->histogram(kPhaseMetric[i]);
    }
  }
  using Clock = std::chrono::steady_clock;
  const auto telemetry_now = [this] {
    if (metrics_ == nullptr) return Clock::time_point{};
    // Telemetry measures the simulator itself (real wall time), never
    // feeds the simulation.
    // dprank-analyze: allow(nondet-source) -- measures the harness only
    // dprank-lint: allow(wall-clock)
    return std::chrono::steady_clock::now();
  };
  const auto micros = [](Clock::duration dt) {
    return std::chrono::duration<double, std::micro>(dt).count();
  };
  Clock::time_point lap_start{};
  const auto lap = [&](Phase phase) {
    if (metrics_ == nullptr) return;
    const Clock::time_point now = telemetry_now();
    phase_hist[phase]->record(micros(now - lap_start));
    lap_start = now;
  };

  DistributedRunResult result;
  for (std::uint64_t pass = 0; pass < options_.max_passes; ++pass) {
    const Clock::time_point wall_start = telemetry_now();
    lap_start = wall_start;
    PassStats stats;
    stats.pass = pass;
    const std::vector<bool>* presence =
        churn != nullptr ? &churn->presence_for_pass(pass) : &all_present;

    if (membership_ != nullptr) {
      // Membership pass hook: scheduled events strike, heartbeats feed
      // the detector, the ring stabilizes, ownership moves — then the
      // engine moves/wipes/rebuilds the corresponding state. The
      // coordinator's mask is the pass's base presence (a fault plan's
      // temporary effects compose on top below).
      apply_membership(membership_->begin_pass(pass), pass, stats);
      presence = &membership_->presence();
      if (contracts::enabled()) membership_->validate();
    }

    if (plan_ != nullptr) {
      // Fault-plan pass hook: partitions advance, crashes strike.
      const std::vector<PeerId> crashing = plan_->begin_pass(pass, num_peers);
      for (const PeerId p : crashing) crash_peer(p, pass);
      stats.crashes = crashing.size();
      presence_eff_ = *presence;
      for (PeerId p = 0; p < num_peers; ++p) {
        if (crashed_until_[p] > pass) presence_eff_[p] = false;
      }
      presence = &presence_eff_;
      // Crashed peers whose downtime ended and whom churn brought back
      // run recovery before any delivery touches them.
      for (PeerId p = 0; p < num_peers; ++p) {
        if (needs_recovery_[p] && presence_eff_[p]) {
          recover_peer(p, presence_eff_, stats);
        }
      }
    }
    lap(kMembership);

    if (plan_ != nullptr) {
      deliver_delayed(pass, *presence, stats);
      process_retries(pass, *presence, stats);
    }
    // Phase 0: outbox drains for peers that are present this pass.
    if (total_pending_ != 0) deliver_deferred(*presence, stats);
    lap(kDeliver);

    // Phase 1: recompute documents that received updates, sharded by
    // owning peer (documents on absent peers stay dirty until their peer
    // returns). Workers touch only state their shard's peer owns; the
    // merge folds per-peer results in sorted peer order, so the outcome
    // is identical for every thread count.
    if (residual_mode_) {
      // This pass's emission threshold: epsilon, or — under the adaptive
      // schedule — loosened while last pass's max relative change was
      // still large, tightening back to epsilon as the run settles.
      eff_epsilon_ =
          options_.adaptive_epsilon
              ? std::max(options_.epsilon, std::min(0.05, prev_max_rel_ / 8.0))
              : options_.epsilon;
    }
    if (seq_fast_) {
      // Single-threaded fifo: grouping and recompute over flat scratch.
      compute_sequential(*presence, churn == nullptr, stats);
    } else {
      bucket_dirty();
      parallel_region(active_peers_.size(), [&](std::size_t i, unsigned) {
        compute_peer(active_peers_[i], *presence, track_replica_values);
      });
      for (const PeerId p : active_peers_) {
        if (!(*presence)[p]) {
          // Re-marked for the next pass (in_dirty_ stayed set).
          next_dirty_.insert(next_dirty_.end(), peer_dirty_[p].begin(),
                             peer_dirty_[p].end());
          continue;
        }
        const PeerScratch& s = peer_scratch_[p];
        stats.docs_recomputed += s.docs_recomputed;
        stats.max_rel_change = std::max(stats.max_rel_change, s.max_rel);
        stats.docs_deferred += s.deferred_docs;
        if (!s.kept_dirty.empty()) {
          // Deferred tail + held emissions: still flagged dirty, queued
          // for the next pass in sorted peer order.
          next_dirty_.insert(next_dirty_.end(), s.kept_dirty.begin(),
                             s.kept_dirty.end());
        }
      }
    }
    prev_max_rel_ = stats.max_rel_change;
    lap(kCompute);

    // Phase 2: senders emit their new contribution on every out-link;
    // visible next pass (or parked in the outbox for absent peers).
    if (seq_fast_) {
      if (churn == nullptr) {
        exchange_sequential<true>(*presence, stats, batch_hist);
      } else {
        exchange_sequential<false>(*presence, stats, batch_hist);
      }
    } else if (batched_exchange_) {
      exchange_batched(*presence, stats, batch_hist);
    } else {
      exchange_ordered(*presence, stats, pass);
    }
    lap(kExchange);

    // Quiescence: nothing to recompute, nothing parked, nothing in
    // flight, nobody awaiting recovery — then, if auditing, the mass
    // ledger must balance (leaks are re-injected and the loop resumes).
    bool quiescent = next_dirty_.empty() && total_pending_ == 0;
    if (plan_ != nullptr && quiescent) {
      quiescent = delayed_total_ == 0 &&
                  (channel_ == nullptr || channel_->idle());
      if (quiescent) {
        for (PeerId p = 0; p < num_peers; ++p) {
          if (needs_recovery_[p]) {
            quiescent = false;
            break;
          }
        }
      }
    }
    if (membership_ != nullptr && quiescent) {
      // Convergence is meaningless while events remain scheduled or a
      // crash is still undeclared (its range is frozen, its updates are
      // parked): the run idles forward until membership settles.
      quiescent = membership_->quiescent();
    }
    if (quiescent && audit_enabled_) {
      quiescent = audit_and_repair(*presence, stats);
    }
    lap(kAudit);

    if (tracer_ != nullptr) {
      // One span per pass on the engine track (pid 0); the clock decides
      // how much simulated time the pass consumed.
      const double dur_us = pass_clock_ ? pass_clock_(stats) : 1.0;
      tracer_->complete(
          "pass", "engine", 0, dur_us,
          {{"pass", static_cast<double>(pass)},
           {"recomputed", static_cast<double>(stats.docs_recomputed)},
           {"sent", static_cast<double>(stats.messages_sent)},
           {"residual", stats.max_rel_change}});
      tracer_->advance_time(tracer_->now_us() + dur_us);
    }

    // The pass wall is the five phases end to end (the last lap read).
    if (pass_wall != nullptr) pass_wall->record(micros(lap_start - wall_start));

    history_.push_back(stats);
    result.passes = pass + 1;
    if (observer) observer(pass, ranks_);

    dirty_.swap(next_dirty_);
    next_dirty_.clear();
    if (options_.validate_every_n_passes != 0 &&
        (pass + 1) % options_.validate_every_n_passes == 0) {
      validate_state();
    }
    if (quiescent) {
      result.converged = true;
      break;
    }
  }
  // Terminal sweep: whatever cadence was chosen, the final state is
  // always checked (convergence or pass-budget exhaustion alike).
  if (options_.validate_every_n_passes != 0) validate_state();
  if (audit_enabled_) {
    if (!result.converged) {
      // Ran out of passes: report the leak as it stands.
      build_effective(effective_scratch_);
      last_audit_ = auditor_->audit(effective_scratch_, kAuditSlack);
    }
    result.mass_ratio = last_audit_.mass_ratio;
  }
  result.repair_rounds = repair_rounds_;
  if (metrics_ != nullptr) flush_metrics(result);
  return result;
}

void DistributedPagerank::flush_metrics(const DistributedRunResult& result) {
  obs::MetricsRegistry& reg = *metrics_;
  meter_.flush_to(reg);
  reg.counter("pagerank.runs").add(1);
  reg.counter("pagerank.passes").add(result.passes);
  if (result.converged) reg.counter("pagerank.converged_runs").add(1);
  reg.counter("pagerank.dropped").add(dropped_);
  reg.counter("pagerank.duplicated").add(duplicated_);
  reg.counter("pagerank.crashes").add(crashes_seen_);
  reg.counter("pagerank.recovered_docs").add(recovered_docs_);
  reg.counter("pagerank.retransmissions").add(retransmissions());
  reg.counter("pagerank.repair_messages").add(repair_messages_);
  reg.counter("pagerank.replica_messages").add(replica_messages_);
  reg.gauge("pagerank.mass_ratio").set(result.mass_ratio);
  reg.gauge("pagerank.outbox_peak").set(static_cast<double>(outbox_peak_));
  reg.gauge("pagerank.threads")
      .set(static_cast<double>(std::max<std::uint32_t>(1, options_.threads)));
  // Memory footprint (scale bench, §DESIGN.md 14): graph CSR arrays,
  // the engine's per-document/per-edge arrays, and the OS-accounted
  // process peak — observability only, read after the run.
  reg.gauge("mem.graph_bytes")
      .set(static_cast<double>(graph_.memory_bytes()));
  reg.gauge("mem.engine_bytes").set(static_cast<double>(memory_bytes()));
  reg.gauge("mem.peak_rss_bytes")
      .set(static_cast<double>(obs::peak_rss_bytes()));

  // Per-pass telemetry, entry for entry with pass_history(): the residual
  // series is the convergence timeline Fig. 2-style plots read.
  obs::Series& residual = reg.series("pagerank.residual");
  obs::Series& recomputed = reg.series("pagerank.docs_recomputed");
  obs::Series& sent = reg.series("pagerank.messages_sent");
  obs::Histogram& pass_msgs = reg.histogram("pagerank.pass.messages");
  bool any_fault_event = false;
  for (const PassStats& p : history_) {
    const double x = static_cast<double>(p.pass);
    residual.append(x, p.max_rel_change);
    recomputed.append(x, static_cast<double>(p.docs_recomputed));
    sent.append(x, static_cast<double>(p.messages_sent));
    pass_msgs.record(static_cast<double>(p.messages_sent));
    if (p.crashes != 0 || p.recovered_docs != 0) any_fault_event = true;
  }
  if (residual_mode_) {
    // Scheduler telemetry: how much recompute work the residual order
    // pushed to later passes (always absent under Schedule::kFifo, so
    // fifo exports are unchanged byte for byte).
    std::uint64_t total_deferred = 0;
    obs::Series& deferred = reg.series("pagerank.deferred");
    for (const PassStats& p : history_) {
      total_deferred += p.docs_deferred;
      deferred.append(static_cast<double>(p.pass),
                      static_cast<double>(p.docs_deferred));
    }
    reg.counter("pagerank.docs_deferred").add(total_deferred);
  }
  if (membership_ != nullptr) {
    reg.counter("membership.events").add(membership_->events_applied());
    reg.counter("membership.handoff_docs").add(handoff_docs_);
    reg.counter("membership.stale_owner_queries").add(stale_owner_queries_);
    reg.counter("membership.outbox_dropped_dead").add(outbox_dropped_dead_);
    reg.counter("membership.gave_up").add(gave_up());
    reg.counter("membership.ring_repairs").add(membership_->ring().repairs());
    reg.counter("membership.emergency_rebootstraps")
        .add(membership_->ring().emergency_rebootstraps());
    reg.counter("membership.stabilize_rounds")
        .add(membership_->stabilize_rounds_total());
    reg.counter("membership.declared_dead")
        .add(membership_->detector().declared_dead());
    reg.counter("membership.false_suspicions")
        .add(membership_->detector().false_suspicions());
    reg.gauge("membership.live_peers")
        .set(static_cast<double>(membership_->live_peers()));
    // Crash -> verdict latency per death: recovery starts at the
    // verdict, so this histogram is the recovery-trigger latency the
    // chaos campaign reports.
    obs::Histogram& lat = reg.histogram("membership.detection_latency");
    for (const std::uint64_t l : membership_->detection_latencies()) {
      lat.record(static_cast<double>(l));
    }
    obs::Series& handoffs = reg.series("membership.handoffs");
    obs::Series& stale = reg.series("membership.stale_queries");
    for (const PassStats& p : history_) {
      if (p.handoff_docs != 0) {
        handoffs.append(static_cast<double>(p.pass),
                        static_cast<double>(p.handoff_docs));
      }
      if (p.stale_owner_queries != 0) {
        stale.append(static_cast<double>(p.pass),
                     static_cast<double>(p.stale_owner_queries));
      }
    }
  }
  if (any_fault_event) {
    obs::Series& crash_tl = reg.series("pagerank.crash_events");
    obs::Series& recovery_tl = reg.series("pagerank.recovery_events");
    for (const PassStats& p : history_) {
      if (p.crashes != 0) {
        crash_tl.append(static_cast<double>(p.pass),
                        static_cast<double>(p.crashes));
      }
      if (p.recovered_docs != 0) {
        recovery_tl.append(static_cast<double>(p.pass),
                           static_cast<double>(p.recovered_docs));
      }
    }
  }
}

}  // namespace dprank
