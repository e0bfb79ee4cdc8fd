#include "pagerank/incremental.hpp"

#include <algorithm>
#include <stdexcept>

namespace dprank {

namespace {
// Safety valve against non-terminating cascades. Unreachable for
// damping < 1 (increments decay geometrically), but a damping-1 graph
// with a cycle of out-degree-1 documents would otherwise loop forever.
constexpr std::uint32_t kMaxCascadeDepth = 1'000'000;
}  // namespace

IncrementalPagerank::IncrementalPagerank(const Digraph& g,
                                         std::vector<double>& ranks,
                                         const PagerankOptions& options,
                                         const Placement* placement)
    : graph_(g), ranks_(ranks), options_(options), placement_(placement) {
  if (ranks.size() != g.num_nodes()) {
    throw std::invalid_argument("IncrementalPagerank: rank vector size");
  }
  covered_epoch_.assign(g.num_nodes(), 0);
}

PropagationStats IncrementalPagerank::run_cascade(
    std::vector<WorkItem> queue, bool restore) {
  ++epoch_;
  undo_log_.clear();
  last_touched_.clear();
  PropagationStats stats;
  std::size_t head = 0;
  while (head < queue.size()) {
    const WorkItem item = queue[head++];
    deliver(item, stats, queue, restore);
  }
  if (restore) {
    // Undo in reverse order; the first-touch log restores the
    // pre-cascade value of every mutated document.
    for (auto it = undo_log_.rbegin(); it != undo_log_.rend(); ++it) {
      ranks_[it->first] = it->second;
    }
    last_touched_.clear();  // nothing actually changed
  }
  return stats;
}

void IncrementalPagerank::deliver(const WorkItem& item,
                                  PropagationStats& stats,
                                  std::vector<WorkItem>& queue,
                                  bool restore) {
  const NodeId v = item.node;
  if (restore && covered_epoch_[v] != epoch_) {
    undo_log_.emplace_back(v, ranks_[v]);
  }
  if (covered_epoch_[v] != epoch_) {
    covered_epoch_[v] = epoch_;
    ++stats.nodes_covered;
    last_touched_.push_back(v);
  }
  ++stats.updates_delivered;
  stats.path_length = std::max(stats.path_length, item.depth);

  const double newrank = ranks_[v] + item.delta;
  const double rel = relative_change(ranks_[v], newrank);
  ranks_[v] = newrank;
  if (rel <= options_.epsilon) return;  // increment no longer significant
  const auto deg = graph_.out_degree(v);
  if (deg == 0 || item.depth >= kMaxCascadeDepth) return;

  const double fwd =
      options_.damping * item.delta / static_cast<double>(deg);
  const PeerId pv =
      placement_ != nullptr ? placement_->peer_of(v) : kInvalidPeer;
  for (const NodeId w : graph_.out_neighbors(v)) {
    if (placement_ != nullptr && placement_->peer_of(w) != pv) {
      ++stats.cross_peer_messages;
    }
    queue.push_back({w, fwd, item.depth + 1});
  }
}

PropagationStats IncrementalPagerank::seed(NodeId node, bool restore) {
  if (node >= graph_.num_nodes()) {
    throw std::out_of_range("IncrementalPagerank: bad seed node");
  }
  const double old = ranks_[node];
  ranks_[node] = options_.initial_rank;
  // A document with rank R contributes R/outdeg on each out-link; the
  // damped effect on each target's rank is d * R / outdeg (Fig. 2 shows
  // the d = 1 case: 1/3 then 1/6). Cross-peer seed messages are billed
  // when a placement is attached.
  const double share = options_.damping * options_.initial_rank;
  const auto deg = static_cast<double>(graph_.out_degree(node));
  const PeerId pn =
      placement_ != nullptr ? placement_->peer_of(node) : kInvalidPeer;
  std::uint64_t cross = 0;
  std::vector<WorkItem> items;
  items.reserve(graph_.out_degree(node));
  for (const NodeId w : graph_.out_neighbors(node)) {
    if (placement_ != nullptr && placement_->peer_of(w) != pn) ++cross;
    items.push_back({w, share / deg, 1});
  }
  auto stats = run_cascade(std::move(items), restore);
  stats.cross_peer_messages += cross;
  if (restore) {
    ranks_[node] = old;
  } else if (covered_epoch_[node] != epoch_) {
    covered_epoch_[node] = epoch_;  // the seed's own rank was rewritten
    last_touched_.push_back(node);
  }
  return stats;
}

PropagationStats IncrementalPagerank::seed_and_propagate(NodeId node) {
  return seed(node, false);
}

PropagationStats IncrementalPagerank::probe_insert(NodeId node) {
  return seed(node, true);
}

PropagationStats IncrementalPagerank::seed_and_correct(NodeId node) {
  // §3.1: seed with the initial constant and send updates to out-links...
  PropagationStats stats = seed_and_propagate(node);
  std::vector<NodeId> touched = last_touched_;
  // ...then "the system eventually reconverges": the new document has no
  // in-links yet, so its own recompute settles at (1-d); the correction
  // relative to the seed propagates like any other update.
  const double true_rank = 1.0 - options_.damping;
  const double correction = true_rank - ranks_[node];
  ranks_[node] = true_rank;
  const auto deg = graph_.out_degree(node);
  if (deg > 0 && correction != 0.0) {
    const double fwd =
        options_.damping * correction / static_cast<double>(deg);
    for (const NodeId w : graph_.out_neighbors(node)) {
      const auto more = inject(w, fwd);
      stats.updates_delivered += more.updates_delivered;
      stats.cross_peer_messages += more.cross_peer_messages;
      stats.path_length = std::max(stats.path_length, more.path_length + 1);
      touched.insert(touched.end(), last_touched_.begin(),
                     last_touched_.end());
    }
  }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  stats.nodes_covered = touched.size() - 1;  // every document but the seed
  last_touched_ = std::move(touched);
  return stats;
}

PropagationStats IncrementalPagerank::inject(NodeId node, double delta) {
  return inject_batch({{node, delta}});
}

PropagationStats IncrementalPagerank::inject_batch(
    std::vector<std::pair<NodeId, double>> deltas) {
  for (const auto& entry : deltas) {
    if (entry.first >= graph_.num_nodes()) {
      throw std::out_of_range("inject_batch: bad node");
    }
  }
  // Coalesce: one seed delivery per document, ascending id order (the
  // deterministic order the streaming equivalence tests pin).
  std::sort(deltas.begin(), deltas.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<WorkItem> items;
  items.reserve(deltas.size());
  for (const auto& [node, delta] : deltas) {
    if (!items.empty() && items.back().node == node) {
      items.back().delta += delta;
    } else {
      items.push_back({node, delta, 0});
    }
  }
  return run_cascade(std::move(items), false);
}

EmissionDiff::EmissionDiff(MutableDigraph& g, std::vector<double>& ranks,
                           const PagerankOptions& options,
                           const Placement* placement)
    : graph_(g),
      ranks_(ranks),
      options_(options),
      placement_(placement),
      state_(g.num_nodes(), kUntouched) {
  if (ranks.size() != g.num_nodes()) {
    throw std::invalid_argument("EmissionDiff: rank vector size");
  }
}

void EmissionDiff::touch(NodeId u) {
  const NodeId n = graph_.num_nodes();
  if (u >= n) throw std::out_of_range("EmissionDiff::touch: bad node");
  if (state_.size() < n) state_.resize(n, kUntouched);
  if (state_[u] != kUntouched) return;  // first touch only
  state_[u] = kTouched;
  // A document the graph allocated since the diff began had no rank; it
  // enters at its no-in-link fixed point (1-d), where a §3.1 insert
  // settles too.
  const double rank = u < ranks_.size() ? ranks_[u] : 0.0;
  ranks_.resize(n, 1.0 - options_.damping);
  sources_.push_back({u, rank, graph_.out_neighbors(u)});
}

void EmissionDiff::mark_deleted(NodeId v) {
  if (v >= state_.size() || state_[v] == kUntouched) {
    throw std::logic_error(
        "EmissionDiff::mark_deleted: touch the document before deleting it");
  }
  state_[v] = kDeleted;
  ranks_[v] = 0.0;
}

void EmissionDiff::remove_document(NodeId v) {
  touch(v);
  for (const NodeId u : graph_.in_neighbors(v)) touch(u);
  graph_.isolate_node(v);
  mark_deleted(v);
}

PropagationStats EmissionDiff::commit() {
  state_.resize(graph_.num_nodes(), kUntouched);
  const double d = options_.damping;
  std::vector<std::pair<NodeId, double>> deltas;
  std::vector<std::pair<NodeId, NodeId>> crossing;  // (source, target)
  // A source of rank r sends d * r / |outs| on each link; a negative r
  // withdraws what it sent.
  const auto emit = [&](NodeId src, const std::vector<NodeId>& outs,
                        double rank) {
    if (outs.empty() || rank == 0.0) return;
    const double per = d * rank / static_cast<double>(outs.size());
    for (const NodeId w : outs) {
      if (state_[w] == kDeleted) continue;
      deltas.emplace_back(w, per);
      if (placement_ != nullptr &&
          placement_->peer_of(w) != placement_->peer_of(src)) {
        crossing.emplace_back(src, w);
      }
    }
  };
  for (const Source& s : sources_) {
    emit(s.node, s.outs, -s.rank);
    emit(s.node, graph_.out_neighbors(s.node), ranks_[s.node]);
    if (ranks_[s.node] != s.rank || state_[s.node] == kDeleted) {
      last_touched_.push_back(s.node);  // inserted or deleted
    }
  }
  seeds_ = deltas.size();
  // One message per (source, target) pair carries both halves.
  std::sort(crossing.begin(), crossing.end());
  const auto messages =
      std::unique(crossing.begin(), crossing.end()) - crossing.begin();

  const Digraph snapshot = graph_.freeze();
  IncrementalPagerank engine(snapshot, ranks_, options_, placement_);
  PropagationStats stats = engine.inject_batch(std::move(deltas));
  stats.cross_peer_messages += static_cast<std::uint64_t>(messages);
  last_touched_.insert(last_touched_.end(), engine.last_touched().begin(),
                       engine.last_touched().end());
  std::sort(last_touched_.begin(), last_touched_.end());
  last_touched_.erase(std::unique(last_touched_.begin(), last_touched_.end()),
                      last_touched_.end());
  return stats;
}

PropagationStats insert_document(MutableDigraph& g,
                                 std::vector<double>& ranks,
                                 const std::vector<NodeId>& out_links,
                                 const PagerankOptions& options,
                                 NodeId* new_id_out) {
  const NodeId id = g.add_document(out_links);
  ranks.push_back(options.initial_rank);
  if (new_id_out != nullptr) *new_id_out = id;
  const Digraph snapshot = g.freeze();
  IncrementalPagerank engine(snapshot, ranks, options);
  return engine.seed_and_correct(id);
}

PropagationStats delete_document(MutableDigraph& g,
                                 std::vector<double>& ranks, NodeId node,
                                 const PagerankOptions& options) {
  EmissionDiff diff(g, ranks, options);
  diff.remove_document(node);
  return diff.commit();
}

}  // namespace dprank
