#pragma once

// Incremental pagerank updates on document insert/delete (§3.1, §4.7,
// Fig. 2).
//
// After initial convergence, a new document is "immediately integrated":
// its rank is seeded with the initial constant (1.0) and each out-link
// receives an increment rank/outdeg. A receiving document adds the
// increment to its rank and, if the change is still significant relative
// to its rank (> epsilon), forwards d * increment / outdeg to its own
// out-links — the geometric decay pictured in Figure 2 (G sends 1/3, H
// forwards 1/6). A deletion withdraws the document's rank and the
// system reconverges (§3.1, §4.7).
//
// Table 4 measures, per insert, the longest propagation path and the set
// of documents reached ("node coverage ... an upper bound on the number
// of messages a document insert can generate").
//
// Structural writes other than the §3.1 insert (deletes, edge adds and
// removes, a stream batch of any of these) go through EmissionDiff. A
// delete changes more than the victim's own emissions: each of its in-link
// sources loses an out-link, so that source's rank must be re-spread over
// the links it keeps, or later cascades withdraw more per link than the
// link ever carried. EmissionDiff snapshots every source whose out-list
// changes, applies the change, and sends each old target
// -d * r_old / outdeg_old and each current target +d * r_new / outdeg_new
// in one inject_batch cascade. (On updating PageRank as vertices and
// edges change, see Engström, "PageRank for evolving link structures",
// arXiv:1401.6092.)
//
// Mass under deletion: the unnormalized Eq. 1 form carries rank mass ~N
// across the system. A deleted document's own mass leaves with it: its
// emissions are withdrawn and its (1-d) base share is not replaced, so
// the rank sum drops to the smaller graph's fixed point instead of being
// conserved. Stream consumers that audit mass must treat deletes as
// accounted withdrawals, not leaks. The deleted document's rank is zeroed
// in the same write that isolates it, so no query can serve a rank for a
// document that no longer exists.

#include <cstdint>
#include <utility>
#include <vector>

#include "graph/digraph.hpp"
#include "graph/mutable_digraph.hpp"
#include "p2p/placement.hpp"
#include "pagerank/options.hpp"

namespace dprank {

struct PropagationStats {
  std::uint64_t updates_delivered = 0;   // total update messages
  std::uint64_t cross_peer_messages = 0; // subset crossing peers (needs placement)
  std::uint64_t nodes_covered = 0;       // distinct documents updated
  std::uint32_t path_length = 0;         // longest chain of forwards
};

/// Increment propagator over a converged rank vector. Operates on a CSR
/// graph for the Table 4 sweeps; `probe` mode restores ranks afterwards
/// so thousands of independent inserts can be measured cheaply.
class IncrementalPagerank {
 public:
  /// `placement` may be nullptr; cross_peer_messages is then zero and all
  /// updates count as deliveries only.
  IncrementalPagerank(const Digraph& g, std::vector<double>& ranks,
                      const PagerankOptions& options,
                      const Placement* placement = nullptr);
  IncrementalPagerank(Digraph&&, std::vector<double>&, PagerankOptions,
                      const Placement*) = delete;

  /// Paper's Table 4 experiment: re-seed an existing document with the
  /// initial rank and propagate increments from it. Mutates ranks.
  PropagationStats seed_and_propagate(NodeId node);

  /// Same, but restores all touched ranks before returning (measurement
  /// probe; the rank vector is unchanged afterwards).
  PropagationStats probe_insert(NodeId node);

  /// §3.1 insert of a document the snapshot just gained (out-links only,
  /// no in-links yet): seed_and_propagate, then "the system eventually
  /// reconverges" the document itself to its no-in-link fixed point
  /// (1-d) and propagates that correction like any other update.
  /// cross_peer_messages bills the seed's messages and both cascades;
  /// nodes_covered counts distinct documents reached. last_touched()
  /// afterwards holds the document and every document either cascade
  /// moved, once each. Mutates ranks.
  PropagationStats seed_and_correct(NodeId node);

  /// Raw increment injection: deliver `delta` to `node` at depth 0 and
  /// run the cascade. Mutates ranks.
  PropagationStats inject(NodeId node, double delta);

  /// Batched, coalesced injection — the streaming-ingest entry point:
  /// deliver every (node, delta) seed at depth 0 in ONE cascade.
  /// Duplicate nodes are coalesced first (deltas summed, ascending node
  /// order), so a document hit by several events in a batch receives one
  /// delivery and at most one forward fan-out instead of one cascade per
  /// event. Numerically equivalent to per-event inject() within the
  /// epsilon truncation tolerance (the significance test sees the summed
  /// delta rather than each piece). Mutates ranks.
  PropagationStats inject_batch(std::vector<std::pair<NodeId, double>> deltas);

  /// Distinct documents whose rank the most recent cascade changed
  /// (valid until the next cascade; empty after probe_insert, which
  /// restores every touched rank). Populated by every mutating entry
  /// point: seed_and_propagate and seed_and_correct include the seeded
  /// document itself (its rank was rewritten even though the cascade
  /// stats do not count it), inject and inject_batch include the
  /// injection points. Consumers use this to refresh dependent state,
  /// e.g. index entries (§2.4.2) or a live top-k cache. May therefore
  /// hold one more entry than PropagationStats::nodes_covered.
  [[nodiscard]] const std::vector<NodeId>& last_touched() const {
    return last_touched_;
  }

 private:
  struct WorkItem {
    NodeId node;
    double delta;
    std::uint32_t depth;
  };

  PropagationStats run_cascade(std::vector<WorkItem> initial, bool restore);
  void deliver(const WorkItem& item, PropagationStats& stats,
               std::vector<WorkItem>& queue, bool restore);
  /// Seed `node` with the initial rank and cascade from it; `restore`
  /// undoes every rank change afterwards (probe_insert).
  PropagationStats seed(NodeId node, bool restore);

  const Digraph& graph_;
  std::vector<double>& ranks_;
  PagerankOptions options_;
  const Placement* placement_;

  // probe bookkeeping: first-touch undo log + covered markers
  std::vector<std::pair<NodeId, double>> undo_log_;
  std::vector<std::uint32_t> covered_epoch_;
  std::uint32_t epoch_ = 0;
  std::vector<NodeId> last_touched_;
};

/// The one write path for structural changes (see the header comment).
/// A write is: (1) touch() every source before its out-list changes,
/// (2) apply the change to the graph and mark_deleted() the documents it
/// deleted, (3) commit() once, which diffs the emissions and runs the
/// cascade. Dead targets receive nothing: a deleted document's mass
/// leaves with it.
class EmissionDiff {
 public:
  /// `placement` may be nullptr; cross_peer_messages is then zero. With
  /// a placement, commit() bills one message per (source, target) pair
  /// whose emission changed and that crosses peers, plus the cascade's
  /// cross-peer forwards. Throws std::invalid_argument unless `ranks`
  /// covers `g`.
  EmissionDiff(MutableDigraph& g, std::vector<double>& ranks,
               const PagerankOptions& options,
               const Placement* placement = nullptr);

  /// Record `u`'s rank and out-list on first touch; later touches
  /// are no-ops. Call BEFORE u's out-list changes. An id the graph just
  /// allocated (an insert) grows `ranks`: the document enters at its
  /// no-in-link fixed point (1-d). Throws std::out_of_range for an id the
  /// graph does not have.
  void touch(NodeId u);

  /// `v` was deleted by this write (touched, then isolated): its rank is
  /// zeroed and it receives no emissions. Throws std::logic_error if `v`
  /// was not touched first, since its old emissions would go unwithdrawn.
  void mark_deleted(NodeId v);

  /// A whole document delete: touch `v` and each of its in-link sources,
  /// isolate `v`, mark_deleted(v). Throws std::out_of_range for an id
  /// the graph does not have.
  void remove_document(NodeId v);

  /// Emit the per-(source, target) deltas, old emissions first, each
  /// source in first-touch order, and run one inject_batch cascade over a
  /// snapshot of the changed graph. Call once.
  PropagationStats commit();

  /// (source, target) deltas the commit emitted, before inject_batch
  /// coalesced them per target.
  [[nodiscard]] std::uint64_t seeds() const { return seeds_; }

  /// After commit(), ascending and once each: every document the cascade
  /// moved, plus the inserted and deleted ones.
  [[nodiscard]] const std::vector<NodeId>& last_touched() const {
    return last_touched_;
  }

 private:
  struct Source {
    NodeId node;
    double rank;
    std::vector<NodeId> outs;
  };
  enum : std::uint8_t { kUntouched = 0, kTouched = 1, kDeleted = 2 };

  MutableDigraph& graph_;
  std::vector<double>& ranks_;
  PagerankOptions options_;
  const Placement* placement_;
  std::vector<Source> sources_;  // first-touch order
  std::vector<std::uint8_t> state_;
  std::uint64_t seeds_ = 0;
  std::vector<NodeId> last_touched_;
};

/// Full document insertion against a mutable graph: adds the node with
/// its out-links and runs IncrementalPagerank::seed_and_correct on a CSR
/// snapshot. Convenience used by examples/tests; the Table 4 bench uses
/// IncrementalPagerank directly.
PropagationStats insert_document(MutableDigraph& g,
                                 std::vector<double>& ranks,
                                 const std::vector<NodeId>& out_links,
                                 const PagerankOptions& options,
                                 NodeId* new_id_out = nullptr);

/// Full document deletion: EmissionDiff::remove_document, then commit.
PropagationStats delete_document(MutableDigraph& g,
                                 std::vector<double>& ranks, NodeId node,
                                 const PagerankOptions& options);

}  // namespace dprank
