#pragma once

// Adjacency-list digraph supporting document insertion and deletion.
//
// The incremental pagerank protocol (§3.1, §4.7) adds and removes
// documents from a live system: "adding a node is equivalent to adding an
// extra column and row to the A matrix", a delete removes them. CSR is
// the right layout for the large static sweeps, but mutation needs
// adjacency lists; MutableDigraph provides them and converts to/from
// Digraph so the two engines can share graphs.

#include <cstdint>
#include <vector>

#include "graph/digraph.hpp"

namespace dprank {

class MutableDigraph {
 public:
  MutableDigraph() = default;
  explicit MutableDigraph(const Digraph& g);
  explicit MutableDigraph(NodeId num_nodes);

  /// Append a new node with no edges; returns its id.
  NodeId add_node();

  /// Add a new node with the given out-links (a freshly inserted document
  /// "can only have outlinks. Since this is a new document, there cannot
  /// be inlinks already pointing to it", §4.7). Returns its id.
  NodeId add_document(const std::vector<NodeId>& out_links);

  /// Add edge u->v. Returns false (no-op) for self-loops and duplicates.
  bool add_edge(NodeId u, NodeId v);

  /// Remove edge u->v if present; returns whether it existed.
  bool remove_edge(NodeId u, NodeId v);

  /// Remove all edges incident to v (both directions), modelling a
  /// document deletion: "removing a document is equivalent to deleting
  /// its row and its corresponding column from the A matrix" (§4.7).
  /// The node id remains allocated but isolated (ids stay stable, as GUIDs
  /// do in a real DHT). Returns the number of edges removed.
  ///
  /// Rank-mass note: isolating a node is only the structural half of a
  /// document delete. The rank half — withdrawing the document's
  /// emissions, re-spreading each in-link source's rank over the links it
  /// keeps, and zeroing the document's own rank — must happen in the same
  /// write or the system is left holding rank that no live document
  /// backs. Use EmissionDiff (pagerank/incremental.hpp; the
  /// delete_document convenience wraps it) rather than calling this
  /// directly from ingest paths.
  std::uint64_t isolate_node(NodeId v);

  [[nodiscard]] bool is_isolated(NodeId v) const {
    return out_[v].empty() && in_[v].empty();
  }

  [[nodiscard]] NodeId num_nodes() const {
    return static_cast<NodeId>(out_.size());
  }
  [[nodiscard]] EdgeId num_edges() const { return num_edges_; }

  [[nodiscard]] const std::vector<NodeId>& out_neighbors(NodeId u) const {
    return out_[u];
  }
  [[nodiscard]] const std::vector<NodeId>& in_neighbors(NodeId v) const {
    return in_[v];
  }
  [[nodiscard]] std::uint32_t out_degree(NodeId u) const {
    return static_cast<std::uint32_t>(out_[u].size());
  }
  [[nodiscard]] std::uint32_t in_degree(NodeId v) const {
    return static_cast<std::uint32_t>(in_[v].size());
  }
  [[nodiscard]] bool has_edge(NodeId u, NodeId v) const;

  /// Snapshot to CSR.
  [[nodiscard]] Digraph freeze() const;

  /// Structural invariant walk (contracts.hpp; subsystem "graph"): the
  /// out- and in-adjacency lists are exact mirrors (u->v stored in
  /// out_[u] exactly once iff u stored in in_[v] exactly once), no
  /// self-loops or duplicate edges survive a mutation, every neighbor id
  /// is in range, and both degree sums equal num_edges(). O(E log E).
  /// Throws contracts::ContractViolation on the first violation; no-op
  /// when contracts are compiled out. The §4.7 incremental-update tests
  /// call this after every randomized insert/delete.
  void validate() const;

 private:
  friend struct TestCorruptor;  // negative invariant tests corrupt privates
  std::vector<std::vector<NodeId>> out_;
  std::vector<std::vector<NodeId>> in_;
  EdgeId num_edges_ = 0;
};

}  // namespace dprank
