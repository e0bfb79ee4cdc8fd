#include "pagerank/incremental.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "graph/generator.hpp"
#include "pagerank/centralized.hpp"
#include "pagerank/quality.hpp"

namespace dprank {
namespace {

PagerankOptions opts(double eps, double d = 0.85) {
  PagerankOptions o;
  o.epsilon = eps;
  o.damping = d;
  return o;
}

TEST(Incremental, Figure2ExactIncrements) {
  // The paper's Figure 2 with d = 1: G (rank 1, 3 outlinks) sends 1/3 to
  // H, I, J; H (2 outlinks) forwards 1/6 to K and L.
  const Digraph g = figure2_graph();
  std::vector<double> ranks(6, 0.0);
  IncrementalPagerank engine(g, ranks, opts(1e-9, /*d=*/1.0));
  const auto stats = engine.seed_and_propagate(0);

  EXPECT_DOUBLE_EQ(ranks[0], 1.0);        // G seeded
  EXPECT_DOUBLE_EQ(ranks[1], 1.0 / 3.0);  // H
  EXPECT_DOUBLE_EQ(ranks[2], 1.0 / 3.0);  // I
  EXPECT_DOUBLE_EQ(ranks[3], 1.0 / 3.0);  // J
  EXPECT_DOUBLE_EQ(ranks[4], 1.0 / 6.0);  // K
  EXPECT_DOUBLE_EQ(ranks[5], 1.0 / 6.0);  // L

  EXPECT_EQ(stats.nodes_covered, 5u);
  EXPECT_EQ(stats.updates_delivered, 5u);
  EXPECT_EQ(stats.path_length, 2u);  // G -> H -> {K, L}
}

TEST(Incremental, Figure2WithDamping) {
  const Digraph g = figure2_graph();
  std::vector<double> ranks(6, 0.0);
  IncrementalPagerank engine(g, ranks, opts(1e-9, 0.85));
  (void)engine.seed_and_propagate(0);
  EXPECT_DOUBLE_EQ(ranks[1], 0.85 / 3.0);
  EXPECT_DOUBLE_EQ(ranks[4], 0.85 * (0.85 / 3.0) / 2.0);
}

TEST(Incremental, ThresholdStopsPropagation) {
  // With a large epsilon the H -> K/L forwards are suppressed.
  const Digraph g = figure2_graph();
  std::vector<double> ranks(6, 1.0);  // relative change 1/3 on H et al.
  IncrementalPagerank engine(g, ranks, opts(/*eps=*/0.5, 1.0));
  const auto stats = engine.seed_and_propagate(0);
  EXPECT_EQ(stats.path_length, 1u);      // only G's direct outlinks
  EXPECT_EQ(stats.nodes_covered, 3u);    // H, I, J
  EXPECT_DOUBLE_EQ(ranks[4], 1.0);       // K untouched
}

TEST(Incremental, ProbeRestoresRanks) {
  const Digraph g = paper_graph(2000, 5);
  std::vector<double> ranks = centralized_pagerank(g, 0.85).ranks;
  const auto before = ranks;
  IncrementalPagerank engine(g, ranks, opts(1e-4));
  const auto stats = engine.probe_insert(123);
  EXPECT_GT(stats.updates_delivered, 0u);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    ASSERT_DOUBLE_EQ(ranks[v], before[v]) << "node " << v;
  }
}

TEST(Incremental, ProbesAreIndependent) {
  const Digraph g = paper_graph(2000, 6);
  std::vector<double> ranks = centralized_pagerank(g, 0.85).ranks;
  IncrementalPagerank engine(g, ranks, opts(1e-4));
  const auto first = engine.probe_insert(7);
  (void)engine.probe_insert(1234);
  const auto again = engine.probe_insert(7);
  EXPECT_EQ(first.updates_delivered, again.updates_delivered);
  EXPECT_EQ(first.nodes_covered, again.nodes_covered);
  EXPECT_EQ(first.path_length, again.path_length);
}

TEST(Incremental, CoverageGrowsAsEpsilonShrinks) {
  // Table 4: node coverage grows roughly linearly in 1/epsilon.
  const Digraph g = paper_graph(10'000, 7);
  std::vector<double> ranks = centralized_pagerank(g, 0.85).ranks;
  IncrementalPagerank engine(g, ranks, opts(1e-1));
  std::uint64_t prev_coverage = 0;
  std::uint32_t prev_path = 0;
  for (const double eps : {1e-1, 1e-2, 1e-3}) {
    IncrementalPagerank probe(g, ranks, opts(eps));
    // Average a few source nodes to damp variance.
    std::uint64_t coverage = 0;
    std::uint32_t path = 0;
    for (const NodeId src : {11u, 222u, 3333u}) {
      const auto s = probe.probe_insert(src);
      coverage += s.nodes_covered;
      path = std::max(path, s.path_length);
    }
    EXPECT_GE(coverage, prev_coverage);
    EXPECT_GE(path, prev_path);
    prev_coverage = coverage;
    prev_path = path;
  }
  EXPECT_GT(prev_coverage, 3u);
}

TEST(Incremental, InsertThenExactRecomputeAgree) {
  // After inserting a real document, the incrementally updated ranks
  // must match a from-scratch centralized solve on the new graph, within
  // the propagation tolerance.
  const Digraph base = paper_graph(1000, 8);
  MutableDigraph g(base);
  std::vector<double> ranks = centralized_pagerank(base, 0.85, 1e-13).ranks;

  NodeId new_id = 0;
  const auto stats = insert_document(g, ranks, {5, 17, 400}, opts(1e-7),
                                     &new_id);
  EXPECT_EQ(new_id, 1000u);
  EXPECT_GT(stats.updates_delivered, 0u);

  const auto exact = centralized_pagerank(g.freeze(), 0.85, 1e-13).ranks;
  const auto q = summarize_quality(ranks, exact);
  EXPECT_LT(q.max, 1e-4);
}

TEST(Incremental, DeleteThenExactRecomputeAgree) {
  const Digraph base = paper_graph(1000, 9);
  MutableDigraph g(base);
  std::vector<double> ranks = centralized_pagerank(base, 0.85, 1e-13).ranks;

  // A victim with out-links and several in-links: the delete withdraws
  // its emissions AND re-spreads each in-link source's rank over the
  // links that source keeps.
  NodeId victim = base.num_nodes();
  for (NodeId v = 0; v < base.num_nodes(); ++v) {
    if (base.out_degree(v) > 0 && base.in_degree(v) >= 3) {
      victim = v;
      break;
    }
  }
  ASSERT_LT(victim, base.num_nodes());
  const auto stats = delete_document(g, ranks, victim, opts(1e-7));
  EXPECT_GT(stats.updates_delivered, 0u);
  EXPECT_TRUE(g.is_isolated(victim));
  EXPECT_DOUBLE_EQ(ranks[victim], 0.0);

  auto exact = centralized_pagerank(g.freeze(), 0.85, 1e-13).ranks;
  exact[victim] = 0.0;  // deleted doc carries no rank in either view
  const auto q = summarize_quality(ranks, exact);
  EXPECT_LT(q.max, 1e-4);
}

TEST(Incremental, InsertThenDeleteIsNoOp) {
  // Inserting a document and immediately deleting it must return every
  // other rank to its original value (within tolerance).
  const Digraph base = paper_graph(1000, 10);
  MutableDigraph g(base);
  std::vector<double> ranks = centralized_pagerank(base, 0.85, 1e-13).ranks;
  const auto before = ranks;

  NodeId id = 0;
  (void)insert_document(g, ranks, {3, 50, 700}, opts(1e-9), &id);
  (void)delete_document(g, ranks, id, opts(1e-9));

  // Truncation residue per cascade is bounded relative to each node's
  // rank (the stopping rule is relative), so compare relatively.
  for (NodeId v = 0; v < base.num_nodes(); ++v) {
    ASSERT_NEAR(ranks[v], before[v], 1e-4 * std::max(1.0, before[v]))
        << "node " << v;
  }
}

TEST(Incremental, CrossPeerMessagesCounted) {
  const Digraph g = paper_graph(2000, 11);
  std::vector<double> ranks = centralized_pagerank(g, 0.85).ranks;
  const auto placement = Placement::random(2000, 50, 11);
  IncrementalPagerank engine(g, ranks, opts(1e-3), &placement);
  const auto stats = engine.probe_insert(42);
  EXPECT_LE(stats.cross_peer_messages, stats.updates_delivered);
  // With 50 peers, ~98% of links cross peers.
  if (stats.updates_delivered > 20) {
    EXPECT_GT(stats.cross_peer_messages, stats.updates_delivered / 2);
  }
}

TEST(Incremental, ValidatesNodeIds) {
  const Digraph g = figure2_graph();
  std::vector<double> ranks(6, 1.0);
  IncrementalPagerank engine(g, ranks, opts(1e-3));
  EXPECT_THROW(engine.seed_and_propagate(6), std::out_of_range);
  EXPECT_THROW(engine.probe_insert(100), std::out_of_range);
  EXPECT_THROW(engine.seed_and_correct(6), std::out_of_range);
  EXPECT_THROW(engine.inject(6, 0.1), std::out_of_range);
  MutableDigraph mg(g);
  EmissionDiff diff(mg, ranks, opts(1e-3));
  EXPECT_THROW(diff.remove_document(6), std::out_of_range);
  EXPECT_THROW(diff.touch(6), std::out_of_range);
}

TEST(Incremental, RankVectorSizeValidated) {
  const Digraph g = figure2_graph();
  std::vector<double> wrong(5, 1.0);
  EXPECT_THROW(IncrementalPagerank(g, wrong, opts(1e-3)),
               std::invalid_argument);
}

TEST(Incremental, LastTouchedPopulatedByEveryMutatingEntryPoint) {
  const Digraph g = figure2_graph();

  {  // seed_and_propagate: seed + cascade targets
    std::vector<double> ranks(6, 0.0);
    IncrementalPagerank engine(g, ranks, opts(1e-9, 1.0));
    (void)engine.seed_and_propagate(0);
    const auto& touched = engine.last_touched();
    EXPECT_EQ(touched.size(), 6u);  // G itself + H, I, J, K, L
    EXPECT_NE(std::find(touched.begin(), touched.end(), 0u), touched.end())
        << "seed node missing from last_touched";
  }
  {  // seed_and_correct: seed + both cascades, each document once
    std::vector<double> ranks(6, 0.0);
    IncrementalPagerank engine(g, ranks, opts(1e-9, 1.0));
    const auto stats = engine.seed_and_correct(0);
    auto touched = engine.last_touched();
    EXPECT_EQ(touched.size(), 6u);  // G itself + H, I, J, K, L
    EXPECT_EQ(stats.nodes_covered, 5u);
    std::sort(touched.begin(), touched.end());
    EXPECT_EQ(std::unique(touched.begin(), touched.end()), touched.end());
  }
  {  // EmissionDiff delete: the deleted document + its cascade targets
    std::vector<double> ranks(6, 1.0);
    MutableDigraph mg(g);
    EmissionDiff diff(mg, ranks, opts(1e-9, 1.0));
    diff.remove_document(0);
    (void)diff.commit();
    const auto& touched = diff.last_touched();
    EXPECT_NE(std::find(touched.begin(), touched.end(), 0u), touched.end())
        << "deleted node missing from last_touched";
    EXPECT_GE(touched.size(), 4u);  // G + at least H, I, J
  }
  {  // inject: the injection point
    std::vector<double> ranks(6, 1.0);
    IncrementalPagerank engine(g, ranks, opts(1e-9, 1.0));
    (void)engine.inject(4, 0.25);
    const auto& touched = engine.last_touched();
    EXPECT_NE(std::find(touched.begin(), touched.end(), 4u), touched.end());
  }
  {  // probe_insert restores everything: nothing stays touched
    std::vector<double> ranks(6, 1.0);
    IncrementalPagerank engine(g, ranks, opts(1e-9, 1.0));
    (void)engine.probe_insert(0);
    EXPECT_TRUE(engine.last_touched().empty());
  }
}

TEST(Incremental, InjectBatchCoalescesDuplicates) {
  // Two deltas to H coalesce into one delivery whose significance test
  // sees the sum; the result matches a single inject of the sum.
  const Digraph g = figure2_graph();
  std::vector<double> batched(6, 1.0);
  std::vector<double> single(6, 1.0);
  {
    IncrementalPagerank engine(g, batched, opts(1e-9, 1.0));
    const auto stats = engine.inject_batch({{1, 0.1}, {1, 0.2}});
    EXPECT_EQ(stats.updates_delivered, 3u);  // H once, then K and L
    EXPECT_NE(std::find(engine.last_touched().begin(),
                        engine.last_touched().end(), 1u),
              engine.last_touched().end());
  }
  {
    IncrementalPagerank engine(g, single, opts(1e-9, 1.0));
    (void)engine.inject(1, 0.3);
  }
  for (NodeId v = 0; v < 6; ++v) {
    ASSERT_DOUBLE_EQ(batched[v], single[v]) << "node " << v;
  }
}

TEST(Incremental, InjectBatchValidatesNodeIds) {
  const Digraph g = figure2_graph();
  std::vector<double> ranks(6, 1.0);
  IncrementalPagerank engine(g, ranks, opts(1e-3));
  EXPECT_THROW(engine.inject_batch({{1, 0.1}, {6, 0.1}}), std::out_of_range);
}

TEST(Incremental, EmissionDiffDeleteLeavesNoDanglingRank) {
  const Digraph base = paper_graph(500, 12);
  MutableDigraph g(base);
  std::vector<double> ranks = centralized_pagerank(base, 0.85, 1e-13).ranks;
  EmissionDiff diff(g, ranks, opts(1e-7));

  const NodeId victim = 42;
  diff.remove_document(victim);
  (void)diff.commit();
  EXPECT_TRUE(g.is_isolated(victim));
  EXPECT_DOUBLE_EQ(ranks[victim], 0.0);
  const auto& touched = diff.last_touched();
  EXPECT_NE(std::find(touched.begin(), touched.end(), victim), touched.end());

  // A rank vector that does not cover the graph is rejected.
  MutableDigraph other(NodeId{3});
  EXPECT_THROW(EmissionDiff(other, ranks, opts(1e-7)), std::invalid_argument);
}

TEST(Incremental, EmissionDiffRespreadsInLinkSources) {
  // 0 -> {1, 2}, 1 -> {2}: deleting 2 leaves 0 with one out-link, so 1
  // gains 0's whole share, d * r0, instead of half of it; 1's emission
  // to 2 dies with 2.
  MutableDigraph g(NodeId{3});
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 2);
  std::vector<double> ranks{1.0, 1.0, 1.0};
  EmissionDiff diff(g, ranks, opts(1e-12, 0.5));
  diff.remove_document(2);
  const auto stats = diff.commit();
  EXPECT_EQ(diff.seeds(), 2u);  // 0 -> 1 withdrawn and re-sent; 2 is dead
  EXPECT_EQ(stats.updates_delivered, 1u);  // one coalesced delta, to 1
  EXPECT_DOUBLE_EQ(ranks[0], 1.0);
  EXPECT_DOUBLE_EQ(ranks[1], 1.0 + 0.5 * 1.0 - 0.5 * 1.0 / 2.0);
  EXPECT_DOUBLE_EQ(ranks[2], 0.0);
}

TEST(Incremental, EmissionDiffBillsEachCrossPeerPairOnce) {
  // 0 -> {1, 2}, all on different peers; removing edge 0 -> 2 changes
  // the emission on 0 -> 1 (one message carries both halves) and
  // withdraws 0 -> 2: two seed messages. 1 and 2 have no out-links, so
  // the cascade forwards nothing.
  MutableDigraph g(NodeId{3});
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  std::vector<double> ranks{1.0, 1.0, 1.0};
  const auto placement = Placement::random(3, 1000, 5);
  ASSERT_NE(placement.peer_of(0), placement.peer_of(1));
  ASSERT_NE(placement.peer_of(0), placement.peer_of(2));
  EmissionDiff diff(g, ranks, opts(1e-9), &placement);
  diff.touch(0);
  g.remove_edge(0, 2);
  const auto stats = diff.commit();
  EXPECT_EQ(diff.seeds(), 3u);
  EXPECT_EQ(stats.cross_peer_messages, 2u);
}

TEST(Incremental, EmissionDiffDeleteNeedsTouchFirst) {
  MutableDigraph g(NodeId{2});
  g.add_edge(0, 1);
  std::vector<double> ranks{1.0, 1.0};
  EmissionDiff diff(g, ranks, opts(1e-9));
  g.isolate_node(1);  // isolated behind the diff's back: 0's old
                      // emissions were never snapshotted
  EXPECT_THROW(diff.mark_deleted(1), std::logic_error);
}

TEST(Incremental, IsolateNodeReturnsRemovedEdgeCount) {
  MutableDigraph g(NodeId{4});
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(3, 0);
  EXPECT_EQ(g.isolate_node(0), 3u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.isolate_node(0), 0u);
}

TEST(Incremental, DanglingSeedSendsNothing) {
  const Digraph g = figure2_graph();
  std::vector<double> ranks(6, 0.5);
  IncrementalPagerank engine(g, ranks, opts(1e-6));
  const auto stats = engine.seed_and_propagate(4);  // K has no outlinks
  EXPECT_EQ(stats.updates_delivered, 0u);
  EXPECT_EQ(stats.nodes_covered, 0u);
  EXPECT_DOUBLE_EQ(ranks[4], 1.0);  // still seeded
}

}  // namespace
}  // namespace dprank
