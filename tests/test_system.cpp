#include "core/p2p_system.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "graph/generator.hpp"
#include "graph/mutable_digraph.hpp"
#include "pagerank/centralized.hpp"
#include "pagerank/quality.hpp"

namespace dprank {
namespace {

CorpusParams tiny_corpus() {
  CorpusParams p;
  p.num_docs = 1500;
  p.vocabulary = 200;
  p.mean_terms = 25;
  p.min_terms = 5;
  p.max_terms = 80;
  p.seed = 4;
  return p;
}

class SystemTest : public ::testing::Test {
 protected:
  SystemTest()
      : graph_(paper_graph(1500, 4)),
        corpus_(Corpus::synthesize(tiny_corpus())),
        system_(graph_, corpus_, make_config()) {}

  static P2PSystemConfig make_config() {
    P2PSystemConfig cfg;
    cfg.num_peers = 25;
    cfg.pagerank.epsilon = 1e-5;
    cfg.seed = 4;
    return cfg;
  }

  Digraph graph_;
  Corpus corpus_;
  P2PSystem system_;
};

TEST_F(SystemTest, RejectsMismatchedCorpus) {
  const Digraph small = paper_graph(100, 1);
  EXPECT_THROW(P2PSystem(small, corpus_, make_config()),
               std::invalid_argument);
}

TEST_F(SystemTest, MutationsRequireConvergeFirst) {
  EXPECT_THROW(system_.add_document({1, 2}, {0}), std::logic_error);
  EXPECT_THROW(system_.remove_document(0), std::logic_error);
}

TEST_F(SystemTest, ConvergeMatchesCentralized) {
  const auto passes = system_.converge();
  EXPECT_GT(passes, 1u);
  const auto ref = centralized_pagerank(graph_, 0.85, 1e-12).ranks;
  EXPECT_LT(summarize_quality(system_.ranks(), ref).p99, 1e-3);
  EXPECT_GT(system_.traffic().messages(), 0u);
}

TEST_F(SystemTest, SearchFindsDocumentsSortedByRank) {
  (void)system_.converge();
  const auto outcome = system_.search({0, 1}, kForwardEverything);
  ASSERT_FALSE(outcome.hits.empty());
  for (std::size_t i = 1; i < outcome.hits.size(); ++i) {
    EXPECT_GE(system_.rank_of(outcome.hits[i - 1]),
              system_.rank_of(outcome.hits[i]));
  }
}

TEST_F(SystemTest, AddDocumentAppearsInSearch) {
  (void)system_.converge();
  // Use two rare terms to make the new document findable precisely.
  const TermId rare_a = 198;
  const TermId rare_b = 199;
  const NodeId id = system_.add_document({rare_a, rare_b}, {1, 2, 3});
  EXPECT_EQ(id, 1500u);
  EXPECT_TRUE(system_.is_live(id));
  const auto outcome = system_.search({rare_a, rare_b}, kForwardEverything);
  EXPECT_TRUE(std::find(outcome.hits.begin(), outcome.hits.end(), id) !=
              outcome.hits.end());
}

TEST_F(SystemTest, AddDocumentKeepsRanksAccurate) {
  (void)system_.converge();
  std::vector<NodeId> ids;
  for (int i = 0; i < 5; ++i) {
    ids.push_back(system_.add_document(
        {static_cast<TermId>(i)},
        {static_cast<NodeId>(10 + i), static_cast<NodeId>(100 + i)}));
  }
  // Ground truth on the final topology.
  MutableDigraph g(graph_);
  for (int i = 0; i < 5; ++i) {
    g.add_document({static_cast<NodeId>(10 + i),
                    static_cast<NodeId>(100 + i)});
  }
  const auto exact = centralized_pagerank(g.freeze(), 0.85, 1e-12).ranks;
  const auto q = summarize_quality(system_.ranks(), exact);
  EXPECT_LT(q.max, 1e-2);
  EXPECT_LT(q.avg, 1e-4);
}

TEST_F(SystemTest, RemoveDocumentDisappearsEverywhere) {
  (void)system_.converge();
  // Find a document present in term 0's postings.
  const auto before = system_.search({0}, kForwardEverything);
  ASSERT_FALSE(before.hits.empty());
  const NodeId victim = before.hits.front();
  system_.remove_document(victim);
  EXPECT_FALSE(system_.is_live(victim));
  EXPECT_DOUBLE_EQ(system_.rank_of(victim), 0.0);
  const auto after = system_.search({0}, kForwardEverything);
  EXPECT_TRUE(std::find(after.hits.begin(), after.hits.end(), victim) ==
              after.hits.end());
  // Deleting twice is rejected.
  EXPECT_THROW(system_.remove_document(victim), std::invalid_argument);
}

TEST_F(SystemTest, LinksToDeadDocumentsRejected) {
  (void)system_.converge();
  const auto hits = system_.search({0}, kForwardEverything);
  ASSERT_FALSE(hits.hits.empty());
  const NodeId victim = hits.hits.front();
  system_.remove_document(victim);
  EXPECT_THROW(system_.add_document({5}, {victim}), std::invalid_argument);
}

TEST_F(SystemTest, IndexRefreshTracksCascadedRankChanges) {
  (void)system_.converge();
  const auto msgs_before = system_.traffic().messages();
  // Insert a document pointing at well-connected targets: the cascade
  // moves downstream ranks, which must cost index refresh messages on
  // top of the pagerank updates.
  (void)system_.add_document({3, 4}, {0, 1, 2});
  EXPECT_GT(system_.traffic().messages(), msgs_before);
}

TEST_F(SystemTest, ValidateHoldsThroughLifecycle) {
  (void)system_.converge();
  EXPECT_TRUE(system_.validate().empty());
  const NodeId a = system_.add_document({1, 2, 3}, {5, 6});
  EXPECT_TRUE(system_.validate().empty()) << "after insert";
  const NodeId b = system_.add_document({4}, {a});
  system_.remove_document(a);
  const auto issues = system_.validate();
  EXPECT_TRUE(issues.empty()) << "after delete: " << issues.front();
  system_.remove_document(b);
  EXPECT_TRUE(system_.validate().empty()) << "after second delete";
}

TEST_F(SystemTest, InsertDeleteRoundTripRestoresSearchResults) {
  (void)system_.converge();
  const auto before = system_.search({1, 2}, kForwardEverything);
  const NodeId id = system_.add_document({1, 2}, {7, 8});
  system_.remove_document(id);
  const auto after = system_.search({1, 2}, kForwardEverything);
  EXPECT_EQ(std::set<NodeId>(before.hits.begin(), before.hits.end()),
            std::set<NodeId>(after.hits.begin(), after.hits.end()));
}

TEST_F(SystemTest, IncrementalSearchPolicyWorksOnLiveSystem) {
  (void)system_.converge();
  SearchPolicy top10;
  top10.forward_fraction = 0.10;
  const auto base = system_.search({0, 1}, kForwardEverything);
  const auto inc = system_.search({0, 1}, top10);
  EXPECT_LE(inc.ids_transferred, base.ids_transferred);
  const std::set<NodeId> base_set(base.hits.begin(), base.hits.end());
  for (const NodeId d : inc.hits) EXPECT_TRUE(base_set.contains(d));
}

// The paper's search testbed (11k documents, 1880 terms, 50 peers; §4.9)
// with a mirror of its live graph, for checking ranks after deletes. A
// delete must re-spread each in-link source's rank over the links that
// source keeps; withdrawing only the victim's own emissions drove live
// ranks below the teleport floor within a few hundred deletes.
struct DeleteTestbed {
  explicit DeleteTestbed(std::uint64_t seed)
      : corpus(Corpus::synthesize({.seed = seed})),
        graph(paper_graph(corpus.num_docs(), seed)),
        mirror(graph),
        system(graph, corpus, config(seed)),
        rng(seed) {
    (void)system.converge();
  }

  static P2PSystemConfig config(std::uint64_t seed) {
    P2PSystemConfig cfg;
    cfg.num_peers = 50;
    cfg.seed = seed;
    return cfg;
  }

  NodeId random_live() {
    NodeId v = 0;
    do {
      v = static_cast<NodeId>(rng.bounded(system.num_documents()));
    } while (!system.is_live(v));
    return v;
  }

  void remove(NodeId v) {
    system.remove_document(v);
    mirror.isolate_node(v);
  }

  // validate() is clean, no live rank sits below half the teleport
  // floor, and the live ranks' mean relative error against a
  // centralized solve of the live graph is at most 5e-3.
  void expect_sound() const {
    const auto issues = system.validate();
    EXPECT_TRUE(issues.empty())
        << issues.size() << " issues, first: " << issues.front();
    const auto exact =
        centralized_pagerank(mirror.freeze(), 0.85, 1e-10).ranks;
    double min_rank = 1e300;
    double error = 0.0;
    std::uint64_t live = 0;
    for (NodeId d = 0; d < system.num_documents(); ++d) {
      if (!system.is_live(d)) continue;
      min_rank = std::min(min_rank, system.rank_of(d));
      error += std::abs(system.rank_of(d) - exact[d]) / exact[d];
      ++live;
    }
    EXPECT_GE(min_rank, 0.5 * (1.0 - 0.85));
    EXPECT_LE(error / static_cast<double>(live), 5e-3);
  }

  Corpus corpus;
  Digraph graph;
  MutableDigraph mirror;
  P2PSystem system;
  Rng rng;
};

class SystemDeleteSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SystemDeleteSeeds, RandomDeletesKeepRanksSound) {
  DeleteTestbed bed(GetParam());
  for (int i = 0; i < 400; ++i) bed.remove(bed.random_live());
  bed.expect_sound();
}

INSTANTIATE_TEST_SUITE_P(Testbed, SystemDeleteSeeds,
                         ::testing::Values(1u, 2u, 3u));

TEST(SystemDelete, InsertedDocumentsLinkingEachOther) {
  // Inserted documents link to earlier inserted ones, so deleting them
  // removes documents that have in-links from other new documents.
  DeleteTestbed bed(1);
  std::vector<NodeId> inserted;
  for (int i = 0; i < 60; ++i) {
    std::vector<NodeId> links{bed.random_live(), bed.random_live()};
    for (int k = 0; k < 3 && !inserted.empty(); ++k) {
      links.push_back(inserted[bed.rng.bounded(inserted.size())]);
    }
    inserted.push_back(bed.system.add_document({1, 2}, links));
    ASSERT_EQ(bed.mirror.add_document(links), inserted.back());
  }
  // Every other one, newest first, then as many random documents.
  for (std::size_t i = inserted.size(); i >= 2; i -= 2) {
    bed.remove(inserted[i - 1]);
  }
  for (int i = 0; i < 30; ++i) bed.remove(bed.random_live());
  bed.expect_sound();
}

}  // namespace
}  // namespace dprank
