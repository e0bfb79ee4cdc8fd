// Sequential-vs-parallel equivalence for DistributedPagerank.
//
// The contract under test (see distributed_engine.hpp): the thread count
// changes wall time only. For ANY configuration, running the same seeded
// experiment at --threads=1 and --threads=4 must produce bit-identical
// ranks, pass history, traffic ledger and convergence record — on the
// batched fast path (clean, churn) and on the sequential-exchange slow
// path (overlay, crash faults) alike.

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "dht/ring.hpp"
#include "fault/fault_plan.hpp"
#include "graph/generator.hpp"
#include "net/ip_cache.hpp"
#include "obs/metrics.hpp"
#include "p2p/churn.hpp"
#include "p2p/placement.hpp"
#include "pagerank/distributed_engine.hpp"

namespace dprank {
namespace {

constexpr NodeId kDocs = 2'000;
constexpr PeerId kPeers = 40;

struct Scenario {
  std::uint32_t threads = 1;
  std::uint64_t seed = 42;
  double availability = 1.0;  // < 1 = churn
  bool overlay = false;       // chord ring + ip cache (slow path)
  bool crash_faults = false;  // drop + crash plan + audit (slow path)
  bool coalesce = false;      // §4.6.1 batch billing (fast path only)
  std::uint64_t max_passes = 0;  // 0 = engine default
};

struct Capture {
  DistributedRunResult run;
  std::vector<double> ranks;
  std::vector<PassStats> history;
  std::uint64_t messages = 0;
  std::uint64_t batched_updates = 0;
  std::uint64_t local_updates = 0;
  std::uint64_t resends = 0;
  std::uint64_t hops = 0;
  std::uint64_t bytes = 0;
  std::uint64_t outbox_peak = 0;
};

Capture run_scenario(const Scenario& sc) {
  const Digraph g = paper_graph(kDocs, sc.seed);
  const auto placement = Placement::random(kDocs, kPeers, sc.seed);
  PagerankOptions o;
  o.epsilon = 1e-3;
  o.threads = sc.threads;
  o.coalesce_wire = sc.coalesce;
  if (sc.max_passes != 0) o.max_passes = sc.max_passes;
  DistributedPagerank engine(g, placement, o);

  const ChordRing ring(kPeers);
  IpCache cache(true);
  if (sc.overlay) engine.attach_overlay(ring, cache);

  std::optional<FaultPlan> plan;
  if (sc.crash_faults) {
    FaultPlanConfig fc;
    fc.drop_probability = 0.05;
    fc.crash_probability = 0.01;
    fc.crash_downtime_passes = 2;
    fc.acked_delivery = true;
    fc.seed = sc.seed;
    plan.emplace(fc);
    engine.attach_fault_plan(*plan);
    engine.enable_mass_audit();
  }

  Capture cap;
  if (sc.availability < 1.0) {
    ChurnSchedule churn(kPeers, sc.availability, sc.seed);
    cap.run = engine.run(&churn);
  } else {
    cap.run = engine.run();
  }
  cap.ranks = engine.ranks();
  cap.history = engine.pass_history();
  cap.messages = engine.traffic().messages();
  cap.batched_updates = engine.traffic().batched_updates();
  cap.local_updates = engine.traffic().local_updates();
  cap.resends = engine.traffic().resends();
  cap.hops = engine.traffic().hop_transmissions();
  cap.bytes = engine.traffic().bytes();
  cap.outbox_peak = engine.outbox_peak();
  return cap;
}

void expect_identical(const Capture& a, const Capture& b) {
  ASSERT_EQ(a.run.passes, b.run.passes);
  EXPECT_EQ(a.run.converged, b.run.converged);
  EXPECT_EQ(a.run.mass_ratio, b.run.mass_ratio);
  EXPECT_EQ(a.run.repair_rounds, b.run.repair_rounds);

  ASSERT_EQ(a.ranks.size(), b.ranks.size());
  for (std::size_t v = 0; v < a.ranks.size(); ++v) {
    ASSERT_EQ(a.ranks[v], b.ranks[v]) << "rank diverged at doc " << v;
  }

  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    const PassStats& x = a.history[i];
    const PassStats& y = b.history[i];
    ASSERT_EQ(x.pass, y.pass);
    EXPECT_EQ(x.docs_recomputed, y.docs_recomputed) << "pass " << i;
    EXPECT_EQ(x.messages_sent, y.messages_sent) << "pass " << i;
    EXPECT_EQ(x.messages_deferred, y.messages_deferred) << "pass " << i;
    EXPECT_EQ(x.messages_delivered_late, y.messages_delivered_late)
        << "pass " << i;
    EXPECT_EQ(x.local_updates, y.local_updates) << "pass " << i;
    EXPECT_EQ(x.max_peer_messages, y.max_peer_messages) << "pass " << i;
    EXPECT_EQ(x.max_rel_change, y.max_rel_change) << "pass " << i;
    EXPECT_EQ(x.crashes, y.crashes) << "pass " << i;
    EXPECT_EQ(x.recovered_docs, y.recovered_docs) << "pass " << i;
    EXPECT_EQ(x.retransmissions, y.retransmissions) << "pass " << i;
    EXPECT_EQ(x.repair_messages, y.repair_messages) << "pass " << i;
  }

  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.batched_updates, b.batched_updates);
  EXPECT_EQ(a.local_updates, b.local_updates);
  EXPECT_EQ(a.resends, b.resends);
  EXPECT_EQ(a.hops, b.hops);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.outbox_peak, b.outbox_peak);
}

const std::uint64_t kSeeds[] = {7, 21, 42};

TEST(ParallelEngine, CleanRunBitIdenticalAcrossThreadCounts) {
  for (const std::uint64_t seed : kSeeds) {
    SCOPED_TRACE(seed);
    const Capture seq = run_scenario({.threads = 1, .seed = seed});
    const Capture par = run_scenario({.threads = 4, .seed = seed});
    ASSERT_TRUE(seq.run.converged);
    expect_identical(seq, par);
  }
}

TEST(ParallelEngine, ChurnRunBitIdenticalAcrossThreadCounts) {
  for (const std::uint64_t seed : kSeeds) {
    SCOPED_TRACE(seed);
    const Capture seq =
        run_scenario({.threads = 1, .seed = seed, .availability = 0.7});
    const Capture par =
        run_scenario({.threads = 4, .seed = seed, .availability = 0.7});
    ASSERT_TRUE(seq.run.converged);
    ASSERT_GT(seq.outbox_peak, 0u);  // churn actually parked updates
    expect_identical(seq, par);
  }
}

TEST(ParallelEngine, OverlayRunBitIdenticalAcrossThreadCounts) {
  // Overlay runs take the sequential-exchange slow path (the ip cache
  // warms in emission order); only the compute phase parallelizes, and
  // the result must not notice.
  for (const std::uint64_t seed : kSeeds) {
    SCOPED_TRACE(seed);
    const Capture seq =
        run_scenario({.threads = 1, .seed = seed, .overlay = true});
    const Capture par =
        run_scenario({.threads = 4, .seed = seed, .overlay = true});
    ASSERT_TRUE(seq.run.converged);
    ASSERT_GT(seq.hops, seq.messages);  // DHT routing actually billed
    expect_identical(seq, par);
  }
}

TEST(ParallelEngine, CrashFaultRunBitIdenticalAcrossThreadCounts) {
  // Fault plans consume RNG draws in emission order — the slow path
  // keeps that order canonical, so the full drop/crash/recovery/audit
  // history must replay identically under any thread count.
  for (const std::uint64_t seed : kSeeds) {
    SCOPED_TRACE(seed);
    const Capture seq =
        run_scenario({.threads = 1, .seed = seed, .crash_faults = true});
    const Capture par =
        run_scenario({.threads = 4, .seed = seed, .crash_faults = true});
    ASSERT_TRUE(seq.run.converged);
    ASSERT_GT(seq.resends, 0u);  // faults actually fired
    expect_identical(seq, par);
  }
}

TEST(ParallelEngine, ChurnPlusCrashFaultsBitIdenticalAcrossThreadCounts) {
  // Churn layered on a crash plan may not converge before the cap (lost
  // mass keeps residuals hot); equivalence must hold either way, so the
  // run is capped and convergence deliberately not asserted.
  const Capture seq = run_scenario({.threads = 1,
                                    .seed = 42,
                                    .availability = 0.75,
                                    .crash_faults = true,
                                    .max_passes = 150});
  const Capture par = run_scenario({.threads = 4,
                                    .seed = 42,
                                    .availability = 0.75,
                                    .crash_faults = true,
                                    .max_passes = 150});
  expect_identical(seq, par);
}

TEST(ParallelEngine, ThreeThreadsMatchFourThreads) {
  // Odd worker counts shard differently; results may not notice.
  const Capture three = run_scenario({.threads = 3, .seed = 21});
  const Capture four = run_scenario({.threads = 4, .seed = 21});
  expect_identical(three, four);
}

TEST(ParallelEngine, CoalescedBillingKeepsRanksAndCountsUpdates) {
  // coalesce_wire changes the traffic model only: one wire message per
  // (source, destination) pair per pass carrying k updates behind a
  // header (§4.6.1). Convergence must be untouched and the ledger must
  // reconcile exactly against the per-update billing.
  const Capture plain = run_scenario({.threads = 1, .seed = 42});
  const Capture co = run_scenario({.threads = 1, .seed = 42, .coalesce = true});
  const Capture co4 = run_scenario({.threads = 4, .seed = 42, .coalesce = true});
  expect_identical(co, co4);  // billing mode composes with threading

  ASSERT_EQ(plain.run.passes, co.run.passes);
  ASSERT_EQ(plain.ranks.size(), co.ranks.size());
  for (std::size_t v = 0; v < co.ranks.size(); ++v) {
    ASSERT_EQ(plain.ranks[v], co.ranks[v]);
  }
  // Every delivered update rides in some batch: the coalesced run's
  // batched_updates equals the plain run's message count (clean run — no
  // outbox drains, which always bill per update).
  EXPECT_EQ(plain.batched_updates, 0u);
  EXPECT_EQ(co.batched_updates, plain.messages);
  EXPECT_LT(co.messages, plain.messages);  // coalescing actually batches
  // Wire framing: header per batch message plus payload per update.
  EXPECT_EQ(co.bytes, co.messages * 16u + co.batched_updates * 24u);
  EXPECT_EQ(co.local_updates, plain.local_updates);
  // Pass history counts wire messages, so it reconciles with the meter
  // in both billing modes.
  std::uint64_t sent = 0;
  for (const PassStats& p : co.history) sent += p.messages_sent;
  EXPECT_EQ(sent, co.messages);
}

// Billing order. threads=1 takes the fused exchange, which bills each
// source peer's destinations in first-touch order; threads=4 bills the
// batched exchange's buckets sorted by destination. Every consumer of
// the per-destination tally is a commutative integer sum, so the ledger
// and the batch-size histogram must come out identical either way.
struct Billing {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t batched_updates = 0;
  std::uint64_t local_updates = 0;
  obs::HistogramSummary batch;
  std::vector<std::pair<double, std::uint64_t>> batch_buckets;
  std::vector<PassStats> history;
};

Billing bill(std::uint32_t threads, bool coalesce, NodeId docs, PeerId peers,
             std::uint64_t seed) {
  const Digraph g = paper_graph(docs, seed);
  const auto placement = Placement::random(docs, peers, seed);
  PagerankOptions o;
  o.epsilon = 1e-3;
  o.threads = threads;
  o.coalesce_wire = coalesce;
  DistributedPagerank engine(g, placement, o);
  obs::MetricsRegistry reg;
  engine.attach_metrics(reg);
  EXPECT_TRUE(engine.run().converged);
  Billing b;
  b.messages = engine.traffic().messages();
  b.bytes = engine.traffic().bytes();
  b.batched_updates = engine.traffic().batched_updates();
  b.local_updates = engine.traffic().local_updates();
  const obs::Histogram& h = reg.histogram("pagerank.batch_size");
  b.batch = h.summarize();
  b.batch_buckets = h.buckets();
  b.history = engine.pass_history();
  return b;
}

void expect_same_billing(const Billing& a, const Billing& b) {
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.batched_updates, b.batched_updates);
  EXPECT_EQ(a.local_updates, b.local_updates);
  EXPECT_EQ(a.batch.count, b.batch.count);
  EXPECT_EQ(a.batch.sum, b.batch.sum);
  EXPECT_EQ(a.batch.min, b.batch.min);
  EXPECT_EQ(a.batch.max, b.batch.max);
  EXPECT_EQ(a.batch_buckets, b.batch_buckets);
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    EXPECT_EQ(a.history[i].messages_sent, b.history[i].messages_sent)
        << "pass " << i;
    EXPECT_EQ(a.history[i].max_peer_messages, b.history[i].max_peer_messages)
        << "pass " << i;
  }
}

TEST(ParallelEngine, BillingIsOrderFree) {
  for (const bool coalesce : {false, true}) {
    SCOPED_TRACE(coalesce ? "coalesced" : "per-update");
    const Billing fused = bill(1, coalesce, kDocs, kPeers, 42);
    const Billing sorted = bill(4, coalesce, kDocs, kPeers, 42);
    ASSERT_GT(fused.batch.count, 0u);
    ASSERT_GT(fused.batch.max, 1.0);  // multi-update batches were billed
    expect_same_billing(fused, sorted);
  }
}

TEST(ParallelEngine, BillingIsOrderFreeWhenOneSourceTouchesEveryPeer) {
  // Few peers, many documents: in pass 0 every document sends, so a
  // source peer reaches every destination (itself included) and keeps
  // emitting after its last first touch. The fused exchange's tally
  // stores at its cursor on every emission, so this case runs the
  // cursor one past num_peers entries.
  constexpr PeerId kFewPeers = 3;
  for (const bool coalesce : {false, true}) {
    SCOPED_TRACE(coalesce ? "coalesced" : "per-update");
    const Billing fused = bill(1, coalesce, kDocs, kFewPeers, 7);
    const Billing sorted = bill(4, coalesce, kDocs, kFewPeers, 7);
    ASSERT_FALSE(fused.history.empty());
    EXPECT_GT(fused.history[0].local_updates, 0u);
    if (coalesce) {
      // One wire message per remote destination: some source peer
      // billed all of the others in pass 0.
      EXPECT_EQ(fused.history[0].max_peer_messages, kFewPeers - 1);
    }
    expect_same_billing(fused, sorted);
  }
}

TEST(ParallelEngine, ThreadsBeyondPeersAreHarmless) {
  const Digraph g = paper_graph(60, 5);
  const auto placement = Placement::random(60, 3, 5);
  PagerankOptions o;
  o.epsilon = 1e-3;
  o.threads = 16;  // far more workers than peers
  DistributedPagerank engine(g, placement, o);
  const auto run = engine.run();
  EXPECT_TRUE(run.converged);

  PagerankOptions o1 = o;
  o1.threads = 1;
  DistributedPagerank ref(g, placement, o1);
  const auto ref_run = ref.run();
  ASSERT_EQ(ref_run.passes, run.passes);
  for (std::size_t v = 0; v < ref.ranks().size(); ++v) {
    ASSERT_EQ(ref.ranks()[v], engine.ranks()[v]);
  }
}

}  // namespace
}  // namespace dprank
