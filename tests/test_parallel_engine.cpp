// Sequential-vs-parallel equivalence for DistributedPagerank.
//
// The contract under test (see distributed_engine.hpp): the thread count
// changes wall time only. For ANY configuration, running the same seeded
// experiment at --threads=1 and --threads=4 must produce bit-identical
// ranks, pass history, traffic ledger and convergence record — hook-free
// (clean, churn) and with per-send hooks (overlay, crash faults, tracer)
// or replicas alike. Only the recompute runs on the pool; the one
// exchange runs on the calling thread.

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <vector>

#include "common/env.hpp"
#include "dht/ring.hpp"
#include "fault/fault_plan.hpp"
#include "graph/generator.hpp"
#include "net/ip_cache.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "p2p/churn.hpp"
#include "p2p/placement.hpp"
#include "p2p/replication.hpp"
#include "pagerank/distributed_engine.hpp"

namespace dprank {
namespace {

constexpr NodeId kDocs = 2'000;
constexpr PeerId kPeers = 40;

struct Scenario {
  std::uint32_t threads = 1;
  std::uint64_t seed = 42;
  double availability = 1.0;  // < 1 = churn
  bool overlay = false;       // chord ring + ip cache (per-send hook)
  bool crash_faults = false;  // drop + crash plan + audit (per-send hook)
  bool replicas = false;      // one replica per doc (per-edge fan-out)
  bool observed = false;      // mass audit + tracer on a clean run
  bool coalesce = false;      // §4.6.1 batch billing
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
  std::uint64_t replica_messages = 0;
  std::uint64_t replica_restores = 0;
  std::uint64_t replica_stale = 0;
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
  const auto replicas = ReplicaRegistry::uniform(placement, 1, sc.seed);
  if (sc.replicas) engine.attach_replicas(replicas);

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
  obs::Tracer tracer;
  if (sc.observed) {
    engine.enable_mass_audit();
    engine.attach_tracer(tracer);
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
  cap.replica_messages = engine.replica_messages();
  cap.replica_restores = engine.replica_restores();
  cap.replica_stale = engine.replica_stale_skips();
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
  EXPECT_EQ(a.replica_messages, b.replica_messages);
  EXPECT_EQ(a.replica_restores, b.replica_restores);
  EXPECT_EQ(a.replica_stale, b.replica_stale);
}

const std::uint64_t kSeeds[] = {7, 21, 42};

// coalesce_wire under the per-send hooks: a (source, destination) pair is
// one batch whatever its updates' fates, so the coalesced run keeps the
// per-update run's ranks and convergence, bills fewer wire messages, and
// is bit-identical across thread counts.
void expect_coalesced_matches(const Capture& plain, Scenario sc) {
  sc.coalesce = true;
  sc.threads = 1;
  const Capture co1 = run_scenario(sc);
  sc.threads = 4;
  expect_identical(co1, run_scenario(sc));
  ASSERT_EQ(plain.run.passes, co1.run.passes);
  for (std::size_t v = 0; v < co1.ranks.size(); ++v) {
    ASSERT_EQ(plain.ranks[v], co1.ranks[v]) << "rank diverged at doc " << v;
  }
  EXPECT_EQ(plain.batched_updates, 0u);
  EXPECT_GT(co1.batched_updates, 0u);
  EXPECT_LT(co1.messages, plain.messages);
  EXPECT_EQ(co1.local_updates, plain.local_updates);
}

TEST(ParallelEngine, CleanRunBitIdenticalAcrossThreadCounts) {
  for (const std::uint64_t seed : kSeeds) {
    SCOPED_TRACE(seed);
    const Capture seq = run_scenario({.threads = 1, .seed = seed});
    const Capture par = run_scenario({.threads = 4, .seed = seed});
    ASSERT_TRUE(seq.run.converged);
    expect_identical(seq, par);
    // Observing must not change what is observed: the mass audit and a
    // tracer leave ranks, pass history and traffic exactly as they are.
    for (const std::uint32_t threads : {1u, 4u}) {
      SCOPED_TRACE(threads);
      expect_identical(seq, run_scenario({.threads = threads,
                                          .seed = seed,
                                          .observed = true}));
    }
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
  // Overlay sends run the per-send hook (the ip cache warms in emission
  // order); only the compute phase parallelizes, and the result must not
  // notice.
  for (const std::uint64_t seed : kSeeds) {
    SCOPED_TRACE(seed);
    const Capture seq =
        run_scenario({.threads = 1, .seed = seed, .overlay = true});
    const Capture par =
        run_scenario({.threads = 4, .seed = seed, .overlay = true});
    ASSERT_TRUE(seq.run.converged);
    ASSERT_GT(seq.hops, seq.messages);  // DHT routing actually billed
    expect_identical(seq, par);
    expect_coalesced_matches(seq, {.seed = seed, .overlay = true});
  }
}

TEST(ParallelEngine, CrashFaultRunBitIdenticalAcrossThreadCounts) {
  // Fault plans consume RNG draws in emission order — the exchange keeps
  // that order canonical, so the full drop/crash/recovery/audit history
  // must replay identically under any thread count.
  for (const std::uint64_t seed : kSeeds) {
    SCOPED_TRACE(seed);
    const Capture seq =
        run_scenario({.threads = 1, .seed = seed, .crash_faults = true});
    const Capture par =
        run_scenario({.threads = 4, .seed = seed, .crash_faults = true});
    ASSERT_TRUE(seq.run.converged);
    ASSERT_GT(seq.resends, 0u);  // faults actually fired
    expect_identical(seq, par);
    expect_coalesced_matches(seq, {.seed = seed, .crash_faults = true});
  }
}

TEST(ParallelEngine, ReplicaCrashFaultRunBitIdenticalAcrossThreadCounts) {
  // Replicas attached to a crash plan: every recompute mirrors the new
  // rank into the replica store inside the parallel compute, and crash
  // recovery restores from it. Restores read those values, so a torn or
  // misordered mirror write shows up in the ranks.
  for (const std::uint64_t seed : kSeeds) {
    SCOPED_TRACE(seed);
    const Capture seq = run_scenario(
        {.threads = 1, .seed = seed, .crash_faults = true, .replicas = true});
    const Capture par = run_scenario(
        {.threads = 4, .seed = seed, .crash_faults = true, .replicas = true});
    ASSERT_TRUE(seq.run.converged);
    ASSERT_GT(seq.replica_restores, 0u);  // recovery read replica values
    ASSERT_GT(seq.replica_messages, 0u);
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

// Billing. The exchange bills each source peer's destinations in
// first-touch order; every consumer of the per-destination tally is a
// commutative integer sum. The goldens below were recorded on the engine
// that still had a second, destination-sorted batched exchange at
// threads > 1, where both exchanges produced these exact values, so they
// pin that billing for every thread count and for observed runs (mass
// audit and tracer attached) now that one exchange serves them all.
struct Billing {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t batched_updates = 0;
  std::uint64_t local_updates = 0;
  std::uint64_t batch_count = 0;  // pagerank.batch_size histogram
  double batch_sum = 0.0;
  double batch_min = 0.0;
  double batch_max = 0.0;
  std::uint64_t batch_buckets = 0;  // FNV-1a of (upper bound, count)
  std::uint64_t passes = 0;
  // FNV-1a of per-pass (messages_sent, max_peer_messages).
  std::uint64_t pass_billing = 0;
  std::uint64_t pass0_local_updates = 0;
  std::uint64_t pass0_max_peer_messages = 0;
};

struct Fnv {
  std::uint64_t h = 14695981039346656037ULL;
  template <typename T>
  void mix(const T& v) {
    const auto* p = reinterpret_cast<const unsigned char*>(&v);
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      h ^= p[i];
      h *= 1099511628211ULL;
    }
  }
};

Billing bill(std::uint32_t threads, bool coalesce, NodeId docs, PeerId peers,
             std::uint64_t seed, bool observed = false) {
  const Digraph g = paper_graph(docs, seed);
  const auto placement = Placement::random(docs, peers, seed);
  PagerankOptions o;
  o.epsilon = 1e-3;
  o.threads = threads;
  o.coalesce_wire = coalesce;
  DistributedPagerank engine(g, placement, o);
  obs::MetricsRegistry reg;
  engine.attach_metrics(reg);
  obs::Tracer tracer;
  if (observed) {
    engine.enable_mass_audit();
    engine.attach_tracer(tracer);
  }
  EXPECT_TRUE(engine.run().converged);
  Billing b;
  b.messages = engine.traffic().messages();
  b.bytes = engine.traffic().bytes();
  b.batched_updates = engine.traffic().batched_updates();
  b.local_updates = engine.traffic().local_updates();
  const obs::Histogram& h = reg.histogram("pagerank.batch_size");
  const obs::HistogramSummary sum = h.summarize();
  b.batch_count = sum.count;
  b.batch_sum = sum.sum;
  b.batch_min = sum.min;
  b.batch_max = sum.max;
  Fnv buckets;
  for (const auto& [upper, count] : h.buckets()) {
    buckets.mix(upper);
    buckets.mix(count);
  }
  b.batch_buckets = buckets.h;
  Fnv passes;
  for (const PassStats& p : engine.pass_history()) {
    passes.mix(p.messages_sent);
    passes.mix(p.max_peer_messages);
  }
  b.passes = engine.pass_history().size();
  b.pass_billing = passes.h;
  b.pass0_local_updates = engine.pass_history().at(0).local_updates;
  b.pass0_max_peer_messages = engine.pass_history().at(0).max_peer_messages;
  return b;
}

void expect_billing(const Billing& got, const Billing& want) {
  EXPECT_EQ(got.messages, want.messages);
  EXPECT_EQ(got.bytes, want.bytes);
  EXPECT_EQ(got.batched_updates, want.batched_updates);
  EXPECT_EQ(got.local_updates, want.local_updates);
  EXPECT_EQ(got.batch_count, want.batch_count);
  EXPECT_EQ(got.batch_sum, want.batch_sum);
  EXPECT_EQ(got.batch_min, want.batch_min);
  EXPECT_EQ(got.batch_max, want.batch_max);
  EXPECT_EQ(got.batch_buckets, want.batch_buckets);
  EXPECT_EQ(got.passes, want.passes);
  EXPECT_EQ(got.pass_billing, want.pass_billing);
  EXPECT_EQ(got.pass0_local_updates, want.pass0_local_updates);
  EXPECT_EQ(got.pass0_max_peer_messages, want.pass0_max_peer_messages);
}

// 2000 docs, seed 42: 40 peers; per-update then coalesced billing.
constexpr Billing kBilling40[] = {
    {17357, 416568, 0, 420, 10438, 17357.0, 1.0, 17.0,
     0x6112c7ead1cd53feULL, 38, 0x5dc4e185bab0c943ULL, 82, 237},
    {10438, 583576, 17357, 420, 10438, 17357.0, 1.0, 17.0,
     0x6112c7ead1cd53feULL, 38, 0xea8b9b47e94b8508ULL, 82, 38},
};
// 2000 docs, seed 7: 3 peers; per-update then coalesced billing.
constexpr Billing kBilling3[] = {
    {11135, 267240, 0, 5513, 140, 11135.0, 1.0, 485.0,
     0x8396f7e8794443daULL, 25, 0x73f185e1dba65d57ULL, 1093, 831},
    {140, 269480, 11135, 5513, 140, 11135.0, 1.0, 485.0,
     0x8396f7e8794443daULL, 25, 0x8fdb1d0a42debc67ULL, 1093, 2},
};

TEST(ParallelEngine, BillingIsOrderFree) {
  for (const bool observed : {false, true}) {
    SCOPED_TRACE(observed ? "audit + tracer" : "unobserved");
    for (const bool coalesce : {false, true}) {
      SCOPED_TRACE(coalesce ? "coalesced" : "per-update");
      const Billing& want = kBilling40[coalesce ? 1 : 0];
      for (const std::uint32_t threads : {1u, 4u}) {
        SCOPED_TRACE(threads);
        const Billing got =
            bill(threads, coalesce, kDocs, kPeers, 42, observed);
        ASSERT_GT(got.batch_count, 0u);
        ASSERT_GT(got.batch_max, 1.0);  // multi-update batches were billed
        expect_billing(got, want);
      }
    }
  }
}

TEST(ParallelEngine, BillingIsOrderFreeWhenOneSourceTouchesEveryPeer) {
  // Few peers, many documents: in pass 0 every document sends, so a
  // source peer reaches every destination (itself included) and keeps
  // emitting after its last first touch. The exchange's tally stores at
  // its cursor on every emission, so this case runs the cursor one past
  // num_peers entries.
  constexpr PeerId kFewPeers = 3;
  for (const bool coalesce : {false, true}) {
    SCOPED_TRACE(coalesce ? "coalesced" : "per-update");
    const Billing& want = kBilling3[coalesce ? 1 : 0];
    for (const std::uint32_t threads : {1u, 4u}) {
      SCOPED_TRACE(threads);
      const Billing got = bill(threads, coalesce, kDocs, kFewPeers, 7);
      EXPECT_GT(got.pass0_local_updates, 0u);
      if (coalesce) {
        // One wire message per remote destination: some source peer
        // billed all of the others in pass 0.
        EXPECT_EQ(got.pass0_max_peer_messages, kFewPeers - 1);
      }
      expect_billing(got, want);
    }
  }
}

TEST(ParallelEngine, ThreadsAboveCapRejected) {
  // Construction alone: no run(), so no pool is ever started.
  const Digraph g = paper_graph(60, 5);
  const auto placement = Placement::random(60, 3, 5);
  PagerankOptions o;
  o.threads = kMaxThreads + 1;
  EXPECT_THROW(DistributedPagerank(g, placement, o), std::invalid_argument);
  o.threads = kMaxThreads;
  EXPECT_NO_THROW(DistributedPagerank(g, placement, o));
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
