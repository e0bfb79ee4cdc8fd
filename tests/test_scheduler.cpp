// Fifo golden digests for DistributedPagerank.
//
// Ranks, the full pass history, the traffic ledger and the outbox peak
// hash to golden digests recorded on the engine that predates the
// contribution-store reindex, at 1 and 4 threads, clean and churned.
// Every refactor of the pass pipeline must reproduce them bit for bit.

#include "pagerank/distributed_engine.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "graph/generator.hpp"
#include "obs/trace.hpp"
#include "p2p/churn.hpp"
#include "p2p/placement.hpp"

namespace dprank {
namespace {

// ---- fifo bit-compatibility ------------------------------------------

constexpr NodeId kDocs = 2'000;
constexpr PeerId kPeers = 40;

/// FNV-1a over every observable the compatibility promise covers.
class Fnv {
 public:
  void mix(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 1099511628211ULL;
    }
  }
  template <typename T>
  void mix_value(const T& v) {
    mix(&v, sizeof(v));
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ULL;
};

std::uint64_t digest_run(std::uint64_t seed, std::uint32_t threads,
                         double availability, bool observed = false) {
  const Digraph g = paper_graph(kDocs, seed);
  const auto placement = Placement::random(kDocs, kPeers, seed);
  PagerankOptions o;
  o.epsilon = 1e-3;
  o.threads = threads;
  DistributedPagerank engine(g, placement, o);
  obs::Tracer tracer;
  if (observed) {
    engine.enable_mass_audit();
    engine.attach_tracer(tracer);
  }
  DistributedRunResult run;
  if (availability < 1.0) {
    ChurnSchedule churn(kPeers, availability, seed);
    run = engine.run(&churn);
  } else {
    run = engine.run();
  }
  Fnv f;
  f.mix_value(run.passes);
  f.mix_value(run.converged);
  f.mix(engine.ranks().data(), engine.ranks().size() * sizeof(double));
  for (const PassStats& s : engine.pass_history()) {
    f.mix_value(s.pass);
    f.mix_value(s.docs_recomputed);
    f.mix_value(s.messages_sent);
    f.mix_value(s.messages_deferred);
    f.mix_value(s.messages_delivered_late);
    f.mix_value(s.local_updates);
    f.mix_value(s.max_peer_messages);
    f.mix_value(s.max_rel_change);
  }
  const TrafficMeter& t = engine.traffic();
  f.mix_value(t.messages());
  f.mix_value(t.local_updates());
  f.mix_value(t.bytes());
  f.mix_value(t.resends());
  f.mix_value(t.hop_transmissions());
  f.mix_value(engine.outbox_peak());
  return f.value();
}

struct GoldenEntry {
  std::uint64_t seed;
  double availability;
  std::uint32_t threads;
  std::uint64_t digest;
};

// Recorded on the build immediately preceding the scheduler and the
// contribution-store reindex (commit ad810a0), 2000 docs / 40 peers /
// epsilon 1e-3. These values must never change: fifo is the
// compatibility baseline.
constexpr GoldenEntry kGolden[] = {
    {7ULL, 1.00, 1, 0xe1f5136668ea4ddcULL},
    {7ULL, 1.00, 4, 0xe1f5136668ea4ddcULL},
    {7ULL, 0.85, 1, 0xb9b4652c2261524aULL},
    {7ULL, 0.85, 4, 0xb9b4652c2261524aULL},
    {21ULL, 1.00, 1, 0xb46e1c638e860edaULL},
    {21ULL, 1.00, 4, 0xb46e1c638e860edaULL},
    {21ULL, 0.85, 1, 0x130df7e04f634d08ULL},
    {21ULL, 0.85, 4, 0x130df7e04f634d08ULL},
    {42ULL, 1.00, 1, 0xae197f138e3ac718ULL},
    {42ULL, 1.00, 4, 0xae197f138e3ac718ULL},
    {42ULL, 0.85, 1, 0xf3aede7be2c2410eULL},
    {42ULL, 0.85, 4, 0xf3aede7be2c2410eULL},
};

TEST(ScheduleFifo, BitIdenticalToPreSchedulerEngine) {
  // Observed runs (mass audit and tracer attached) must reproduce the
  // same digests: observing does not change what is observed.
  for (const bool observed : {false, true}) {
    for (const GoldenEntry& entry : kGolden) {
      EXPECT_EQ(digest_run(entry.seed, entry.threads, entry.availability,
                           observed),
                entry.digest)
          << "seed=" << entry.seed << " threads=" << entry.threads
          << " availability=" << entry.availability
          << " observed=" << observed;
    }
  }
}

TEST(ScheduleFifo, DeferredCounterStaysZero) {
  const Digraph g = paper_graph(kDocs, 7);
  const auto placement = Placement::random(kDocs, kPeers, 7);
  PagerankOptions o;
  o.epsilon = 1e-3;
  DistributedPagerank engine(g, placement, o);
  (void)engine.run();
  for (const PassStats& s : engine.pass_history()) {
    EXPECT_EQ(s.docs_deferred, 0u);
  }
}

}  // namespace
}  // namespace dprank
