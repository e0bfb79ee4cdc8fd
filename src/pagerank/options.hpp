#pragma once

// Shared pagerank parameters.
//
// The reproduction uses the unnormalized Google form of Eq. 1:
//     R(i) = (1 - d) + d * sum_{j in in(i)} R(j) / outdeg(j)
// so ranks sum to ~N and a freshly inserted document is seeded with the
// paper's "initial pagerank value (1.0 in our case)" (§4.7). Dangling
// documents simply emit no contributions — the paper does not model
// dangling-mass redistribution, and using the identical operator in the
// distributed and centralized solvers makes Table 2's quality comparison
// exact.

#include <cstdint>

namespace dprank {

struct PagerankOptions {
  /// Damping factor d of Eq. 1. Google's standard 0.85. The Figure 2
  /// illustration corresponds to d = 1 (increments 1/3 and 1/6 with no
  /// damping); tests reproduce that with damping = 1.0.
  double damping = 0.85;

  /// Error threshold epsilon of Fig. 1: a document whose relative rank
  /// change |old-new|/new exceeds epsilon propagates updates.
  double epsilon = 1e-3;

  /// Initial rank assigned to every document (and to inserted ones).
  double initial_rank = 1.0;

  /// Safety valve for the pass loop.
  std::uint64_t max_passes = 1'000'000;

  /// Pass-parallel worker count for DistributedPagerank (the §4.2 "all
  /// peers compute concurrently" methodology executed for real): the
  /// per-pass recompute folds each owning peer's segment on a worker
  /// pool; the exchange stays on the calling thread. Results are
  /// bit-identical for every thread count — threads change wall time
  /// only. 1 = fully sequential (no pool); at most kMaxThreads
  /// (common/env.hpp).
  std::uint32_t threads = 1;

  /// Opt-in §4.6.1 coalesced-transfer billing for the exchange: the k
  /// updates a source peer sends one destination in a pass travel as ONE
  /// wire message of batch_header_bytes + k * batch_payload_bytes
  /// (TrafficMeter::record_batch), instead of k separate 24-byte
  /// messages. Changes the traffic model, not the ranks: convergence and
  /// pass history stay identical; traffic().messages() becomes the batch
  /// count with the per-update count in traffic().batched_updates().
  /// A (source, destination) pair is one batch whatever is attached:
  /// dropped and delayed updates stay in their batch (the sender pays
  /// whatever the fate), a duplicate is one extra per-update message, and
  /// with an overlay the batch travels the hops of its first update (the
  /// IpCache model: first message routed, later ones direct). Outbox
  /// drains, retransmissions, repairs and replica sends bill per update.
  bool coalesce_wire = false;

  /// Wire framing for coalesce_wire (§4.6.1: 16-byte GUID + 8-byte rank
  /// per update behind one transport header).
  std::uint32_t batch_header_bytes = 16;
  std::uint32_t batch_payload_bytes = 24;

  /// Run the engine's full invariant walk (DistributedPagerank
  /// validate_state(); see common/contracts.hpp) every n-th pass boundary
  /// and once more at termination. 0 disables periodic validation. The
  /// checks are no-ops when contracts are compiled out
  /// (DPRANK_CHECK_INVARIANTS=OFF), so leaving this set in release builds
  /// costs nothing. CLI: --check-invariants [n].
  std::uint64_t validate_every_n_passes = 0;
};

/// Relative change |oldv - newv| / |newv| with a guard for newv == 0
/// (falls back to the absolute change, which then compares directly
/// against epsilon).
[[nodiscard]] inline double relative_change(double oldv, double newv) {
  const double diff = oldv > newv ? oldv - newv : newv - oldv;
  const double denom = newv > 0 ? newv : (newv < 0 ? -newv : 0.0);
  return denom > 0 ? diff / denom : diff;
}

}  // namespace dprank
