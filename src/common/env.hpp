#pragma once

// Environment-driven experiment scaling.
//
// The paper's full sweep (500k and 5000k-node graphs) takes long on a
// single core, so benches default to the 10k/100k sizes and honor
// DPRANK_FULL=1 to run the complete table. DPRANK_SEED overrides the
// default experiment seed.

#include <cstdint>
#include <string>
#include <vector>

namespace dprank {

/// True when DPRANK_FULL is set to a non-empty, non-"0" value.
[[nodiscard]] bool full_scale_requested();

/// Experiment seed: DPRANK_SEED if set, else the fixed default (42).
[[nodiscard]] std::uint64_t experiment_seed();

/// Upper bound on the distributed engine's worker count: the engine
/// constructor and `dprank_cli rank --threads` reject more, and
/// DPRANK_THREADS is clamped to it.
inline constexpr std::uint32_t kMaxThreads = 256;

/// Pass-parallel worker count for the distributed engine: DPRANK_THREADS
/// if set (clamped to [1, kMaxThreads]), else 1. Thread count never changes the
/// results — only the wall time — so benches can sweep it freely.
[[nodiscard]] std::uint32_t experiment_threads();

/// Graph sizes for the current run: {10k, 100k} by default,
/// {10k, 100k, 500k, 5000k} under DPRANK_FULL=1.
[[nodiscard]] std::vector<std::uint64_t> experiment_graph_sizes();

/// Render 12000 as "12k", 5000000 as "5000k" — the paper's row labels.
[[nodiscard]] std::string size_label(std::uint64_t nodes);

}  // namespace dprank
