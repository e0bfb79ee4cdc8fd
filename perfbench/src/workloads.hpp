#pragma once
// The three workloads. Each sets up, measures for cfg.seconds, checks its
// outputs, and adds its metrics to `out`: the end-to-end set when
// untraced, its per-layer set when traced.

#include "harness.hpp"

namespace perfbench {

void run_converge(const RunConfig& cfg, Spans& spans, Result& out);
void run_stream(const RunConfig& cfg, Spans& spans, Result& out);
void run_search(const RunConfig& cfg, Spans& spans, Result& out);

/// The documents the system starts from -- link graph and corpus -- are
/// the paper's standard ones (generator seed 42) in every run, and so are
/// the event stream, the search writes and the pool of fault campaigns;
/// --seed drives the placement, the queries and the order of the
/// campaigns. Per-seed graphs moved every metric by up to a tenth through
/// the amount of work alone.
inline constexpr std::uint64_t kWorldSeed = 42;

/// Median of the set-up repetitions, in seconds. Set-up runs this many
/// times so that one slow repetition does not move setup_s.
inline constexpr int kSetupReps = 3;

}  // namespace perfbench
