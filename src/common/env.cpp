#include "common/env.hpp"

#include <cstdlib>

namespace dprank {

bool full_scale_requested() {
  // Env reads happen single-threaded at startup, before any pool spins up.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  const char* v = std::getenv("DPRANK_FULL");
  return v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
}

std::uint64_t experiment_seed() {
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  const char* v = std::getenv("DPRANK_SEED");
  if (v == nullptr || v[0] == '\0') return 42;
  return std::strtoull(v, nullptr, 10);
}

std::uint32_t experiment_threads() {
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  const char* v = std::getenv("DPRANK_THREADS");
  if (v == nullptr || v[0] == '\0') return 1;
  const unsigned long parsed = std::strtoul(v, nullptr, 10);
  if (parsed < 1) return 1;
  if (parsed > kMaxThreads) return kMaxThreads;
  return static_cast<std::uint32_t>(parsed);
}

std::vector<std::uint64_t> experiment_graph_sizes() {
  if (full_scale_requested()) {
    return {10'000, 100'000, 500'000, 5'000'000};
  }
  return {10'000, 100'000};
}

std::string size_label(std::uint64_t nodes) {
  if (nodes % 1000 == 0) return std::to_string(nodes / 1000) + "k";
  return std::to_string(nodes);
}

}  // namespace dprank
