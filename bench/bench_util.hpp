#pragma once

// Shared plumbing for the table-reproduction bench binaries.
//
// Each bench is a google-benchmark executable whose benchmark bodies run
// one full experiment (Iterations(1)); the measured metrics are stashed
// in a process-global results store and, after RunSpecifiedBenchmarks,
// main() prints the corresponding paper table on stdout.
//
// Scale control: default graph sizes are {10k, 100k}; DPRANK_FULL=1 adds
// the paper's 500k and 5000k (see common/env.hpp). DPRANK_CACHE_DIR, if
// set, persists generated graphs across binaries.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "common/env.hpp"
#include "common/table.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "sim/experiment.hpp"

namespace dprank::benchutil {

/// The paper's threshold sweeps.
inline const std::vector<double> kTable23Thresholds{
    0.2, 1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6};
inline const std::vector<double> kTable4Thresholds{
    0.2, 1e-1, 1e-2, 1e-3, 1e-4, 1e-5};

inline std::string threshold_label(double eps) {
  if (eps == 0.2) return "0.2";
  if (eps >= 1e-1) return "1e-1";
  if (eps >= 1e-2) return "1e-2";
  if (eps >= 1e-3) return "1e-3";
  if (eps >= 1e-4) return "1e-4";
  if (eps >= 1e-5) return "1e-5";
  return "1e-6";
}

/// Keyed results store: benches fill it during benchmark runs and print
/// from it afterwards.
template <typename Value>
class ResultStore {
 public:
  void put(const std::string& key, Value v) { results_[key] = std::move(v); }
  [[nodiscard]] const Value* find(const std::string& key) const {
    const auto it = results_.find(key);
    return it == results_.end() ? nullptr : &it->second;
  }
  [[nodiscard]] const std::map<std::string, Value>& all() const {
    return results_;
  }

 private:
  std::map<std::string, Value> results_;
};

/// What a bench runs, as its banner states it: `quick` by default and
/// `full` under DPRANK_FULL=1; an empty `full` means the bench does not
/// scale.
struct Sizes {
  std::string quick;
  std::string full;
};

/// The paper's sweep (common/env.hpp experiment_graph_sizes()).
inline const Sizes kPaperSizes{"10k/100k docs", "10k/100k/500k/5000k docs"};

inline void print_banner(const std::string& title, const Sizes& sizes) {
  std::cout << "\n=== " << title << " ===\n";
  if (sizes.full.empty()) {
    std::cout << "(sizes: " << sizes.quick << ")\n";
  } else if (full_scale_requested()) {
    std::cout << "(full mode: " << sizes.full << ")\n";
  } else {
    std::cout << "(quick mode: " << sizes.quick << "; set DPRANK_FULL=1 for "
              << sizes.full << ")\n";
  }
  std::cout << "\n";
}

/// Print the table; when DPRANK_CSV_DIR is set, also persist it as
/// <dir>/<name>.csv for plotting pipelines.
inline void emit(const TextTable& table, const std::string& name) {
  table.print(std::cout);
  const char* dir = std::getenv("DPRANK_CSV_DIR");
  if (dir != nullptr && dir[0] != '\0') {
    std::filesystem::create_directories(dir);
    const auto path = std::filesystem::path(dir) / (name + ".csv");
    table.write_csv(path);
    std::cout << "[csv written to " << path.string() << "]\n";
  }
}

/// Monotonic wall-clock stopwatch for the BENCH_*.json record.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// The scale/seed knobs every bench shares, for the json config block.
inline std::map<std::string, std::string> standard_config() {
  std::string sizes;
  for (const auto s : experiment_graph_sizes()) {
    if (!sizes.empty()) sizes += ",";
    sizes += size_label(s);
  }
  return {{"sizes", sizes},
          {"full_scale", full_scale_requested() ? "1" : "0"},
          {"seed", std::to_string(experiment_seed())},
          {"threads", std::to_string(experiment_threads())}};
}

/// Machine-readable bench record: BENCH_<name>.json holding the bench
/// config, total wall time, a snapshot of the process-wide metrics
/// registry (everything the run's engines flushed), and optional extra
/// measurements (e.g. bench_table1's instrumentation-overhead probe).
/// Written into DPRANK_BENCH_DIR (unset = current directory). The notice
/// goes to stderr so table stdout stays byte-stable for golden diffs.
inline void write_bench_json(const std::string& name, double wall_seconds,
                             const std::map<std::string, std::string>& config,
                             const std::map<std::string, double>& extra = {}) {
  namespace fs = std::filesystem;
  const char* dir = std::getenv("DPRANK_BENCH_DIR");
  const bool have_dir = dir != nullptr && dir[0] != '\0';
  if (have_dir) fs::create_directories(dir);
  const fs::path path =
      fs::path(have_dir ? dir : ".") / ("BENCH_" + name + ".json");
  std::ofstream os(path);
  if (!os) {
    std::cerr << "bench json: cannot open " << path.string() << "\n";
    return;
  }
  os << "{\n  \"bench\": \"" << obs::json_escape(name) << "\",\n"
     << "  \"wall_seconds\": " << obs::format_double(wall_seconds) << ",\n"
     << "  \"config\": {";
  bool first = true;
  for (const auto& [k, v] : config) {
    os << (first ? "" : ",") << "\n    \"" << obs::json_escape(k) << "\": \""
       << obs::json_escape(v) << "\"";
    first = false;
  }
  os << "\n  },\n  \"extra\": {";
  first = true;
  for (const auto& [k, v] : extra) {
    os << (first ? "" : ",") << "\n    \"" << obs::json_escape(k)
       << "\": " << obs::format_double(v);
    first = false;
  }
  os << "\n  },\n  \"metrics\": ";
  obs::write_metrics_json(obs::default_registry().snapshot(), os);
  os << "}\n";
  std::cerr << "[bench json written to " << path.string() << "]\n";
}

}  // namespace dprank::benchutil
