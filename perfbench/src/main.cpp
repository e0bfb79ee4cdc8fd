// The benchmark program: one workload per process.
//
//   perfbench --workload <converge-100k|stream-20k|search-11k> --seed <n>
//             --seconds <s> --trace <0|1> [--size full|tiny]
//             [--trace-out <chrome-trace.json>]
//
// Prints a `fingerprint {...}` line and, as the last line of stdout, the
// result object {"correct", "attempted", "failed", "metrics"}. Untraced
// runs print the end-to-end metrics; traced runs the per-layer metrics the
// workload measures, including per-layer self time derived from the spans
// and the tracing overhead (perfbench/run.py adds the layers a workload
// bypasses as 0).

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "common/simd.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <converge-100k|stream-20k|"
               "search-11k> --seed <n> --seconds <s> --trace <0|1> "
               "[--size full|tiny] [--trace-out <path>]\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig cfg;
  std::string workload;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string val = argv[++i];
    try {
      if (arg == "--workload") {
        workload = val;
      } else if (arg == "--seed") {
        cfg.seed = std::stoull(val);
      } else if (arg == "--seconds") {
        cfg.seconds = std::stod(val);
      } else if (arg == "--trace") {
        if (val != "0" && val != "1") usage("--trace takes 0 or 1");
        cfg.trace = val == "1";
      } else if (arg == "--size") {
        if (val != "full" && val != "tiny") usage("--size takes full or tiny");
        cfg.tiny = val == "tiny";
      } else if (arg == "--trace-out") {
        cfg.trace_path = val;
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  if (!(cfg.seconds > 0)) usage("--seconds must be positive");

#if defined(DPRANK_CHECK_INVARIANTS) && DPRANK_CHECK_INVARIANTS
  const char* contracts = "on";
#else
  const char* contracts = "off";
#endif
  std::printf(
      "fingerprint {\"workload\": \"%s\", \"size\": \"%s\", \"seed\": %llu, "
      "\"simd\": \"%s\", \"build_type\": \"%s\", \"contracts\": \"%s\", "
      "\"threads\": 1}\n",
      workload.c_str(), cfg.tiny ? "tiny" : "full",
      static_cast<unsigned long long>(cfg.seed),
      dprank::simd::level_name(dprank::simd::active_level()),
      PERFBENCH_BUILD_TYPE, contracts);
  std::fflush(stdout);

  Spans spans(cfg.trace);
  Result result;
  try {
    if (workload == "converge-100k") {
      run_converge(cfg, spans, result);
    } else if (workload == "stream-20k") {
      run_stream(cfg, spans, result);
    } else if (workload == "search-11k") {
      run_search(cfg, spans, result);
    } else {
      usage("unknown workload '" + workload + "'");
    }
    if (cfg.trace && !cfg.trace_path.empty()) {
      spans.write_chrome(cfg.trace_path);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << workload << " threw: " << e.what() << "\n";
    return 1;
  }

  std::printf("%s\n", result.json().c_str());
  return 0;
}
