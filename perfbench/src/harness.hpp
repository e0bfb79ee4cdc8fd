#pragma once
// Shared plumbing for the benchmark program: the wall clock, the span
// recorder used by traced runs, order statistics, and the result record
// printed as the last line of a run.
//
// Every timed call goes through Spans::time(), which always measures the
// call (the untraced run needs the durations for its end-to-end metrics)
// and, when tracing is on, also keeps a span: name, start, end, parent
// span and the id of the operation the call belongs to. Spans stay in
// memory and are written out as Chrome-trace JSON when the run ends.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Milliseconds on the monotonic clock since the first call.
double now_ms();

/// Linear-interpolated quantile (q in [0, 1]) of `v`; 0 when empty.
double quantile(std::vector<double> v, double q);

struct Span {
  const char* name = "";
  double start_ms = 0.0;
  double end_ms = 0.0;
  int parent = -1;  // index into the span list, -1 for a root span
  std::uint64_t op = 0;
};

class Spans {
 public:
  explicit Spans(bool enabled) : enabled_(enabled) {}

  /// Whether the current operation records spans. A traced run turns
  /// recording off for every other operation so that it can measure its
  /// own overhead against the untraced half.
  [[nodiscard]] bool recording() const { return enabled_ && recording_; }
  void set_recording(bool on) { recording_ = on; }

  /// Run f() and return its wall time in ms. `name` must be a literal.
  template <class F>
  double time(const char* name, std::uint64_t op, F&& f) {
    const int id = recording() ? open(name, op) : -1;
    const double t0 = now_ms();
    f();
    const double t1 = now_ms();
    if (id >= 0) close(id, t0, t1);
    return t1 - t0;
  }

  /// Record a finished span under the innermost open span (pass spans
  /// reconstructed from observer timestamps).
  void add(const char* name, std::uint64_t op, double start_ms,
           double end_ms);

  /// Total self time per span name: each span's duration minus the part
  /// its child spans cover.
  [[nodiscard]] std::map<std::string, double> self_ms() const;
  /// Distinct operations (op > 0) that recorded at least one span.
  [[nodiscard]] std::size_t recorded_ops() const;
  /// Spans of the timed phase (op > 0).
  [[nodiscard]] std::size_t timed_spans() const;

  /// Chrome trace_event JSON ('X' complete events, one track).
  void write_chrome(const std::string& path) const;

 private:
  int open(const char* name, std::uint64_t op);
  void close(int id, double start_ms, double end_ms);

  bool enabled_;
  bool recording_ = true;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Options shared by every workload.
struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;  // smoke-test size
  std::string trace_path;  // Chrome-trace output when tracing
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One run's outcome. Failed checks are counted against the attempted
/// operations and listed by name on stderr.
class Result {
 public:
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  /// Count one failed operation when `ok` is false.
  void check(bool ok, const std::string& what);
  void metric(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] std::string json() const;

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<Metric> metrics_;
};

/// Process peak RSS in MiB.
double peak_rss_mb();

/// The layers timed-phase spans are named after ("<layer>.<call>"): the
/// library modules the workloads call while measuring, and the benchmark's
/// own per-operation spans ("bench").
extern const std::vector<std::string> kLayers;

/// Per-layer self time of the timed phase (spans with op > 0), in ms per
/// recorded operation, as `self.<layer>_ms`; 0 for a layer the workload
/// bypasses. Also `trace.spans_per_op`.
void add_self_times(const Spans& spans, Result& out);

}  // namespace perfbench
