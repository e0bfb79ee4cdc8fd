#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <set>
#include <stdexcept>

#include "obs/mem_probe.hpp"

namespace perfbench {

double now_ms() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration<double, std::milli>(Clock::now() - origin)
      .count();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

int Spans::open(const char* name, std::uint64_t op) {
  Span s;
  s.name = name;
  s.op = op;
  s.parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back(s);
  const int id = static_cast<int>(spans_.size() - 1);
  stack_.push_back(id);
  return id;
}

void Spans::close(int id, double start_ms, double end_ms) {
  spans_[static_cast<std::size_t>(id)].start_ms = start_ms;
  spans_[static_cast<std::size_t>(id)].end_ms = end_ms;
  stack_.pop_back();
}

void Spans::add(const char* name, std::uint64_t op, double start_ms,
                double end_ms) {
  if (!recording()) return;
  Span s;
  s.name = name;
  s.op = op;
  s.start_ms = start_ms;
  s.end_ms = end_ms;
  s.parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back(s);
}

std::map<std::string, double> Spans::self_ms() const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child[static_cast<std::size_t>(s.parent)] += s.end_ms - s.start_ms;
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.op == 0) continue;  // set-up
    out[s.name] += (s.end_ms - s.start_ms) - child[i];
  }
  return out;
}

void Spans::write_chrome(const std::string& path) const {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write trace " + path);
  os << "{\"traceEvents\":[";
  char buf[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d,\"op\":%llu}}",
                  i == 0 ? "" : ",", s.name, s.start_ms * 1e3,
                  (s.end_ms - s.start_ms) * 1e3, i, s.parent,
                  static_cast<unsigned long long>(s.op));
    os << buf;
  }
  os << "\n]}\n";
}

void Result::check(bool ok, const std::string& what) {
  if (ok) return;
  ++failed_;
  std::cerr << "CHECK FAILED: " << what << "\n";
}

void Result::metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) {
    check(false, "metric " + name + " is not finite");
    value = 0.0;
  }
  metrics_.push_back({name, value, unit});
}

std::string Result::json() const {
  std::ostringstream os;
  os << "{\"correct\": " << (failed_ == 0 && attempted_ > 0 ? "true" : "false")
     << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
     << ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    std::snprintf(buf, sizeof buf, "%.17g", m.value);
    os << (i == 0 ? "" : ", ") << '"' << m.name << "\": {\"value\": " << buf
       << ", \"unit\": \"" << m.unit << "\"}";
  }
  os << "}}";
  return os.str();
}

double peak_rss_mb() {
  return static_cast<double>(dprank::obs::peak_rss_bytes()) /
         (1024.0 * 1024.0);
}

const std::vector<std::string> kLayers{"pagerank", "stream", "fault",
                                       "search",   "core",   "bench"};

std::size_t Spans::recorded_ops() const {
  std::set<std::uint64_t> ops;
  for (const Span& s : spans_) {
    if (s.op != 0) ops.insert(s.op);
  }
  return ops.size();
}

std::size_t Spans::timed_spans() const {
  return static_cast<std::size_t>(std::count_if(
      spans_.begin(), spans_.end(), [](const Span& s) { return s.op != 0; }));
}

void add_self_times(const Spans& spans, Result& out) {
  const auto ops = static_cast<double>(spans.recorded_ops());
  std::map<std::string, double> by_layer;
  for (const auto& [name, ms] : spans.self_ms()) {
    by_layer[name.substr(0, name.find('.'))] += ms;
  }
  for (const std::string& layer : kLayers) {
    out.metric("self." + layer + "_ms", ops > 0 ? by_layer[layer] / ops : 0.0,
               "ms");
  }
  out.metric("trace.spans_per_op",
             ops > 0 ? static_cast<double>(spans.timed_spans()) / ops : 0.0,
             "count");
}

}  // namespace perfbench
