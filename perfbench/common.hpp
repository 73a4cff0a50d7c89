// Shared plumbing of the operator-path benchmark (perfbench/README.md):
// sample statistics, the per-run report and its JSON emission through
// service::Json, and the trace ledger that turns the telemetry span log
// into per-layer totals and self times.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/telemetry.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string scratch = ".";  // directory for the churn workload's socket
};

inline double now_s() {
  using Clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

/// Latency or size samples; quantiles interpolate linearly between order
/// statistics (the same rule as Python's statistics.quantiles "inclusive").
class Samples {
 public:
  void add(double v) { v_.push_back(v); }
  /// Capacity up front keeps a long closed loop from reallocating (and
  /// doubling its footprint) mid-measurement.
  void reserve(std::size_t n) { v_.reserve(n); }
  std::size_t size() const { return v_.size(); }
  double sum() const {
    double s = 0;
    for (const double x : v_) s += x;
    return s;
  }
  double quantile(double q) const {
    if (v_.empty()) return 0.0;
    std::vector<double> s = v_;
    std::sort(s.begin(), s.end());
    const double pos = q * static_cast<double>(s.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, s.size() - 1);
    return s[lo] + (pos - static_cast<double>(lo)) * (s[hi] - s[lo]);
  }
  double median() const { return quantile(0.5); }

 private:
  std::vector<double> v_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run hands back to main(): the correctness verdict,
/// the operation counts, the end-to-end metrics (always), the per-layer
/// metrics (traced runs only) and the issue-named record of the workload.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  // first few failure descriptions
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<Metric> record;

  void fail(const std::string& why) {
    ++failed;
    if (errors.size() < 8) errors.push_back(why);
  }
  /// Fold in the counts of a sub-run (e.g. another connection's loop).
  void merge(const Report& o) {
    attempted += o.attempted;
    failed += o.failed;
    for (const std::string& e : o.errors) {
      if (errors.size() < 8) errors.push_back(e);
    }
  }
  bool correct() const { return failed == 0 && attempted > 0; }
};

/// Per-name span totals and self times folded out of the telemetry
/// tracer. A span's self time is its duration minus the time its direct
/// children on the same thread cover; work a span hands to pool workers
/// shows up as the workers' own `pool.task` spans.
class SpanLedger {
 public:
  struct Entry {
    std::uint64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };

  /// Move every span recorded so far out of the tracer into the ledger.
  /// Call it while no instrumented call is in flight on any thread that
  /// owns a parent span, so each parent lands in the same drain as its
  /// children.
  void drain() {
    auto& tracer = nue::telemetry::Tracer::instance();
    const std::vector<nue::telemetry::Span> spans = tracer.snapshot();
    tracer.reset();
    fold(spans);
  }

  const std::map<std::string, Entry>& entries() const { return entries_; }

  Entry get(const std::string& name) const {
    const auto it = entries_.find(name);
    return it == entries_.end() ? Entry{} : it->second;
  }

 private:
  // snapshot() sorts by (thread, start, -duration): parents precede their
  // children, so one stack per thread recovers the nesting.
  void fold(const std::vector<nue::telemetry::Span>& spans) {
    struct Open {
      std::int64_t end_ns;
      std::size_t index;
    };
    std::vector<double> child_ms(spans.size(), 0.0);
    std::vector<Open> stack;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const auto& s = spans[i];
      if (i > 0 && spans[i - 1].tid != s.tid) stack.clear();
      while (!stack.empty() && stack.back().end_ns <= s.start_ns) {
        stack.pop_back();
      }
      if (!stack.empty()) {
        child_ms[stack.back().index] += static_cast<double>(s.dur_ns) / 1e6;
      }
      stack.push_back({s.start_ns + s.dur_ns, i});
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      Entry& e = entries_[spans[i].name];
      const double dur_ms = static_cast<double>(spans[i].dur_ns) / 1e6;
      ++e.count;
      e.total_ms += dur_ms;
      e.self_ms += dur_ms - child_ms[i];
    }
  }

  std::map<std::string, Entry> entries_;
};

/// Value of a telemetry counter (0 when it was never touched).
inline double counter_value(const std::string& name) {
  for (const auto& [n, v] :
       nue::telemetry::Registry::instance().counter_snapshot()) {
    if (n == name) return static_cast<double>(v);
  }
  return 0.0;
}

/// Quantile of a telemetry histogram (0 when it holds no samples).
inline double histogram_quantile(const std::string& name, double q) {
  for (const auto& h :
       nue::telemetry::Registry::instance().histogram_snapshot()) {
    if (h.name == name) {
      return nue::telemetry::quantile_from_buckets(h.buckets, q);
    }
  }
  return 0.0;
}

/// Inputs of the per-layer metric set that only the workload knows.
struct LayerContext {
  double ops = 0;            // workload operations in the traced phase
  double nue_threads = 1;    // threads Nue was given
  double topology_generate_s = 0;
  double topology_faults_s = 0;
  double client_route_p50_us = 0;  // churn: client-side route round trip
  double sim_cycles = 0;           // per operation
  double sim_events = 0;           // per operation
  double sim_queue_peak = 0;       // per operation
  double sim_delivered_bytes = 0;  // per operation
  double overhead_frac = 0;
};

/// The fixed per-layer metric set (the same names on every workload; a
/// layer a workload does not exercise reads 0). Defined in main.cpp.
std::vector<Metric> layer_metrics(const SpanLedger& ledger,
                                  const LayerContext& ctx);

/// Workload entry points (bringup.cpp, churn.cpp, alltoall.cpp).
Report run_bringup(const Args& args);
Report run_churn(const Args& args);
Report run_alltoall(const Args& args);

/// Wrap one public call in a benchmark-owned span (recorded only while
/// telemetry is enabled, i.e. in traced runs).
template <typename F>
decltype(auto) traced_call(const char* span, F&& f) {
  TELEM_SPAN(span);
  return f();
}

}  // namespace perfbench
