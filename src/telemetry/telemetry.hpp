// Routing telemetry core (docs/OBSERVABILITY.md): a low-overhead span
// tracer plus a typed counter/histogram registry shared by every engine,
// the thread pool, the resilience manager and the flit simulator.
//
// Design constraints:
//   * Zero effect on results: telemetry never influences control flow, so
//     routing tables are bit-identical with tracing on or off (asserted by
//     test_telemetry.cpp).
//   * Off by default, near-zero cost when off: every record site is gated
//     on one relaxed atomic load; `nue_route --trace-out/--metrics-out`
//     (and friends) flip it on. Defining NUE_TELEMETRY_DISABLED compiles
//     the span macro away entirely for paranoid baseline measurements.
//   * Thread-safe by construction: spans land in per-thread ring buffers
//     (one short uncontended lock per push, so the TSan tier-1 stage can
//     prove the merge race-free); counters are relaxed atomics. Buffers
//     outlive their threads — the collector keeps shared ownership — so
//     pool workers never invalidate a trace.
//   * Lossless accounting: a full ring buffer overwrites its oldest span
//     and counts every overwrite; exporters surface the count instead of
//     silently truncating (satellite contract of PR 4). Keeping the
//     *newest* spans is what makes the flight recorder's "recent spans"
//     bundle meaningful (docs/OBSERVABILITY.md, live plane).
//   * Live-readable: every snapshot (counters, histograms, span
//     aggregates) is safe to take while producers keep recording — the
//     daemon's `metrics` op samples mid-storm. A histogram snapshot
//     derives its count from the bucket array it just read, so a
//     concurrent record can only make a snapshot *slightly stale*, never
//     internally torn (count != sum of buckets).
//
// Everything is header-only (std plus the header-only BoundedLog) so the
// header is usable from util-layer headers (thread_pool.hpp) without new
// link dependencies.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/bounded_log.hpp"

namespace nue::telemetry {

// --- global switch ----------------------------------------------------------

inline std::atomic<bool>& enabled_flag() {
  static std::atomic<bool> flag{false};
  return flag;
}

inline bool enabled() {
  return enabled_flag().load(std::memory_order_relaxed);
}

inline void set_enabled(bool on) {
  enabled_flag().store(on, std::memory_order_relaxed);
}

/// RAII enable/restore, for scoped collection (bench phase attribution).
class EnabledScope {
 public:
  explicit EnabledScope(bool on) : prev_(enabled()) { set_enabled(on); }
  ~EnabledScope() { set_enabled(prev_); }
  EnabledScope(const EnabledScope&) = delete;
  EnabledScope& operator=(const EnabledScope&) = delete;

 private:
  bool prev_;
};

// --- clock ------------------------------------------------------------------

/// Steady-clock nanoseconds since the first telemetry timestamp of the
/// process (small, monotone numbers; Chrome trace wants microseconds and
/// Perfetto normalizes to the earliest event anyway).
inline std::int64_t now_ns() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point t0 = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              t0)
      .count();
}

// --- counters & histograms --------------------------------------------------

/// Monotone event counter. Increments are relaxed atomics gated on
/// enabled(); reads are exact once the producing code has quiesced.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    if (enabled()) value_.fetch_add(n, std::memory_order_relaxed);
  }
  /// Unconditional add, for folding engine stats structs that were
  /// computed anyway (still invisible unless someone exports them).
  void add_always(std::uint64_t n) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Fixed-bucket power-of-two histogram for non-negative integer samples:
/// bucket i counts values whose bit width is i, i.e. [2^(i-1), 2^i).
/// Cheap enough for per-flit recording, exact count and sum on the side.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 32;

  void record(std::uint64_t v) {
    if (!enabled()) return;
    record_always(v);
  }
  /// Unconditional record, for sites that already checked enabled() or
  /// fold data that was computed anyway.
  void record_always(std::uint64_t v) {
    buckets_[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }
  static std::size_t bucket_of(std::uint64_t v) {
    std::size_t b = 0;
    while (v != 0 && b + 1 < kBuckets) {
      v >>= 1;
      ++b;
    }
    return b;
  }
  /// Inclusive upper bound of bucket i: bucket 0 holds {0}, bucket i
  /// holds [2^(i-1), 2^i). Exported as the Prometheus-style `le` edge so
  /// consumers never re-derive the bit-width bucketing.
  static std::uint64_t upper_edge(std::size_t i) {
    return i == 0 ? 0 : (std::uint64_t{1} << i) - 1;
  }
  /// Inclusive lower bound of bucket i (quantile interpolation).
  static std::uint64_t lower_edge(std::size_t i) {
    return i == 0 ? 0 : std::uint64_t{1} << (i - 1);
  }
  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  std::uint64_t bucket(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  void reset() {
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

/// Process-wide metric registry. Lookup is a mutex-guarded map access —
/// callsites cache the reference in a function-local static, so the hot
/// path is one relaxed atomic. Names follow the dotted schema recorded in
/// docs/OBSERVABILITY.md (`nue.backtracks`, `sssp.heap_decrease_keys`, ...);
/// extend the schema there rather than inventing parallel spellings.
class Registry {
 public:
  static Registry& instance() {
    static Registry reg;
    return reg;
  }

  Counter& counter(std::string_view name) { return lookup(counters_, name); }

  Histogram& histogram(std::string_view name) {
    return lookup(histograms_, name);
  }

  /// Stable snapshot for the exporters (name-sorted by map order).
  std::vector<std::pair<std::string, std::uint64_t>> counter_snapshot() const {
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<std::pair<std::string, std::uint64_t>> out;
    out.reserve(counters_.size());
    for (const auto& [name, c] : counters_) out.emplace_back(name, c->value());
    return out;
  }

  struct HistogramSnapshot {
    std::string name;
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    /// Non-empty buckets as (inclusive upper edge, count) pairs —
    /// Histogram::upper_edge of the bucket index.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> buckets;
  };

  /// Safe to take while producers record concurrently (the daemon's live
  /// `metrics` op): `count` is derived from the bucket loads themselves,
  /// so a snapshot is always internally consistent — a racing record()
  /// lands wholly in the next snapshot. `sum` is a separate relaxed load
  /// and may lag/lead by in-flight samples.
  std::vector<HistogramSnapshot> histogram_snapshot() const {
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<HistogramSnapshot> out;
    out.reserve(histograms_.size());
    for (const auto& [name, h] : histograms_) {
      HistogramSnapshot s;
      s.name = name;
      s.sum = h->sum();
      for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
        const std::uint64_t n = h->bucket(i);
        if (n == 0) continue;
        s.count += n;
        s.buckets.emplace_back(Histogram::upper_edge(i), n);
      }
      out.push_back(std::move(s));
    }
    return out;
  }

  void reset() {
    std::lock_guard<std::mutex> lk(mu_);
    for (auto& [_, c] : counters_) c->reset();
    for (auto& [_, h] : histograms_) h->reset();
  }

 private:
  /// Heterogeneous find first, so a hit builds no std::string (a
  /// dotted name is past the small-string size and would allocate).
  template <typename T>
  T& lookup(std::map<std::string, std::unique_ptr<T>, std::less<>>& map,
            std::string_view name) {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = map.find(name);
    if (it == map.end()) {
      it = map.emplace(std::string(name), std::make_unique<T>()).first;
    }
    return *it->second;
  }

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

inline Counter& counter(std::string_view name) {
  return Registry::instance().counter(name);
}

inline Histogram& histogram(std::string_view name) {
  return Registry::instance().histogram(name);
}

/// Quantile estimate from (inclusive upper edge, count) bucket pairs —
/// the shape HistogramSnapshot::buckets and the run report's `le` arrays
/// carry. Linear interpolation inside the winning bucket; exact for
/// bucket 0 (the {0} bucket). Shared by `nue_routectl watch` and the
/// bench harnesses so nobody re-derives the bit-width bucketing.
inline double quantile_from_buckets(
    const std::vector<std::pair<std::uint64_t, std::uint64_t>>& buckets,
    double q) {
  std::uint64_t total = 0;
  for (const auto& [le, n] : buckets) total += n;
  if (total == 0) return 0.0;
  const double rank = q * static_cast<double>(total - 1);
  std::uint64_t before = 0;
  for (const auto& [le, n] : buckets) {
    if (n == 0) continue;
    const double last_in_bucket = static_cast<double>(before + n - 1);
    if (rank <= last_in_bucket) {
      if (le == 0) return 0.0;
      const double lo = static_cast<double>((le + 1) / 2);  // 2^(i-1)
      const double hi = static_cast<double>(le);
      const double frac =
          n == 1 ? 0.0
                 : (rank - static_cast<double>(before)) /
                       static_cast<double>(n - 1);
      return lo + frac * (hi - lo);
    }
    before += n;
  }
  return static_cast<double>(buckets.back().first);
}

// --- span tracer ------------------------------------------------------------

/// One closed span. `name` must be a string literal (or otherwise outlive
/// the tracer) — every TELEM_SPAN site satisfies this by construction.
struct Span {
  const char* name = nullptr;
  std::int64_t start_ns = 0;
  std::int64_t dur_ns = 0;
  std::uint32_t tid = 0;    // small sequential telemetry thread id
  std::uint32_t depth = 0;  // nesting depth within the thread at open time
};

/// Per-thread span sink: a bounded ring owned by one producer thread,
/// drained by the collector under the same short lock. Overflow
/// overwrites the oldest span and counts it (never silent) — the ring
/// always holds the newest spans, which is what the flight recorder
/// snapshots on a gate failure.
class ThreadBuffer {
 public:
  explicit ThreadBuffer(std::uint32_t tid, std::size_t capacity)
      : tid_(tid), capacity_(capacity) {}

  std::uint32_t tid() const { return tid_; }

  /// Producer-side only: current nesting depth bookkeeping. Plain fields —
  /// the collector never reads them.
  std::uint32_t enter() { return depth_++; }
  void exit() { --depth_; }

  void push(const char* name, std::int64_t start_ns, std::int64_t dur_ns,
            std::uint32_t depth) {
    std::lock_guard<std::mutex> lk(mu_);
    if (spans_.size() < capacity_) {
      spans_.push_back(Span{name, start_ns, dur_ns, tid_, depth});
      return;
    }
    if (capacity_ == 0) {
      ++dropped_;
      return;
    }
    // Ring full: overwrite the oldest retained span (still counted as a
    // drop — the exporters' lossless-accounting contract is about never
    // hiding that spans were lost, not about which ones).
    spans_[start_] = Span{name, start_ns, dur_ns, tid_, depth};
    start_ = (start_ + 1) % spans_.size();
    ++dropped_;
  }

  /// Collector side: move the buffered spans out in record order, add
  /// drops to `dropped`.
  void drain_into(std::vector<Span>& out, std::uint64_t& dropped) {
    std::lock_guard<std::mutex> lk(mu_);
    out.insert(out.end(), spans_.begin() + static_cast<std::ptrdiff_t>(start_),
               spans_.end());
    out.insert(out.end(), spans_.begin(),
               spans_.begin() + static_cast<std::ptrdiff_t>(start_));
    spans_.clear();
    start_ = 0;
    dropped += dropped_;
    dropped_ = 0;
  }

  void set_capacity(std::size_t capacity) {
    std::lock_guard<std::mutex> lk(mu_);
    if (spans_.size() > capacity) {
      // Shrink by discarding oldest: rotate into record order first.
      std::rotate(spans_.begin(),
                  spans_.begin() + static_cast<std::ptrdiff_t>(start_),
                  spans_.end());
      start_ = 0;
      dropped_ += spans_.size() - capacity;
      spans_.erase(spans_.begin(),
                   spans_.begin() +
                       static_cast<std::ptrdiff_t>(spans_.size() - capacity));
    }
    capacity_ = capacity;
  }

 private:
  const std::uint32_t tid_;
  std::mutex mu_;
  std::size_t capacity_;
  std::vector<Span> spans_;
  std::size_t start_ = 0;  // ring head once spans_.size() == capacity_
  std::uint64_t dropped_ = 0;
  std::uint32_t depth_ = 0;  // producer-thread-private
};

/// Aggregate of closed spans by name (phase attribution for the benches).
struct SpanAggregate {
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;
};

/// Process-wide tracer: registry of thread buffers plus the central
/// collected-span log. collect() merges (losslessly, modulo counted
/// drops) and is safe to call while other threads keep recording — a
/// span recorded concurrently just lands in the next collect.
///
/// Each span is folded into per-name lifetime totals once, when it is
/// collected, so aggregate_all() — what the run report and the live
/// `metrics` op export — stays exact whatever the log retains. Resident
/// processes (nue_managerd) bound the log with set_collected_capacity(n),
/// keeping the newest n spans for recent_spans() (the flight recorder).
/// Marks returned by collect() are absolute collected-span indices, so
/// aggregate_since() deltas work across evictions as long as the marked
/// spans are still retained (bench marks are consumed immediately).
class Tracer {
 public:
  static constexpr std::size_t kDefaultBufferCapacity = 1 << 16;

  static Tracer& instance() {
    static Tracer tracer;
    return tracer;
  }

  /// The calling thread's buffer (created and registered on first use).
  ThreadBuffer& local() {
    thread_local ThreadBuffer* buf = nullptr;
    if (buf == nullptr) {
      std::lock_guard<std::mutex> lk(mu_);
      auto owned = std::make_shared<ThreadBuffer>(
          static_cast<std::uint32_t>(buffers_.size()), buffer_capacity_);
      buffers_.push_back(owned);
      buf = owned.get();
    }
    return *buf;
  }

  /// Drain every thread buffer into the central log; returns an absolute
  /// mark (total spans ever collected) usable with aggregate_since for
  /// delta aggregation.
  std::size_t collect() {
    std::lock_guard<std::mutex> lk(mu_);
    collect_locked();
    return collected_.total();
  }

  /// Sorted copy of the retained spans (collect() first for freshness).
  /// Sort key (tid, start, -dur) gives parents before their children,
  /// which both exporters and the nesting test rely on.
  std::vector<Span> snapshot() {
    std::lock_guard<std::mutex> lk(mu_);
    collect_locked();
    std::vector<Span> out(collected_.items().begin(),
                          collected_.items().end());
    std::sort(out.begin(), out.end(), [](const Span& a, const Span& b) {
      if (a.tid != b.tid) return a.tid < b.tid;
      if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
      return a.dur_ns > b.dur_ns;
    });
    return out;
  }

  /// Per-name aggregate of the spans collected after `mark` (an absolute
  /// mark from a prior collect()), for per-phase bench attribution. Spans
  /// already evicted from the bounded log are not included — callers that
  /// want process-lifetime totals use aggregate_all().
  std::map<std::string, SpanAggregate> aggregate_since(std::size_t mark) {
    std::lock_guard<std::mutex> lk(mu_);
    collect_locked();
    std::map<std::string, SpanAggregate> out;
    const auto& items = collected_.items();
    const std::uint64_t evicted = collected_.evicted();
    for (std::size_t i = mark <= evicted ? 0 : mark - evicted;
         i < items.size(); ++i) {
      auto& agg = out[items[i].name];
      ++agg.count;
      agg.total_ns += items[i].dur_ns;
    }
    return out;
  }

  /// Process-lifetime per-name aggregate: every span ever collected,
  /// including those evicted from the bounded central log. This is what
  /// the run report and the live `metrics` op export — scraping it
  /// mid-run and flushing it at shutdown agree on totals.
  std::map<std::string, SpanAggregate> aggregate_all() {
    std::lock_guard<std::mutex> lk(mu_);
    collect_locked();
    return {lifetime_.begin(), lifetime_.end()};
  }

  /// The newest `n` retained spans, sorted by start time — the flight
  /// recorder's "what was running around the anomaly" bundle section.
  std::vector<Span> recent_spans(std::size_t n) {
    std::lock_guard<std::mutex> lk(mu_);
    collect_locked();
    // The collected log is drain-ordered, not time-ordered (one segment
    // per thread per collect); take a generous tail, time-sort, trim.
    const auto& items = collected_.items();
    const std::size_t take = std::min(items.size(), n * 2);
    std::vector<Span> out(items.end() - static_cast<std::ptrdiff_t>(take),
                          items.end());
    std::sort(out.begin(), out.end(), [](const Span& a, const Span& b) {
      if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
      return a.dur_ns > b.dur_ns;
    });
    if (out.size() > n) {
      out.erase(out.begin(), out.end() - static_cast<std::ptrdiff_t>(n));
    }
    return out;
  }

  std::uint64_t dropped() {
    std::lock_guard<std::mutex> lk(mu_);
    collect_locked();
    return dropped_;
  }

  /// Shrink/grow every ring (tests exercise overflow with tiny rings).
  void set_buffer_capacity(std::size_t capacity) {
    std::lock_guard<std::mutex> lk(mu_);
    buffer_capacity_ = capacity;
    for (auto& b : buffers_) b->set_capacity(capacity);
  }

  /// Bound the central collected log (0 = unbounded, the one-shot-tool
  /// default); aggregate_all() is unaffected. Resident daemons set this
  /// so an unbounded event stream can't grow the trace without bound.
  void set_collected_capacity(std::size_t capacity) {
    std::lock_guard<std::mutex> lk(mu_);
    collected_.set_capacity(capacity);
  }

  /// Clear the central log, lifetime totals, and drop counts (buffers
  /// and the log's capacity stay).
  void reset() {
    std::lock_guard<std::mutex> lk(mu_);
    collect_locked();
    collected_.clear();
    lifetime_.clear();
    dropped_ = 0;
  }

 private:
  void collect_locked() {
    for (auto& b : buffers_) b->drain_into(drained_, dropped_);
    for (const Span& s : drained_) {
      auto it = lifetime_.find(s.name);
      if (it == lifetime_.end()) {
        it = lifetime_.emplace(s.name, SpanAggregate{}).first;
      }
      ++it->second.count;
      it->second.total_ns += s.dur_ns;
      collected_.push(s);
    }
    drained_.clear();
  }

  std::mutex mu_;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers_;
  std::vector<Span> drained_;  // collect scratch, empty between calls
  BoundedLog<Span> collected_;
  std::map<std::string, SpanAggregate, std::less<>> lifetime_;
  std::uint64_t dropped_ = 0;
  std::size_t buffer_capacity_ = kDefaultBufferCapacity;
};

/// Reset every telemetry sink (tests and per-scenario fuzz isolation).
inline void reset_all() {
  Tracer::instance().reset();
  Registry::instance().reset();
}

/// RAII span: opens on construction when telemetry is enabled, records
/// into the thread-local ring on destruction. ~25 ns when enabled, one
/// relaxed load + branch when not.
class SpanScope {
 public:
  explicit SpanScope(const char* name) {
    if (!enabled()) return;
    buf_ = &Tracer::instance().local();
    name_ = name;
    depth_ = buf_->enter();
    start_ns_ = now_ns();
  }
  ~SpanScope() {
    if (buf_ == nullptr) return;
    buf_->exit();
    buf_->push(name_, start_ns_, now_ns() - start_ns_, depth_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  ThreadBuffer* buf_ = nullptr;
  const char* name_ = nullptr;
  std::int64_t start_ns_ = 0;
  std::uint32_t depth_ = 0;
};

}  // namespace nue::telemetry

#define NUE_TELEM_CONCAT_INNER(a, b) a##b
#define NUE_TELEM_CONCAT(a, b) NUE_TELEM_CONCAT_INNER(a, b)

/// RAII span over the enclosing scope; `name` must be a string literal.
#ifdef NUE_TELEMETRY_DISABLED
#define TELEM_SPAN(name) \
  do {                   \
  } while (0)
#else
#define TELEM_SPAN(name) \
  ::nue::telemetry::SpanScope NUE_TELEM_CONCAT(telem_span_, __LINE__)(name)
#endif
