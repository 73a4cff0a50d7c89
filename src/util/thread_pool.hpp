// Shared thread pool and deterministic parallel-for for the routing
// runtime.
//
// Design constraints (see docs/PARALLELISM.md):
//   * No work stealing, no task dependencies: every parallel region is a
//     flat index range [0, n) whose iterations are independent by
//     construction, so scheduling can never influence results.
//   * The calling thread always participates in the loop (it drains the
//     same atomic chunk counter as the pool workers), so a parallel region
//     makes progress even when every pool worker is busy — nested regions
//     degrade to serial execution instead of deadlocking.
//   * `threads <= 1` runs the plain serial loop inline, byte-for-byte the
//     legacy single-threaded code path (no pool, no atomics).
//
// The pool itself is a lazily constructed process-wide singleton; routing
// engines read their worker count from an options field (0 = the global
// default installed by the --threads flag, which itself defaults to
// std::thread::hardware_concurrency()).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "telemetry/telemetry.hpp"

namespace nue {

/// Number of hardware threads (never 0). Read once: each
/// std::thread::hardware_concurrency() call reads sysfs (several µs), and
/// resolve_threads(0) runs on every per-column check, however small.
inline unsigned hardware_threads() {
  static const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

namespace detail {
inline std::atomic<std::uint32_t>& default_threads_slot() {
  static std::atomic<std::uint32_t> slot{0};
  return slot;
}
}  // namespace detail

/// Install the process-wide default worker count (the --threads flag).
/// 0 restores "use hardware concurrency".
inline void set_default_threads(std::uint32_t n) {
  detail::default_threads_slot().store(n, std::memory_order_relaxed);
}

/// Resolve an options-level thread request: 0 means "global default",
/// which in turn defaults to hardware concurrency.
inline unsigned resolve_threads(std::uint32_t requested) {
  if (requested != 0) return requested;
  const std::uint32_t def =
      detail::default_threads_slot().load(std::memory_order_relaxed);
  return def != 0 ? def : hardware_threads();
}

/// Fixed-size FIFO thread pool (std::thread + condition_variable only).
class ThreadPool {
 public:
  explicit ThreadPool(unsigned workers) {
    workers_.reserve(workers);
    for (unsigned i = 0; i < workers; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (auto& t : workers_) t.join();
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  void submit(std::function<void()> task) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      queue_.push_back(std::move(task));
    }
    cv_.notify_one();
  }

  unsigned workers() const { return static_cast<unsigned>(workers_.size()); }

  /// Process-wide pool. Sized for the machine but never below 4 workers so
  /// that thread-count sweeps (and TSan runs) exercise real concurrency
  /// even on small containers; surplus workers just sleep.
  static ThreadPool& shared() {
    static ThreadPool pool(hardware_threads() < 4 ? 4 : hardware_threads());
    return pool;
  }

 private:
  void worker_loop() {
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lk(mu_);
        cv_.wait(lk, [this] { return stop_ || !queue_.empty(); });
        if (stop_ && queue_.empty()) return;
        task = std::move(queue_.front());
        queue_.pop_front();
      }
      task();
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

/// Run fn(begin, end) over disjoint contiguous chunks covering [0, n),
/// using up to `threads` execution agents (pool workers + the caller).
/// Each chunk is executed by exactly one agent, so fn may keep per-call
/// scratch and reuse it across the chunk's iterations. Chunk boundaries
/// are fixed by `grain` alone (never by thread count or timing), so any
/// per-chunk state is deterministic. Exceptions propagate to the caller
/// (first one wins; remaining chunks are abandoned).
template <typename Fn>
void parallel_for_chunks(unsigned threads, std::size_t n, std::size_t grain,
                         Fn&& fn) {
  if (n == 0) return;
  if (grain == 0) grain = 1;
  const std::size_t chunks = (n + grain - 1) / grain;
  const std::size_t agents =
      threads <= 1 ? 1 : std::min<std::size_t>(threads, chunks);
  if (agents <= 1) {
    for (std::size_t b = 0; b < n; b += grain) {
      fn(b, b + grain < n ? b + grain : n);
    }
    return;
  }

  // Helper tasks are *optional*: the region closes as soon as the caller
  // has drained every chunk and the helpers that actually started have
  // finished. A helper task that only gets scheduled after the region
  // closed is a no-op. Waiting instead for every submitted task to run
  // would deadlock nested regions: a pool worker inside a nested
  // parallel_for would block on its queued helpers, which can never be
  // picked up while every worker is itself blocked the same way.
  struct State {
    std::atomic<std::size_t> next{0};
    std::mutex mu;
    std::condition_variable cv;
    std::function<void(State&)> drain;  // cleared once the region closes
    unsigned executing = 0;
    bool closed = false;
    std::exception_ptr error;
  };
  auto state = std::make_shared<State>();
  state->drain = [&fn, n, grain](State& st) {
    try {
      for (;;) {
        const std::size_t begin = st.next.fetch_add(grain);
        if (begin >= n) return;
        fn(begin, begin + grain < n ? begin + grain : n);
      }
    } catch (...) {
      st.next.store(n);  // abandon the remaining chunks
      std::lock_guard<std::mutex> lk(st.mu);
      if (!st.error) st.error = std::current_exception();
    }
  };

  const unsigned helpers = static_cast<unsigned>(agents - 1);
  for (unsigned h = 0; h < helpers; ++h) {
    ThreadPool::shared().submit([state] {
      std::function<void(State&)> drain;
      {
        std::lock_guard<std::mutex> lk(state->mu);
        if (state->closed) return;  // region already over: nothing to help
        ++state->executing;
        drain = state->drain;
      }
      {
        // Per-task span: one per helper that actually drained chunks, so
        // a trace shows how the region's work spread over pool workers.
        TELEM_SPAN("pool.task");
        drain(*state);
      }
      {
        std::lock_guard<std::mutex> lk(state->mu);
        --state->executing;
      }
      state->cv.notify_one();
    });
  }
  {
    TELEM_SPAN("pool.caller");
    state->drain(*state);  // the caller always participates
  }
  std::unique_lock<std::mutex> lk(state->mu);
  state->closed = true;
  state->cv.wait(lk, [&] { return state->executing == 0; });
  state->drain = nullptr;  // drop the references into the caller's frame
  if (state->error) std::rethrow_exception(state->error);
}

/// Run fn(i) for every i in [0, n); iterations must be independent.
/// `threads <= 1` is the exact legacy serial loop.
template <typename Fn>
void parallel_for(unsigned threads, std::size_t n, Fn&& fn,
                  std::size_t grain = 1) {
  parallel_for_chunks(threads, n, grain,
                      [&fn](std::size_t begin, std::size_t end) {
                        for (std::size_t i = begin; i < end; ++i) fn(i);
                      });
}

}  // namespace nue
