// Append-only log that keeps exactly the newest `capacity` items (0 =
// unbounded) and counts every push, so totals stay exact after eviction.
// The one ring behind ReconfigLog, the daemon's EventJournal and the
// tracer's collected-span log; not thread-safe on its own.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <utility>

namespace nue {

template <typename T>
class BoundedLog {
 public:
  explicit BoundedLog(std::size_t capacity = 0) : capacity_(capacity) {}

  void push(T item) {
    items_.push_back(std::move(item));
    ++total_;
    evict();
  }

  /// Shrinking the capacity evicts the oldest items at once.
  void set_capacity(std::size_t n) {
    capacity_ = n;
    evict();
  }

  /// Drop every item and the push count; the capacity stays.
  void clear() {
    items_.clear();
    total_ = 0;
  }

  /// Retained items, oldest first: the newest min(total, capacity).
  const std::deque<T>& items() const { return items_; }
  std::uint64_t total() const { return total_; }
  std::uint64_t evicted() const { return total_ - items_.size(); }

 private:
  void evict() {
    while (capacity_ != 0 && items_.size() > capacity_) items_.pop_front();
  }

  std::size_t capacity_;
  std::deque<T> items_;
  std::uint64_t total_ = 0;
};

}  // namespace nue
