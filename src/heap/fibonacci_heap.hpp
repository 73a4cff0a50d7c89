// Fibonacci heap with O(1) amortized decrease-key.
//
// Algorithm 1 of the paper requires a heap with constant-time decrease-key
// to reach the stated O(|C| log |C| + |E|) complexity; this is the same
// data structure the OpenSM implementation of Nue uses.
//
// The heap is *addressable*: items are dense integer ids in [0, capacity)
// (channel ids in the routing code), so handles are free and `contains()`
// is O(1). An id may be re-inserted after extraction, which the Nue
// backtracking/shortcut optimizations need.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/error.hpp"

namespace nue {

template <typename Key>
class FibonacciHeap {
 public:
  using Id = std::uint32_t;
  static constexpr Id kNil = static_cast<Id>(-1);

  explicit FibonacciHeap(std::size_t capacity)
      : nodes_(capacity), degree_table_(kMaxDegree, kNil) {}

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  bool contains(Id id) const { return nodes_[id].in_heap; }
  Key key(Id id) const {
    NUE_DCHECK(contains(id));
    return nodes_[id].key;
  }

  /// Reset to empty without releasing memory (reused across routing steps).
  void clear() {
    if (size_ == 0) return;
    // Lazy clear: mark every node as out-of-heap by walking the root list
    // would miss children, so walk all nodes only if non-trivial. The heap
    // is small relative to capacity in practice, but correctness first:
    for (auto& n : nodes_) n.in_heap = false;
    min_ = kNil;
    size_ = 0;
  }

  void insert(Id id, Key key) {
    NUE_CHECK_MSG(!nodes_[id].in_heap, "duplicate insert of id " << id);
    Node& n = nodes_[id];
    n.key = key;
    n.parent = kNil;
    n.child = kNil;
    n.degree = 0;
    n.marked = false;
    n.in_heap = true;
    splice_into_roots(id);
    if (min_ == kNil || key < nodes_[min_].key) min_ = id;
    ++size_;
  }

  /// Insert if absent, decrease if present with a smaller key.
  /// Returns true if the stored key changed.
  bool insert_or_decrease(Id id, Key key) {
    if (!nodes_[id].in_heap) {
      insert(id, key);
      return true;
    }
    if (key < nodes_[id].key) {
      decrease_key(id, key);
      return true;
    }
    return false;
  }

  Id min() const {
    NUE_DCHECK(!empty());
    return min_;
  }

  Id extract_min() {
    NUE_CHECK(!empty());
    const Id z = min_;
    // Promote all children of z to roots.
    Id c = nodes_[z].child;
    if (c != kNil) {
      Id it = c;
      do {
        const Id next = nodes_[it].right;
        nodes_[it].parent = kNil;
        nodes_[it].marked = false;
        splice_into_roots(it);
        it = next;
      } while (it != c);
    }
    // Remove z from root list.
    const Id right = nodes_[z].right;
    unlink(z);
    nodes_[z].in_heap = false;
    --size_;
    if (size_ == 0) {
      min_ = kNil;
    } else {
      // `right` was captured after child promotion, so it is a live root.
      NUE_DCHECK(right != z);
      min_ = right;
      consolidate(right);
    }
    return z;
  }

  void decrease_key(Id id, Key key) {
    Node& n = nodes_[id];
    NUE_DCHECK(n.in_heap);
    NUE_CHECK_MSG(!(n.key < key), "decrease_key would increase key");
    n.key = key;
    const Id p = n.parent;
    if (p != kNil && key < nodes_[p].key) {
      cut(id, p);
      cascading_cut(p);
    }
    if (key < nodes_[min_].key) min_ = id;
  }

 private:
  struct Node {
    Key key{};
    Id parent = kNil;
    Id child = kNil;
    Id left = kNil;
    Id right = kNil;
    std::uint32_t degree = 0;
    bool marked = false;
    bool in_heap = false;
  };

  void splice_into_roots(Id id) {
    if (min_ == kNil) {
      nodes_[id].left = id;
      nodes_[id].right = id;
    } else {
      // Insert next to min_ (anchor of the circular root list).
      Node& m = nodes_[min_];
      nodes_[id].left = min_;
      nodes_[id].right = m.right;
      nodes_[m.right].left = id;
      m.right = id;
    }
  }

  /// Remove id from its circular sibling list (does not touch parent links).
  void unlink(Id id) {
    Node& n = nodes_[id];
    nodes_[n.left].right = n.right;
    nodes_[n.right].left = n.left;
  }

  void consolidate(Id some_root) {
    // Collect the current roots (the circular list through some_root).
    scratch_roots_.clear();
    Id it = some_root;
    do {
      scratch_roots_.push_back(it);
      it = nodes_[it].right;
    } while (it != some_root);

    // degree_table_ is all-nil between calls; only slots [0, top] are
    // written, so only they are scanned and cleared again below.
    std::uint32_t top = 0;
    for (Id x : scratch_roots_) {
      std::uint32_t d = nodes_[x].degree;
      while (degree_table_[d] != kNil) {
        Id y = degree_table_[d];
        if (nodes_[y].key < nodes_[x].key) std::swap(x, y);
        link(y, x);  // y becomes child of x
        degree_table_[d] = kNil;
        ++d;
      }
      degree_table_[d] = x;
      top = std::max(top, d);
    }
    // Rebuild the root list and min pointer from the degree table.
    min_ = kNil;
    for (std::uint32_t d = 0; d <= top; ++d) {
      const Id r = degree_table_[d];
      if (r == kNil) continue;
      degree_table_[d] = kNil;
      nodes_[r].left = r;
      nodes_[r].right = r;
      if (min_ == kNil) {
        min_ = r;
      } else {
        // splice r next to min_
        Node& m = nodes_[min_];
        nodes_[r].left = min_;
        nodes_[r].right = m.right;
        nodes_[m.right].left = r;
        m.right = r;
        if (nodes_[r].key < m.key) min_ = r;
      }
    }
  }

  /// Make y a child of x (both are roots; y already unlinked by caller loop
  /// semantics — we unlink it here for safety).
  void link(Id y, Id x) {
    unlink(y);
    Node& ny = nodes_[y];
    Node& nx = nodes_[x];
    ny.parent = x;
    ny.marked = false;
    if (nx.child == kNil) {
      nx.child = y;
      ny.left = y;
      ny.right = y;
    } else {
      Node& c = nodes_[nx.child];
      ny.left = nx.child;
      ny.right = c.right;
      nodes_[c.right].left = y;
      c.right = y;
    }
    ++nx.degree;
  }

  void cut(Id id, Id parent) {
    Node& p = nodes_[parent];
    if (p.child == id) {
      p.child = nodes_[id].right == id ? kNil : nodes_[id].right;
    }
    unlink(id);
    --p.degree;
    nodes_[id].parent = kNil;
    nodes_[id].marked = false;
    splice_into_roots(id);
  }

  void cascading_cut(Id id) {
    Id p = nodes_[id].parent;
    while (p != kNil) {
      if (!nodes_[id].marked) {
        nodes_[id].marked = true;
        return;
      }
      cut(id, p);
      id = p;
      p = nodes_[id].parent;
    }
  }

  // Root degrees stay below log_phi(capacity) + 2, far under 64.
  static constexpr std::size_t kMaxDegree = 64;

  std::vector<Node> nodes_;
  std::vector<Id> scratch_roots_;
  std::vector<Id> degree_table_;
  Id min_ = kNil;
  std::size_t size_ = 0;
};

}  // namespace nue
