#include "routing/dependency_order.hpp"

#include <algorithm>

#include "routing/validate.hpp"

namespace nue {

DependencyOrder::DependencyOrder(std::size_t num_vertices)
    : adj_(num_vertices),
      pos_(num_vertices, 0),
      seen_(num_vertices, 0),
      done_(num_vertices, 0) {}

void DependencyOrder::add_edges(const std::vector<Edge>& es) {
  for (const Edge& e : es) adj_[e.first].push_back(e.second);
}

void DependencyOrder::pop_edges(const std::vector<Edge>& es) {
  for (auto it = es.rbegin(); it != es.rend(); ++it) {
    adj_[it->first].pop_back();
  }
}

bool DependencyOrder::recompute_order() { return is_acyclic(adj_, &pos_); }

bool DependencyOrder::closes_cycle(const std::vector<Edge>& es) {
  std::uint32_t lo = UINT32_MAX;
  std::uint32_t hi = 0;
  for (const Edge& e : es) {
    if (pos_[e.first] < pos_[e.second]) continue;
    lo = std::min(lo, pos_[e.second]);
    hi = std::max(hi, pos_[e.first]);
  }
  if (lo == UINT32_MAX) return false;  // all forward: the order certifies it
  if (++stamp_ == 0) {
    std::fill(seen_.begin(), seen_.end(), 0);
    std::fill(done_.begin(), done_.end(), 0);
    stamp_ = 1;
  }
  // Colored depth-first search from every back edge's head: a visited,
  // unfinished vertex reached again lies on the open path, so the path
  // closes a cycle. Vertices outside [lo, hi] lie on no cycle.
  for (const Edge& e : es) {
    const std::uint32_t b = e.second;
    if (pos_[e.first] < pos_[b] || seen_[b] == stamp_) continue;
    seen_[b] = stamp_;
    stack_.assign(1, {b, 0});
    while (!stack_.empty()) {
      const std::uint32_t v = stack_.back().first;
      const std::uint32_t i = stack_.back().second;
      if (i == adj_[v].size()) {
        done_[v] = stamp_;
        stack_.pop_back();
        continue;
      }
      ++stack_.back().second;
      const std::uint32_t w = adj_[v][i];
      if (pos_[w] < lo || pos_[w] > hi) continue;
      if (seen_[w] == stamp_) {
        if (done_[w] != stamp_) return true;
        continue;
      }
      seen_[w] = stamp_;
      stack_.emplace_back(w, 0);
    }
  }
  return false;
}

bool DependencyOrder::acyclic_with(const std::vector<Edge>& es) {
  add_edges(es);
  const bool cyclic = closes_cycle(es);
  pop_edges(es);
  return !cyclic;
}

bool DependencyOrder::try_add(const std::vector<Edge>& es) {
  add_edges(es);
  if (closes_cycle(es)) {
    pop_edges(es);
    return false;
  }
  const bool forward = std::all_of(es.begin(), es.end(), [&](const Edge& e) {
    return pos_[e.first] < pos_[e.second];
  });
  if (!forward) recompute_order();
  return true;
}

}  // namespace nue
