// A dependency graph that grows by candidate edge sets and stays acyclic,
// with a maintained topological order. Two repair paths ask it the same
// question — "does this edge set close a cycle with what is there?" — the
// wave scheduler once per candidate column (src/resilience/waves.cpp),
// and Nue's reroute once per escape-root candidate
// (src/nue/nue_routing.cpp).
//
// A candidate whose edges all run forward in the current order is
// acyclic with the graph by that order alone. Otherwise every cycle of
// the union lies inside the window of order positions [min head, max
// tail] over the candidate's back edges: a cycle's highest-placed vertex
// leaves on a back edge (its tail), its lowest-placed vertex is entered
// by one (its head). So one depth-first search from the back edges'
// heads, confined to that window, decides the candidate exactly — no
// whole-graph pass. A rejected candidate leaves the graph and its order
// as they were (the order is still valid); only an admitted one with a
// back edge pays a Kahn pass to recompute the order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace nue {

class DependencyOrder {
 public:
  using Edge = std::pair<std::uint32_t, std::uint32_t>;

  explicit DependencyOrder(std::size_t num_vertices);

  /// Add edges without a check; call recompute_order() before the next
  /// acyclic_with() or try_add().
  void add_edges(const std::vector<Edge>& es);

  /// Kahn pass over the whole graph: refills the order, false iff the
  /// graph has a cycle (the order is then partial and must not be used).
  bool recompute_order();

  /// True iff the graph plus `es` is acyclic; the graph is unchanged.
  bool acyclic_with(const std::vector<Edge>& es);

  /// Admit `es` iff the graph stays acyclic; on rejection the graph and
  /// its order are left as before.
  bool try_add(const std::vector<Edge>& es);

 private:
  /// With `es` already added: true iff they closed a cycle.
  bool closes_cycle(const std::vector<Edge>& es);
  void pop_edges(const std::vector<Edge>& es);

  std::vector<std::vector<std::uint32_t>> adj_;
  std::vector<std::uint32_t> pos_;
  // Search scratch: a vertex is visited iff seen_ holds this search's
  // stamp, finished iff done_ does too.
  std::vector<std::uint32_t> seen_;
  std::vector<std::uint32_t> done_;
  std::uint32_t stamp_ = 0;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> stack_;
};

}  // namespace nue
