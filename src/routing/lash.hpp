// LASH — LAyered SHortest path routing [32].
//
// Shortest paths are computed per destination switch (one balanced tree
// each, so tables stay destination-based); every (source switch,
// destination switch) pair is then assigned to the first virtual layer
// whose channel dependency graph stays acyclic when the pair's path is
// added. Pairs are processed shortest-first (the standard packing
// heuristic). Terminals inherit their switches' layer.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/network.hpp"
#include "routing/routing.hpp"

namespace nue {

struct LashOptions {
  std::uint32_t max_vls = 8;
  /// Report-only mode: keep opening layers past max_vls (up to 64).
  bool allow_exceed = false;
  /// Worker threads (0 = process default from --threads, 1 = serial).
  /// The balanced tree sweep and the layer packing stay sequential (both
  /// are order-defined); table fill and VL assignment parallelize exactly.
  std::uint32_t num_threads = 0;
};

struct LashStats {
  std::uint32_t vls_needed = 1;
};

RoutingResult route_lash(const Network& net, const std::vector<NodeId>& dests,
                         const LashOptions& opt = {},
                         LashStats* stats = nullptr);

}  // namespace nue
