// MinHop-like balanced shortest-path routing and DFSSSP [8]:
// deadlock-free single-source shortest-path routing. DFSSSP computes
// weighted shortest-path trees with balancing weight updates, then breaks
// cycles in the induced channel dependency graph by moving individual
// (source, destination) paths into higher virtual layers.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/network.hpp"
#include "routing/routing.hpp"

namespace nue {

/// Balanced SSSP routing without any deadlock avoidance (1 VL).
/// This is the "fastest possible oblivious routing" control: it is NOT
/// deadlock-free on topologies with cyclic dependencies (e.g. tori).
RoutingResult route_minhop(const Network& net,
                           const std::vector<NodeId>& dests);

struct DfssspOptions {
  std::uint32_t max_vls = 8;
  /// If true, never fail: keep opening layers past max_vls (up to 64) and
  /// report the demand in DfssspStats (used to reproduce Fig. 1b / the VC
  /// annotations of Fig. 10). If false, throw RoutingFailure when the cap
  /// is exceeded — the paper's "DFSSSP is inapplicable" outcome.
  bool allow_exceed = false;
  /// Worker threads (0 = process default from --threads, 1 = serial).
  std::uint32_t num_threads = 0;
};

struct DfssspStats {
  std::uint32_t vls_needed = 1;   // layers required for deadlock-freedom
  std::size_t paths_moved = 0;    // paths shifted during cycle-breaking
};

RoutingResult route_dfsssp(const Network& net,
                           const std::vector<NodeId>& dests,
                           const DfssspOptions& opt = {},
                           DfssspStats* stats = nullptr);

}  // namespace nue
