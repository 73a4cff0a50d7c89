// Human-readable exports: OpenSM-style forwarding-table dumps (akin to
// `osm-lid-matrix.dump` / SL2VL listings) and Graphviz renderings of the
// network and of an induced channel dependency graph — handy when
// debugging a routing engine or teaching the CDG model.
#pragma once

#include <iosfwd>
#include <vector>

#include "graph/network.hpp"
#include "routing/routing.hpp"

namespace nue {

/// Per-node forwarding table dump: one block per node listing
/// `dest -> out-channel (next hop) vl`. Ordered and deterministic.
void write_forwarding_tables(std::ostream& os, const Network& net,
                             const RoutingResult& rr);

/// GraphViz (dot) rendering of the network: switches as boxes, terminals
/// as circles, one undirected edge per duplex link.
void write_network_dot(std::ostream& os, const Network& net);

/// GraphViz rendering of the CDG induced by `rr` for traffic from
/// `sources` (default: all terminals): one vertex per (channel, VL) in
/// use, edges = observed dependencies (a line per dependency and column,
/// see induced_cdg). Cycle-free output is a visual proof of Theorem 1's
/// condition.
void write_cdg_dot(std::ostream& os, const Network& net,
                   const RoutingResult& rr,
                   std::vector<NodeId> sources = {});

/// Serialize a routing to a line-oriented text format (destinations, VL
/// mode, next-channel entries, VL tables), and parse it back. The network
/// is NOT embedded: loading requires the same fabric (ids must match) —
/// pair with save_fabric_file(). Round-trip stable.
void write_routing(std::ostream& os, const Network& net,
                   const RoutingResult& rr);
RoutingResult read_routing(std::istream& is, const Network& net);

}  // namespace nue
