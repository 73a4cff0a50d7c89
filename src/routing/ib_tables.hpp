// InfiniBand-style compiled forwarding state, the form a subnet manager
// (OpenSM, where Nue was eventually merged) actually programs into the
// hardware:
//
//  - LIDs: dense local identifiers assigned to every alive node,
//  - per-switch linear forwarding tables (LFT): LID -> output port,
//  - per-source SL tables: destination LID -> service level,
//  - per-port SL2VL maps: service level -> virtual lane.
//
// Compiling a RoutingResult into this representation and walking packets
// through it exercises exactly the indirections real fabric hardware uses;
// `verify_compiled` cross-checks the compiled state against the original
// routing function hop by hop.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/network.hpp"
#include "routing/routing.hpp"

namespace nue {

using Lid = std::uint16_t;
constexpr Lid kInvalidLid = 0xFFFF;
constexpr std::uint8_t kInvalidPort = 0xFF;

struct IbTables {
  // LID assignment (dense over alive nodes, 1-based like InfiniBand).
  std::vector<Lid> lid_of_node;    // node id -> LID (kInvalidLid if dead)
  std::vector<NodeId> node_of_lid; // LID -> node id (index 0 unused)

  // Port numbering: port p of node v is v's p-th alive outgoing channel.
  // port_channel[v][p] = the channel that port drives.
  std::vector<std::vector<ChannelId>> port_channel;

  // Per-switch LFT: lft[v][lid] = output port toward that LID.
  std::vector<std::vector<std::uint8_t>> lft;

  // Per-source-node SL table: sl[v][lid] = service level for traffic this
  // node originates toward LID (InfiniBand: resolved at path query time).
  std::vector<std::vector<std::uint8_t>> sl;

  // Per-(node, input port) SL2VL: sl2vl[v][in_port][sl] = VL. InfiniBand
  // switches support per-port-pair tables; per-input is enough for every
  // engine here (the per-hop torus scheme keys on the output's ring).
  std::vector<std::vector<std::vector<std::uint8_t>>> sl2vl;

  /// Per-hop VL schemes (Torus-2QoS-like): explicit per-node VL by
  /// destination LID, standing in for the per-port-pair SL2VL programming
  /// the real engine uses. Empty for fixed-VL engines.
  std::vector<std::vector<std::uint8_t>> vl_by_dest;

  std::uint32_t num_vls = 1;

  /// Number of forwarding entries across all switches (table footprint).
  std::size_t total_lft_entries() const {
    std::size_t n = 0;
    for (const auto& t : lft) n += t.size();
    return n;
  }
};

/// Compile a routing into InfiniBand-style state.
/// Per-hop VL schemes (Torus-2QoS-like) are expressible when the VL at a
/// node depends only on (node, destination): the SL carries the
/// destination-class and SL2VL resolves per node. kPerSource schemes map
/// SLs 1:1 to layers.
IbTables compile_ib_tables(const Network& net, const RoutingResult& rr);

/// Walk a packet from `src` to `dst` using ONLY the compiled state
/// (LFT lookups + SL2VL), returning the channels taken; throws on any
/// mismatch with the fabric (dead port, loop).
std::vector<ChannelId> ib_walk(const Network& net, const IbTables& tables,
                               NodeId src, NodeId dst);

/// Cross-check: every (terminal source, destination) pair must traverse
/// exactly the same channels and VLs as the original routing function.
/// Checked once per column with ColumnPass: each (node, lane class) the
/// routed walks settle must take the routed channel and VL in the
/// compiled state, and for SL-resolved lanes all terminals of one lane
/// class must inject with the same SL. Throws where trace() or ib_walk()
/// would: a route that is broken in the routing function, an LFT hole,
/// or a dead port on a route.
bool verify_compiled(const Network& net, const RoutingResult& rr,
                     const IbTables& tables);

}  // namespace nue
