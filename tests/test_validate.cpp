#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "routing/dfsssp.hpp"
#include "routing/lash.hpp"
#include "routing/routing.hpp"
#include "routing/torus_qos.hpp"
#include "routing/updown.hpp"
#include "routing/validate.hpp"
#include "test_helpers.hpp"
#include "topology/generate.hpp"
#include "topology/misc_topologies.hpp"
#include "topology/trees.hpp"
#include "util/rng.hpp"

namespace nue {
namespace {

using test::make_line;
using test::make_ring;

ChannelId chan(const Network& net, NodeId a, NodeId b) {
  for (ChannelId c : net.out(a)) {
    if (net.dst(c) == b) return c;
  }
  ADD_FAILURE() << "no channel " << a << "->" << b;
  return kInvalidChannel;
}

TEST(IsAcyclic, Basics) {
  EXPECT_TRUE(is_acyclic({}));
  EXPECT_TRUE(is_acyclic({{1}, {2}, {}}));
  EXPECT_FALSE(is_acyclic({{1}, {2}, {0}}));
  EXPECT_FALSE(is_acyclic({{0}}));  // self loop
  EXPECT_TRUE(is_acyclic({{1, 2}, {3}, {3}, {}}));  // diamond
}

/// Hand-build a routing on a 3-switch line (terminals 3,4,5 on switches
/// 0,1,2) that routes everything along the line.
RoutingResult line_routing(const Network& net) {
  std::vector<NodeId> dests = net.terminals();
  RoutingResult rr(net.num_nodes(), dests, 1, VlMode::kPerDest);
  for (std::size_t di = 0; di < dests.size(); ++di) {
    const NodeId d = dests[di];
    const NodeId dsw = net.terminal_switch(d);
    for (NodeId v = 0; v < net.num_nodes(); ++v) {
      if (v == d) continue;
      if (net.is_terminal(v)) {
        rr.set_next(v, di, net.out(v)[0]);
      } else if (v == dsw) {
        rr.set_next(v, di, chan(net, v, d));
      } else {
        const NodeId toward = v < dsw ? v + 1 : v - 1;
        rr.set_next(v, di, chan(net, v, toward));
      }
    }
  }
  return rr;
}

TEST(Validate, AcceptsCorrectLineRouting) {
  Network net = make_line(3);
  const auto rr = line_routing(net);
  const auto rep = validate_routing(net, rr);
  EXPECT_TRUE(rep.ok()) << rep.detail;
  EXPECT_TRUE(rep.connected);
  EXPECT_TRUE(rep.deadlock_free);
  EXPECT_EQ(rep.num_paths, 6u);  // 3 terminals * 2 peers
  EXPECT_EQ(rep.max_path_length, 4u);
}

TEST(Validate, DetectsHole) {
  Network net = make_line(3);
  auto rr = line_routing(net);
  rr.set_next(1, 0, kInvalidChannel);  // punch a hole
  const auto rep = validate_routing(net, rr);
  EXPECT_FALSE(rep.connected);
  EXPECT_FALSE(rep.ok());
}

TEST(Validate, DetectsForwardingLoop) {
  Network net = make_line(3);
  auto rr = line_routing(net);
  // Destination terminal of switch 2; make switches 0 and 1 ping-pong.
  const std::uint32_t di = rr.dest_index(net.terminals()[2]);
  rr.set_next(0, di, chan(net, 0, 1));
  rr.set_next(1, di, chan(net, 1, 0));
  const auto rep = validate_routing(net, rr);
  EXPECT_FALSE(rep.connected);  // the walk never completes
}

TEST(Validate, DetectsCyclicCdgOnRing) {
  // Clockwise-only routing on a 4-ring: connected & cycle-free paths but
  // the CDG is the full directed ring -> not deadlock-free (Theorem 1).
  Network net = make_ring(4);
  std::vector<NodeId> dests = net.terminals();
  RoutingResult rr(net.num_nodes(), dests, 1, VlMode::kPerDest);
  for (std::size_t di = 0; di < dests.size(); ++di) {
    const NodeId d = dests[di];
    const NodeId dsw = net.terminal_switch(d);
    for (NodeId v = 0; v < net.num_nodes(); ++v) {
      if (v == d) continue;
      if (net.is_terminal(v)) {
        rr.set_next(v, di, net.out(v)[0]);
      } else if (v == dsw) {
        rr.set_next(v, di, chan(net, v, d));
      } else {
        rr.set_next(v, di, chan(net, v, (v + 1) % 4));  // always clockwise
      }
    }
  }
  const auto rep = validate_routing(net, rr);
  EXPECT_TRUE(rep.connected);
  EXPECT_TRUE(rep.cycle_free);
  EXPECT_FALSE(rep.deadlock_free);
  EXPECT_FALSE(rep.ok());
}

TEST(Validate, VlSplitBreaksRingCycle) {
  // Same clockwise ring, but odd destinations use VL 1: each VL's CDG is
  // only half the dependencies... still cyclic per VL unless the split is
  // chosen well. Use the dateline rule instead: paths crossing edge 3->0
  // get VL 1 — we emulate with per-hop VLs and expect acyclicity.
  Network net = make_ring(4);
  std::vector<NodeId> dests = net.terminals();
  RoutingResult rr(net.num_nodes(), dests, 2, VlMode::kPerHop);
  for (std::size_t di = 0; di < dests.size(); ++di) {
    const NodeId d = dests[di];
    const NodeId dsw = net.terminal_switch(d);
    for (NodeId v = 0; v < net.num_nodes(); ++v) {
      if (v == d) continue;
      if (net.is_terminal(v)) {
        rr.set_next(v, di, net.out(v)[0]);
        rr.set_hop_vl(v, di, 0);
      } else if (v == dsw) {
        rr.set_next(v, di, chan(net, v, d));
        rr.set_hop_vl(v, di, 0);
      } else {
        rr.set_next(v, di, chan(net, v, (v + 1) % 4));
        // Remaining clockwise path v -> dsw crosses boundary 3->0 iff
        // v > dsw; VL0 before crossing, VL1 after.
        rr.set_hop_vl(v, di, v > dsw ? 0 : 1);
      }
    }
  }
  const auto rep = validate_routing(net, rr);
  EXPECT_TRUE(rep.connected);
  EXPECT_TRUE(rep.deadlock_free) << rep.detail;
}

TEST(Validate, ReportsVlOutOfRange) {
  Network net = make_line(3);
  auto rr = line_routing(net);
  // num_vls is 1; force an out-of-range VL via dest_vl.
  rr.set_dest_vl(0, 3);
  const auto rep = validate_routing(net, rr);
  EXPECT_FALSE(rep.vl_in_range);
}

/// Clockwise ring routing with an explicit VL per destination (dest_vls
/// indexed like net.terminals(), values may exceed num_vls on purpose).
RoutingResult ring_routing_with_vls(const Network& net,
                                    const std::vector<std::uint8_t>& dest_vls,
                                    std::uint32_t num_vls) {
  const std::vector<NodeId> dests = net.terminals();
  const auto n = static_cast<NodeId>(net.num_nodes() - dests.size());
  RoutingResult rr(net.num_nodes(), dests, num_vls, VlMode::kPerDest);
  for (std::size_t di = 0; di < dests.size(); ++di) {
    const NodeId d = dests[di];
    const NodeId dsw = net.terminal_switch(d);
    rr.set_dest_vl(static_cast<std::uint32_t>(di), dest_vls[di]);
    for (NodeId v = 0; v < net.num_nodes(); ++v) {
      if (v == d) continue;
      if (net.is_terminal(v)) {
        rr.set_next(v, di, net.out(v)[0]);
      } else if (v == dsw) {
        rr.set_next(v, di, chan(net, v, d));
      } else {
        rr.set_next(v, di, chan(net, v, (v + 1) % n));
      }
    }
  }
  return rr;
}

TEST(Validate, OutOfRangeVlDoesNotFabricateCycle) {
  // Regression: induced_cdg used to clamp out-of-range VLs onto the top
  // legal layer. On this clockwise 4-ring, destination 3's bogus VL 5
  // would alias onto VL 1 and close the ring cycle among the legitimate
  // VL-1 dependencies — reporting a deadlock the real VL assignment does
  // not have. With dedicated overflow vertices the verdict stays acyclic;
  // the out-of-range VL is still reported via vl_in_range.
  Network net = make_ring(4);
  const auto rr = ring_routing_with_vls(net, {1, 1, 0, 5}, 2);
  const auto rep = validate_routing(net, rr);
  EXPECT_TRUE(rep.connected);
  EXPECT_FALSE(rep.vl_in_range);
  EXPECT_TRUE(rep.deadlock_free) << rep.detail;
  EXPECT_FALSE(rep.ok());
}

TEST(Validate, OutOfRangeVlCycleIsStillDetected) {
  // All four destinations on the same bogus VL: their dependencies meet
  // on the per-channel overflow vertices and form the full ring cycle
  // there — out-of-range hops keep participating in deadlock analysis,
  // they just cannot alias onto legal layers.
  Network net = make_ring(4);
  const auto rr = ring_routing_with_vls(net, {7, 7, 7, 7}, 2);
  const auto rep = validate_routing(net, rr);
  EXPECT_FALSE(rep.vl_in_range);
  EXPECT_FALSE(rep.deadlock_free);
}

TEST(InducedCdg, LineHasChainDependencies) {
  Network net = make_line(3);
  const auto rr = line_routing(net);
  const auto adj = induced_cdg(net, rr, net.terminals());
  EXPECT_TRUE(is_acyclic(adj));
  std::size_t edges = 0;
  for (const auto& a : adj) edges += a.size();
  EXPECT_GT(edges, 0u);
}

TEST(InducedCdg, EachDependencyOnceInAscendingRows) {
  // Many columns exercise the same (channel, VL) dependency; induced_cdg
  // lists it once, every row strictly ascending. A restored link goes to
  // the back of its nodes' adjacency lists, so out(0) is not in channel
  // order here.
  Network net = generate_topology("torus:4x4:2").net;
  const ChannelId first = net.out(0)[0];
  net.remove_link(first);
  net.restore_link(first);
  ASSERT_FALSE(std::is_sorted(net.out(0).begin(), net.out(0).end()));
  const RoutingResult rr = route_updown(net, net.terminals());
  const auto adj = induced_cdg(net, rr, net.terminals());
  std::size_t edges = 0;
  for (const auto& row : adj) {
    EXPECT_TRUE(std::adjacent_find(row.begin(), row.end(),
                                   std::greater_equal<>()) == row.end());
    edges += row.size();
  }
  std::size_t emitted = 0;  // per column, as ColumnPass reports them
  ColumnPass pass(net, rr, rr.num_vls() + 1, rr.num_vls());
  for (std::uint32_t di = 0; di < rr.destinations().size(); ++di) {
    pass.run(di, net.terminals());
    emitted += pass.edges().size();
  }
  EXPECT_GT(edges, 0u);
  EXPECT_GT(emitted, edges);  // so there were repeats to fold
}

// --- stale-table hardening (docs/RESILIENCE.md) -----------------------------

TEST(Validate, StaleDeadChannelFailsLiveElements) {
  // A runtime link failure without a repair: the table still forwards
  // over the dead channel. The walk must flag the stale entry instead of
  // silently traversing a resource that no longer exists.
  Network net = make_line(3);
  const auto rr = line_routing(net);
  net.remove_link(chan(net, 0, 1) & ~ChannelId{1});
  const auto rep = validate_routing(net, rr);
  EXPECT_FALSE(rep.live_elements);
  EXPECT_FALSE(rep.ok());
}

TEST(Validate, DeadDestinationFailsLiveElements) {
  // A destination removed from the fabric (its switch died) while the
  // table still carries its column.
  Network net = make_line(3);
  const auto rr = line_routing(net);
  net.remove_node(net.terminals()[2]);
  const auto rep = validate_routing(net, rr);
  EXPECT_FALSE(rep.live_elements);
  EXPECT_FALSE(rep.ok());
}

TEST(ValidateColumns, WalksOnlyRequestedColumns) {
  Network net = make_line(3);
  auto rr = line_routing(net);
  const NodeId d0 = net.terminals()[0];
  const NodeId d2 = net.terminals()[2];
  rr.set_next(1, rr.dest_index(d0), kInvalidChannel);  // hole in d0's column
  // The broken column is caught when asked for...
  EXPECT_FALSE(validate_columns(net, rr, {d0}).ok());
  // ...and invisible when only d2's column is checked — the point of the
  // subset API is that its cost (and scope) is proportional to the
  // columns an event touched, not to the whole table.
  const auto rep = validate_columns(net, rr, {d2});
  EXPECT_TRUE(rep.ok()) << rep.detail;
  EXPECT_GT(rep.num_paths, 0u);
}

TEST(ValidateColumns, MissingColumnIsDisconnected) {
  Network net = make_line(3);
  const auto rr = line_routing(net);
  // Switch 0 is not a destination of the table: asking for its column
  // must fail as disconnected, not be skipped.
  const auto rep = validate_columns(net, rr, {NodeId{0}});
  EXPECT_FALSE(rep.connected);
  EXPECT_FALSE(rep.ok());
}

TEST(AffectedDestinations, FlagsExactlyTheColumnsUsingADeadLink) {
  // Clockwise ring: the column of switch 0's terminal never crosses the
  // 0->1 channel (its tree is 1->2->3->0), every other column does.
  Network net = make_ring(4);
  const auto rr = ring_routing_with_vls(net, {0, 0, 0, 0}, 1);
  EXPECT_TRUE(affected_destinations(net, rr).empty());
  net.remove_link(chan(net, 0, 1) & ~ChannelId{1});
  const auto affected = affected_destinations(net, rr);
  EXPECT_EQ(affected.size(), 3u);
  for (NodeId d : affected) EXPECT_NE(d, net.terminals()[0]);
}

TEST(AffectedDestinations, DeadDestinationIsAffected) {
  Network net = make_ring(4);
  const auto rr = ring_routing_with_vls(net, {0, 0, 0, 0}, 1);
  const NodeId d = net.terminals()[1];
  net.remove_node(d);
  const auto affected = affected_destinations(net, rr);
  EXPECT_NE(std::find(affected.begin(), affected.end(), d), affected.end());
}

// --- union-CDG transition gate ----------------------------------------------

/// Clockwise per-hop routing on a ring with a 2-VL dateline: hops use VL 0
/// until the path crosses the ring edge (rot-1) -> rot, VL 1 after. Every
/// placement is deadlock-free on its own — the dateline cuts the ring
/// cycle on both layers (rot = 0 is exactly VlSplitBreaksRingCycle above).
RoutingResult ring_dateline_routing(const Network& net, NodeId rot) {
  const std::vector<NodeId> dests = net.terminals();
  const auto n = static_cast<NodeId>(net.num_nodes() - dests.size());
  RoutingResult rr(net.num_nodes(), dests, 2, VlMode::kPerHop);
  const auto turn = [&](NodeId v) { return (v + n - rot) % n; };
  for (std::size_t di = 0; di < dests.size(); ++di) {
    const NodeId d = dests[di];
    const NodeId dsw = net.terminal_switch(d);
    for (NodeId v = 0; v < net.num_nodes(); ++v) {
      if (v == d) continue;
      if (net.is_terminal(v)) {
        rr.set_next(v, di, net.out(v)[0]);
        rr.set_hop_vl(v, di, 0);
      } else if (v == dsw) {
        rr.set_next(v, di, chan(net, v, d));
        rr.set_hop_vl(v, di, 0);
      } else {
        rr.set_next(v, di, chan(net, v, (v + 1) % n));
        rr.set_hop_vl(v, di, turn(v) > turn(dsw) ? 0 : 1);
      }
    }
  }
  return rr;
}

TEST(UnionCdgGate, AcceptsTableAgainstItself) {
  Network net = make_ring(4);
  const auto rr = ring_dateline_routing(net, 0);
  ASSERT_TRUE(validate_routing(net, rr).ok());
  EXPECT_TRUE(union_cdg_acyclic(net, rr, rr));
}

TEST(UnionCdgGate, RejectsDatelineShift) {
  // The textbook reconfiguration deadlock: moving a ring's VL dateline.
  // Each placement is deadlock-free on its own, but on VL 0 the old table
  // covers every ring dependency except the one at its dateline and the
  // new table covers every one except the one at *its* dateline — the
  // union closes the full ring cycle, so in-flight old-table packets and
  // new injections could deadlock mid-swap. The gate must reject exactly
  // this, even though per-table validation passes for both.
  Network net = make_ring(4);
  const auto old_rr = ring_dateline_routing(net, 0);
  const auto new_rr = ring_dateline_routing(net, 2);
  ASSERT_TRUE(validate_routing(net, old_rr).ok());
  ASSERT_TRUE(validate_routing(net, new_rr).ok());
  EXPECT_FALSE(union_cdg_acyclic(net, old_rr, new_rr));
}

// --- ValidateColumnPass: per-column pass vs the per-pair walkers -------------
//
// The reference below is the per-(source, destination) walker code that
// validate_routing, validate_columns, induced_cdg, union_cdg_acyclic and
// the wave scheduler's dependency extractor ran before they were folded
// into ColumnPass, kept verbatim as an independent oracle: every report
// field, every induced edge set, and every union verdict must agree.

namespace ref {

enum class WalkEnd : std::uint8_t {
  kReached,      // arrived at the destination
  kHole,         // missing/foreign table entry
  kDeadChannel,  // entry points at a failed channel (stale table)
  kLoop,         // exceeded the hop bound
};

/// Walk the route src -> dst, invoking cb(channel, vl) per hop taken.
/// Stops (without invoking cb for the offending hop) on a table hole, a
/// dead channel, or a loop; dependencies emitted before the stop are the
/// resources in-flight packets can actually occupy, so callers keep them.
template <typename Cb>
WalkEnd walk(const Network& net, const RoutingResult& rr, NodeId src,
             std::uint32_t dest_idx, NodeId dst, Cb&& cb) {
  NodeId at = src;
  std::size_t hops = 0;
  while (at != dst) {
    const ChannelId c = rr.next(at, dest_idx);
    if (c == kInvalidChannel || net.src(c) != at) return WalkEnd::kHole;
    if (!net.channel_alive(c)) return WalkEnd::kDeadChannel;
    cb(c, rr.vl(at, src, dest_idx));
    at = net.dst(c);
    if (++hops > net.num_nodes()) return WalkEnd::kLoop;
  }
  return WalkEnd::kReached;
}

std::vector<std::vector<std::uint32_t>> induced_cdg(
    const Network& net, const RoutingResult& rr,
    const std::vector<NodeId>& sources) {
  const std::uint32_t stride = rr.num_vls() + 1;
  const std::size_t v = net.num_channels() * stride;
  std::vector<std::vector<std::uint32_t>> adj(v);
  for (std::size_t di = 0; di < rr.destinations().size(); ++di) {
    const NodeId d = rr.destinations()[di];
    for (NodeId s : sources) {
      if (s == d || !net.node_alive(s)) continue;
      std::uint32_t prev = static_cast<std::uint32_t>(-1);
      walk(net, rr, s, static_cast<std::uint32_t>(di), d,
           [&](ChannelId c, std::uint8_t vl) {
             const std::uint32_t slot =
                 vl < rr.num_vls() ? vl : rr.num_vls();
             const auto cur =
                 static_cast<std::uint32_t>(c * stride + slot);
             if (prev != static_cast<std::uint32_t>(-1)) {
               adj[prev].push_back(cur);
             }
             prev = cur;
           });
    }
  }
  return adj;
}

bool is_acyclic(const std::vector<std::vector<std::uint32_t>>& adj) {
  // Iterative three-color DFS.
  const std::size_t n = adj.size();
  std::vector<std::uint8_t> color(n, 0);  // 0 white, 1 gray, 2 black
  std::vector<std::pair<std::uint32_t, std::size_t>> stack;
  for (std::uint32_t start = 0; start < n; ++start) {
    if (color[start] != 0) continue;
    stack.clear();
    stack.emplace_back(start, 0);
    color[start] = 1;
    while (!stack.empty()) {
      auto& [v, i] = stack.back();
      if (i < adj[v].size()) {
        const std::uint32_t w = adj[v][i++];
        if (color[w] == 1) return false;  // back edge -> cycle
        if (color[w] == 0) {
          color[w] = 1;
          stack.emplace_back(w, 0);
        }
      } else {
        color[v] = 2;
        stack.pop_back();
      }
    }
  }
  return true;
}

void validate_dest_walks(const Network& net, const RoutingResult& rr,
                         std::uint32_t di, const std::vector<NodeId>& sources,
                         std::vector<std::uint8_t>& visited,
                         ValidationReport& rep, std::uint64_t& total_len) {
  const NodeId d = rr.destinations()[di];
  if (!net.node_alive(d)) {
    if (rep.live_elements) {
      std::ostringstream os;
      os << "table routes to removed destination " << d;
      rep.detail = os.str();
    }
    rep.live_elements = false;
    return;
  }
  for (NodeId s : sources) {
    if (s == d || !net.node_alive(s)) continue;
    std::size_t len = 0;
    std::vector<NodeId> touched{s};
    visited[s] = 1;
    bool node_revisited = false;
    const WalkEnd end = walk(net, rr, s, di, d,
                             [&](ChannelId c, std::uint8_t vl) {
                               ++len;
                               const NodeId w = net.dst(c);
                               if (visited[w]) node_revisited = true;
                               visited[w] = 1;
                               touched.push_back(w);
                               if (vl >= rr.num_vls()) rep.vl_in_range = false;
                             });
    for (NodeId v : touched) visited[v] = 0;
    if (end == WalkEnd::kDeadChannel) {
      if (rep.live_elements && rep.detail.empty()) {
        std::ostringstream os;
        os << "route " << s << " -> " << d << " crosses a dead channel";
        rep.detail = os.str();
      }
      rep.live_elements = false;
    }
    if (end != WalkEnd::kReached) {
      if (rep.connected && rep.detail.empty()) {
        std::ostringstream os;
        os << "no complete route " << s << " -> " << d;
        rep.detail = os.str();
      }
      rep.connected = false;
      continue;
    }
    if (node_revisited) {
      rep.cycle_free = false;
      if (rep.detail.empty()) {
        std::ostringstream os;
        os << "route " << s << " -> " << d << " revisits a node";
        rep.detail = os.str();
      }
    }
    ++rep.num_paths;
    total_len += len;
    rep.max_path_length = std::max(rep.max_path_length, len);
  }
}

ValidationReport validate_routing(const Network& net, const RoutingResult& rr,
                                  std::vector<NodeId> sources) {
  if (sources.empty()) sources = net.terminals();
  ValidationReport rep;
  std::vector<std::uint8_t> visited(net.num_nodes(), 0);
  std::uint64_t total_len = 0;
  for (std::size_t di = 0; di < rr.destinations().size(); ++di) {
    validate_dest_walks(net, rr, static_cast<std::uint32_t>(di), sources,
                        visited, rep, total_len);
  }
  if (rep.num_paths > 0) {
    rep.avg_path_length =
        static_cast<double>(total_len) / static_cast<double>(rep.num_paths);
  }
  rep.deadlock_free = ref::is_acyclic(ref::induced_cdg(net, rr, sources));
  if (!rep.deadlock_free && rep.detail.empty()) {
    rep.detail = "induced CDG has a cycle";
  }
  return rep;
}

ValidationReport validate_columns(const Network& net, const RoutingResult& rr,
                                  const std::vector<NodeId>& dests,
                                  std::vector<NodeId> sources) {
  if (sources.empty()) sources = net.terminals();
  ValidationReport rep;
  std::vector<std::uint8_t> visited(net.num_nodes(), 0);
  std::uint64_t total_len = 0;
  for (NodeId d : dests) {
    const std::uint32_t di = rr.dest_index(d);
    if (di == RoutingResult::kNoDest) {
      if (rep.connected && rep.detail.empty()) {
        std::ostringstream os;
        os << "table has no column for destination " << d;
        rep.detail = os.str();
      }
      rep.connected = false;
      continue;
    }
    validate_dest_walks(net, rr, di, sources, visited, rep, total_len);
  }
  if (rep.num_paths > 0) {
    rep.avg_path_length =
        static_cast<double>(total_len) / static_cast<double>(rep.num_paths);
  }
  return rep;
}

struct CdgAccum {
  explicit CdgAccum(std::size_t num_channels, std::uint32_t stride)
      : stride(stride), adj(num_channels * stride) {}

  void edge(std::uint32_t prev, std::uint32_t cur) {
    adj[prev].push_back(cur);
  }

  std::uint32_t slot(const RoutingResult& rr, std::uint8_t vl) const {
    return vl < rr.num_vls() ? vl : stride - 1;
  }

  std::uint32_t stride;
  std::vector<std::vector<std::uint32_t>> adj;
};

void accumulate_column_deps(const Network& net, const RoutingResult& rr,
                            CdgAccum& acc) {
  for (std::size_t di = 0; di < rr.destinations().size(); ++di) {
    const NodeId d = rr.destinations()[di];
    const auto di32 = static_cast<std::uint32_t>(di);
    for (NodeId v = 0; v < net.num_nodes(); ++v) {
      if (v == d || !net.node_alive(v)) continue;
      const ChannelId c = rr.next(v, di32);
      if (c == kInvalidChannel || net.src(c) != v || !net.channel_alive(c)) {
        continue;  // stale/hole entry: no resource can be requested here
      }
      const NodeId u = net.dst(c);
      if (u == d || !net.node_alive(u)) continue;
      const ChannelId c2 = rr.next(u, di32);
      if (c2 == kInvalidChannel || net.src(c2) != u ||
          !net.channel_alive(c2)) {
        continue;
      }
      acc.edge(c * acc.stride + acc.slot(rr, rr.vl(v, v, di32)),
               c2 * acc.stride + acc.slot(rr, rr.vl(u, u, di32)));
    }
  }
}

void accumulate_pair_deps(const Network& net, const RoutingResult& rr,
                          const std::vector<NodeId>& sources, CdgAccum& acc) {
  for (std::size_t di = 0; di < rr.destinations().size(); ++di) {
    const NodeId d = rr.destinations()[di];
    for (NodeId s : sources) {
      if (s == d || !net.node_alive(s)) continue;
      std::uint32_t prev = static_cast<std::uint32_t>(-1);
      walk(net, rr, s, static_cast<std::uint32_t>(di), d,
           [&](ChannelId c, std::uint8_t vl) {
             const auto cur = c * acc.stride + acc.slot(rr, vl);
             if (prev != static_cast<std::uint32_t>(-1)) acc.edge(prev, cur);
             prev = cur;
           });
    }
  }
}

bool union_cdg_acyclic(const Network& net, const RoutingResult& old_rr,
                       const RoutingResult& new_rr,
                       std::vector<NodeId> sources) {
  const std::uint32_t stride =
      std::max(old_rr.num_vls(), new_rr.num_vls()) + 1;
  CdgAccum acc(net.num_channels(), stride);
  for (const RoutingResult* rr : {&old_rr, &new_rr}) {
    if (rr->vl_mode() == VlMode::kPerSource) {
      if (sources.empty()) sources = net.terminals();
      accumulate_pair_deps(net, *rr, sources, acc);
    } else {
      accumulate_column_deps(net, *rr, acc);
    }
  }
  return ref::is_acyclic(acc.adj);
}

using Edge = std::pair<std::uint32_t, std::uint32_t>;

/// The wave scheduler's per-column dependency extractor.
struct DepExtractor {
  const Network& net;
  std::uint32_t stride;

  std::uint32_t slot(std::uint8_t vl) const {
    return vl < stride - 1 ? vl : stride - 1;
  }

  std::vector<Edge> column(const RoutingResult& rr, std::uint32_t di) const {
    std::vector<Edge> edges;
    const NodeId d = rr.destinations()[di];
    if (rr.vl_mode() == VlMode::kPerSource) {
      for (NodeId s : net.terminals()) {
        if (s == d || !net.node_alive(s)) continue;
        NodeId at = s;
        std::size_t hops = 0;
        auto prev = static_cast<std::uint32_t>(-1);
        while (at != d && hops++ <= net.num_nodes()) {
          const ChannelId c = rr.next(at, di);
          if (c == kInvalidChannel || net.src(c) != at ||
              !net.channel_alive(c)) {
            break;  // stale prefix: emitted dependencies stay
          }
          const std::uint32_t cur = c * stride + slot(rr.vl(at, s, di));
          if (prev != static_cast<std::uint32_t>(-1)) {
            edges.emplace_back(prev, cur);
          }
          prev = cur;
          at = net.dst(c);
        }
      }
    } else {
      for (NodeId v = 0; v < net.num_nodes(); ++v) {
        if (v == d || !net.node_alive(v)) continue;
        const ChannelId c = rr.next(v, di);
        if (c == kInvalidChannel || net.src(c) != v ||
            !net.channel_alive(c)) {
          continue;  // hole/stale entry: no resource requested here
        }
        const NodeId u = net.dst(c);
        if (u == d || !net.node_alive(u)) continue;
        const ChannelId c2 = rr.next(u, di);
        if (c2 == kInvalidChannel || net.src(c2) != u ||
            !net.channel_alive(c2)) {
          continue;
        }
        edges.emplace_back(c * stride + slot(rr.vl(v, v, di)),
                           c2 * stride + slot(rr.vl(u, u, di)));
      }
    }
    std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
    return edges;
  }
};

}  // namespace ref

/// A (possibly broken) table on its own copy of a fabric: breakage that
/// kills a link or a destination is applied to the fabric after routing,
/// the way a runtime fault leaves a stale table behind.
struct ColumnCase {
  std::string name;
  Network net;
  RoutingResult rr;
};

/// `base`'s next pointers under lane scheme `mode` with seeded random
/// lanes in [0, vls).
RoutingResult with_random_lanes(const Network& net, const RoutingResult& base,
                                VlMode mode, std::uint32_t vls, Rng& rng) {
  RoutingResult rr(net.num_nodes(), base.destinations(), vls, mode);
  const auto lane = [&] {
    return static_cast<std::uint8_t>(rng.next_below(vls));
  };
  for (std::size_t di = 0; di < base.destinations().size(); ++di) {
    const auto di32 = static_cast<std::uint32_t>(di);
    const NodeId d = base.destinations()[di];
    for (NodeId v = 0; v < net.num_nodes(); ++v) {
      if (v != d) rr.set_next(v, di32, base.next(v, di32));
    }
    switch (mode) {
      case VlMode::kPerDest:
        rr.set_dest_vl(di32, lane());
        break;
      case VlMode::kPerSource:
        for (NodeId v = 0; v < net.num_nodes(); ++v) {
          rr.set_source_vl(v, di32, lane());
        }
        break;
      case VlMode::kPerHop:
        for (NodeId v = 0; v < net.num_nodes(); ++v) {
          rr.set_hop_vl(v, di32, lane());
        }
        break;
    }
  }
  return rr;
}

enum class Breakage { kHole, kDeadChannel, kDeadDestination, kLoop, kBadVl };
constexpr Breakage kAllBreakages[] = {Breakage::kHole, Breakage::kDeadChannel,
                                      Breakage::kDeadDestination,
                                      Breakage::kLoop, Breakage::kBadVl};

NodeId pick(const std::vector<NodeId>& v, Rng& rng) {
  return v[rng.next_below(v.size())];
}

void inject(Breakage b, Network& net, RoutingResult& rr, Rng& rng) {
  const auto di = static_cast<std::uint32_t>(
      rng.next_below(rr.destinations().size()));
  const std::vector<NodeId> switches = net.switches();
  switch (b) {
    case Breakage::kHole: {
      const NodeId v = pick(switches, rng);
      // Alternate between a missing entry and a foreign channel (one that
      // does not leave v); both are holes to a walk.
      const std::vector<ChannelId> alive = net.alive_channels();
      ChannelId foreign = alive[rng.next_below(alive.size())];
      if (net.src(foreign) == v) foreign ^= 1u;  // the reverse leaves the peer
      rr.set_next(v, di, rng.next_below(2) == 0 ? kInvalidChannel : foreign);
      break;
    }
    case Breakage::kDeadChannel: {
      const NodeId v = pick(switches, rng);
      if (net.degree(v) > 0) {
        net.remove_link(net.out(v)[rng.next_below(net.degree(v))]);
      }
      break;
    }
    case Breakage::kDeadDestination: {
      const NodeId d = rr.destinations()[di];
      if (net.node_alive(d)) net.remove_node(d);
      break;
    }
    case Breakage::kLoop: {
      const NodeId v = pick(switches, rng);
      for (ChannelId c : net.out(v)) {
        if (!net.is_switch(net.dst(c)) || net.dst(c) == rr.destinations()[di]) {
          continue;
        }
        rr.set_next(v, di, c);
        rr.set_next(net.dst(c), di, c ^ 1u);  // the reverse channel
        break;
      }
      break;
    }
    case Breakage::kBadVl: {
      const auto bad = static_cast<std::uint8_t>(rr.num_vls() +
                                                 rng.next_below(3));
      const NodeId v = pick(net.terminals(), rng);
      switch (rr.vl_mode()) {
        case VlMode::kPerDest:
          rr.set_dest_vl(di, bad);
          break;
        case VlMode::kPerSource:
          rr.set_source_vl(v, di, bad);
          break;
        case VlMode::kPerHop:
          rr.set_hop_vl(pick(switches, rng), di, bad);
          break;
      }
      break;
    }
  }
}

/// Seeded small fabrics from every generator, each with clean and broken
/// tables in all three lane schemes: Up*/Down* next pointers carrying
/// random lanes (cyclic and acyclic CDGs both occur), plus the engines'
/// own per-source (LASH) and per-hop (Torus-2QoS) tables.
const std::vector<ColumnCase>& column_cases() {
  static const std::vector<ColumnCase> cases = [] {
    std::vector<ColumnCase> out;
    Rng rng(20160531);
    std::vector<std::pair<std::string, GeneratedTopology>> fabrics;
    for (const char* spec :
         {"torus:3x3:2", "torus:4x3:1", "random:10:20:2:5", "random:14:30:1:9",
          "fattree:4:2", "fattree:2:3:2", "kautz:2:2:2:1", "kautz:3:2:1",
          "dragonfly:2:2:1:3", "dragonfly:4:1:2:4", "hyperx:3x3:1",
          "hyperx:2x2x2:2", "hypercube:3:1", "hypercube:4:1"}) {
      fabrics.emplace_back(spec, generate_topology(spec));
    }
    // The fixed-size cascade and tsubame specs are too large for the
    // per-pair reference; their generator families at small scale.
    CascadeSpec cascade;
    cascade.chassis_per_group = 2;
    cascade.routers_per_chassis = 3;
    cascade.black_redundancy = 1;
    cascade.global_per_router = 1;
    cascade.terminals_per_switch = 1;
    fabrics.emplace_back(
        "cascade-small",
        GeneratedTopology{make_cascade(cascade), std::nullopt, std::nullopt});
    ClosSpec clos;
    clos.stage_sizes = {6, 3};
    clos.uplinks = {2};
    clos.num_terminals = 12;
    fabrics.emplace_back(
        "clos-small",
        GeneratedTopology{make_folded_clos(clos), std::nullopt, std::nullopt});
    for (const auto& [spec, g] : fabrics) {
      const Network& net = g.net;
      const RoutingResult base = route_updown(net, net.terminals());
      std::vector<std::pair<std::string, RoutingResult>> tables;
      tables.emplace_back("updown", base);
      for (VlMode mode :
           {VlMode::kPerDest, VlMode::kPerSource, VlMode::kPerHop}) {
        const auto vls = static_cast<std::uint32_t>(1 + rng.next_below(3));
        tables.emplace_back(
            "lanes" + std::to_string(static_cast<int>(mode)),
            with_random_lanes(net, base, mode, vls, rng));
      }
      try {
        tables.emplace_back("lash",
                            route_lash(net, net.terminals(), {.max_vls = 8}));
      } catch (const RoutingFailure&) {
      }
      if (g.torus.has_value()) {
        tables.emplace_back("torus-qos",
                            route_torus_qos(net, *g.torus, net.terminals()));
      }
      for (const auto& [tname, rr] : tables) {
        const std::string name = spec + "/" + tname;
        out.push_back({name, net, rr});
        for (Breakage b : kAllBreakages) {
          ColumnCase c{name + "/break" + std::to_string(static_cast<int>(b)),
                       net, rr};
          inject(b, c.net, c.rr, rng);
          out.push_back(std::move(c));
        }
        ColumnCase mixed{name + "/mixed", net, rr};
        for (int i = 0; i < 3; ++i) {
          inject(kAllBreakages[rng.next_below(5)], mixed.net, mixed.rr, rng);
        }
        out.push_back(std::move(mixed));
      }
    }
    return out;
  }();
  return cases;
}

std::set<std::pair<std::uint32_t, std::uint32_t>> edge_set(
    const std::vector<std::vector<std::uint32_t>>& adj) {
  std::set<std::pair<std::uint32_t, std::uint32_t>> edges;
  for (std::uint32_t v = 0; v < adj.size(); ++v) {
    for (std::uint32_t w : adj[v]) edges.emplace(v, w);
  }
  return edges;
}

/// Every other alive terminal, so explicit source lists get exercised.
std::vector<NodeId> half_the_terminals(const Network& net) {
  std::vector<NodeId> out;
  const std::vector<NodeId> terms = net.terminals();
  for (std::size_t i = 0; i < terms.size(); i += 2) out.push_back(terms[i]);
  return out;
}

TEST(ValidateColumnPass, CorpusCoversEveryLaneSchemeAndVerdict) {
  std::set<VlMode> modes;
  std::size_t ok = 0, disconnected = 0, cyclic = 0, stale = 0, bad_vl = 0;
  for (const ColumnCase& c : column_cases()) {
    modes.insert(c.rr.vl_mode());
    const ValidationReport rep = validate_routing(c.net, c.rr);
    ok += rep.ok();
    disconnected += !rep.connected;
    cyclic += !rep.deadlock_free;
    stale += !rep.live_elements;
    bad_vl += !rep.vl_in_range;
  }
  EXPECT_EQ(modes.size(), 3u);
  EXPECT_GT(ok, 0u);
  EXPECT_GT(disconnected, 0u);
  EXPECT_GT(cyclic, 0u);
  EXPECT_GT(stale, 0u);
  EXPECT_GT(bad_vl, 0u);
}

TEST(ValidateColumnPass, ValidateRoutingMatchesPerPairWalks) {
  for (const ColumnCase& c : column_cases()) {
    SCOPED_TRACE(c.name);
    test::expect_same_report(validate_routing(c.net, c.rr),
                       ref::validate_routing(c.net, c.rr, {}));
    const std::vector<NodeId> half = half_the_terminals(c.net);
    test::expect_same_report(validate_routing(c.net, c.rr, half),
                       ref::validate_routing(c.net, c.rr, half));
  }
}

TEST(ValidateColumnPass, ValidateColumnsMatchesPerPairWalks) {
  Rng rng(7);
  for (const ColumnCase& c : column_cases()) {
    SCOPED_TRACE(c.name);
    // A random column subset with a repeat and a node the table does not
    // route (switch 0 is never a destination here).
    std::vector<NodeId> dests;
    for (NodeId d : c.rr.destinations()) {
      if (rng.next_below(3) == 0) dests.push_back(d);
    }
    dests.push_back(c.rr.destinations().back());
    test::expect_same_report(validate_columns(c.net, c.rr, dests),
                       ref::validate_columns(c.net, c.rr, dests, {}));
    dests.insert(dests.begin() + static_cast<std::ptrdiff_t>(dests.size() / 2),
                 c.net.switches().empty() ? 0 : c.net.switches()[0]);
    test::expect_same_report(validate_columns(c.net, c.rr, dests),
                       ref::validate_columns(c.net, c.rr, dests, {}));
  }
}

TEST(ValidateColumnPass, InducedCdgMatchesPerPairWalks) {
  for (const ColumnCase& c : column_cases()) {
    SCOPED_TRACE(c.name);
    const std::vector<NodeId> terms = c.net.terminals();
    EXPECT_EQ(edge_set(induced_cdg(c.net, c.rr, terms)),
              edge_set(ref::induced_cdg(c.net, c.rr, terms)));
  }
}

TEST(ValidateColumnPass, UnionGateMatchesPerPairWalks) {
  // Pair every table with its fabric's clean tables of the same scheme
  // (the gate runs on an active table and a candidate), both ways round.
  const auto& cases = column_cases();
  std::size_t rejected = 0, compared = 0;
  for (const ColumnCase& c : cases) {
    for (const ColumnCase& other : cases) {
      if (other.rr.vl_mode() != c.rr.vl_mode() ||
          other.rr.num_nodes() != c.rr.num_nodes() ||
          other.name.find("/break") != std::string::npos ||
          other.name.find("/mixed") != std::string::npos ||
          other.name.substr(0, other.name.find('/')) !=
              c.name.substr(0, c.name.find('/'))) {
        continue;
      }
      SCOPED_TRACE(c.name + " vs " + other.name);
      const bool want = ref::union_cdg_acyclic(c.net, other.rr, c.rr, {});
      EXPECT_EQ(union_cdg_acyclic(c.net, other.rr, c.rr), want);
      EXPECT_EQ(union_cdg_acyclic(c.net, c.rr, other.rr),
                ref::union_cdg_acyclic(c.net, c.rr, other.rr, {}));
      const std::vector<NodeId> half = half_the_terminals(c.net);
      EXPECT_EQ(union_cdg_acyclic(c.net, other.rr, c.rr, half),
                ref::union_cdg_acyclic(c.net, other.rr, c.rr, half));
      rejected += !want;
      ++compared;
    }
  }
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(compared, rejected);
}

TEST(ValidateColumnPass, UnionGateEdgesMatchPerPairWalks) {
  // The gate's extraction of one table in a vertex space sized for a
  // larger partner budget: lanes at or above the table's own budget land
  // on the shared overflow slot, never on a partner's legal lane.
  for (const ColumnCase& c : column_cases()) {
    SCOPED_TRACE(c.name);
    const bool per_source = c.rr.vl_mode() == VlMode::kPerSource;
    const std::vector<NodeId> seeds =
        per_source ? c.net.terminals() : c.net.alive_nodes();
    for (std::uint32_t extra : {0u, 2u}) {
      const std::uint32_t stride = c.rr.num_vls() + 1 + extra;
      ref::CdgAccum acc(c.net.num_channels(), stride);
      if (per_source) {
        ref::accumulate_pair_deps(c.net, c.rr, c.net.terminals(), acc);
      } else {
        ref::accumulate_column_deps(c.net, c.rr, acc);
      }
      std::vector<std::vector<std::uint32_t>> got(c.net.num_channels() *
                                                  stride);
      ColumnPass pass(c.net, c.rr, stride, c.rr.num_vls());
      for (std::size_t di = 0; di < c.rr.destinations().size(); ++di) {
        pass.run(static_cast<std::uint32_t>(di), seeds);
        for (const auto& [from, to] : pass.edges()) got[from].push_back(to);
      }
      EXPECT_EQ(edge_set(got), edge_set(acc.adj)) << "stride " << stride;
    }
  }
}

TEST(ValidateColumnPass, WaveColumnEdgesMatchPerPairWalks) {
  // The wave scheduler's extraction: a vertex space sized for the larger
  // of two budgets, lanes at or above it on the overflow slot, per-source
  // columns walked from the terminals and the rest from every alive node.
  for (const ColumnCase& c : column_cases()) {
    SCOPED_TRACE(c.name);
    for (std::uint32_t extra : {0u, 2u}) {
      const std::uint32_t stride = c.rr.num_vls() + 1 + extra;
      const ref::DepExtractor ex{c.net, stride};
      ColumnPass pass(c.net, c.rr, stride, stride - 1);
      const std::vector<NodeId> seeds = c.rr.vl_mode() == VlMode::kPerSource
                                            ? c.net.terminals()
                                            : c.net.alive_nodes();
      for (std::size_t di = 0; di < c.rr.destinations().size(); ++di) {
        const auto di32 = static_cast<std::uint32_t>(di);
        pass.run(di32, seeds);
        std::vector<ColumnPass::Edge> got = pass.edges();
        std::sort(got.begin(), got.end());
        // Each dependency is emitted once per column already.
        EXPECT_EQ(std::adjacent_find(got.begin(), got.end()), got.end());
        EXPECT_EQ(got, ex.column(c.rr, di32)) << "column " << di;
      }
    }
  }
}

TEST(ValidateColumnPass, KahnMatchesDfsOnRandomGraphs) {
  Rng rng(11);
  for (int trial = 0; trial < 300; ++trial) {
    const auto n = static_cast<std::uint32_t>(1 + rng.next_below(12));
    std::vector<std::vector<std::uint32_t>> adj(n);
    const std::uint64_t m = rng.next_below(2 * n);
    for (std::uint64_t e = 0; e < m; ++e) {
      adj[rng.next_below(n)].push_back(
          static_cast<std::uint32_t>(rng.next_below(n)));
    }
    std::vector<std::uint32_t> pos(n, 0);
    const bool acyclic = is_acyclic(adj, &pos);
    EXPECT_EQ(acyclic, ref::is_acyclic(adj)) << "trial " << trial;
    if (!acyclic) continue;
    for (std::uint32_t v = 0; v < n; ++v) {
      for (std::uint32_t w : adj[v]) EXPECT_LT(pos[v], pos[w]);
    }
  }
}

// --- RoutingResult column operations -----------------------------------------

/// A ring table in `mode` whose lanes differ per (node, column): every
/// lane entry is distinguishable, so a copy or compare that reads the
/// wrong slot shows.
RoutingResult lane_table(const Network& net, VlMode mode, std::uint8_t base) {
  const RoutingResult hops = route_minhop(net, net.terminals());
  RoutingResult rr(net.num_nodes(), hops.destinations(), 8, mode);
  for (std::uint32_t di = 0; di < hops.destinations().size(); ++di) {
    for (NodeId v = 0; v < net.num_nodes(); ++v) {
      rr.set_next(v, di, hops.next(v, di));
      const auto vl = static_cast<std::uint8_t>(base + (v + 3 * di) % 5);
      if (mode == VlMode::kPerSource) rr.set_source_vl(v, di, vl);
      if (mode == VlMode::kPerHop) rr.set_hop_vl(v, di, vl);
    }
    if (mode == VlMode::kPerDest) {
      rr.set_dest_vl(di, static_cast<std::uint8_t>(base + di % 5));
    }
  }
  return rr;
}

constexpr VlMode kAllModes[] = {VlMode::kPerDest, VlMode::kPerSource,
                                VlMode::kPerHop};

TEST(RoutingColumns, CopyLanesCopiesEveryNodeVerbatim) {
  Network net = test::make_ring(4, 1);
  net.remove_node(2);  // a dead switch keeps its lane entries
  for (const VlMode mode : kAllModes) {
    const RoutingResult from = lane_table(net, mode, 1);
    RoutingResult to(net.num_nodes(), from.destinations(), 8, mode);
    to.copy_lanes(0, from, 3);
    for (NodeId v = 0; v < net.num_nodes(); ++v) {
      EXPECT_EQ(to.vl(v, v, 0), from.vl(v, v, 3)) << "node " << v;
      EXPECT_EQ(to.next(v, 0), kInvalidChannel) << "next pointers stay";
    }
    EXPECT_EQ(to.vl(0, 0, 1), 0) << "other columns stay";
  }
  const RoutingResult per_dest = lane_table(net, VlMode::kPerDest, 1);
  RoutingResult per_hop(net.num_nodes(), per_dest.destinations(), 8,
                        VlMode::kPerHop);
  EXPECT_THROW(per_hop.copy_lanes(0, per_dest, 0), std::logic_error);
}

TEST(RoutingColumns, ShiftLanesMovesEveryLaneAndWidensTheBudget) {
  const Network net = test::make_ring(4, 1);
  for (const VlMode mode : kAllModes) {
    const RoutingResult rr = lane_table(net, mode, 1);
    RoutingResult shifted = rr;
    shifted.shift_lanes(8);
    EXPECT_EQ(shifted.num_vls(), 16u);
    EXPECT_EQ(shifted.vl_mode(), mode);
    for (std::uint32_t di = 0; di < rr.destinations().size(); ++di) {
      for (NodeId v = 0; v < net.num_nodes(); ++v) {
        EXPECT_EQ(shifted.vl(v, v, di), rr.vl(v, v, di) + 8);
        EXPECT_EQ(shifted.next(v, di), rr.next(v, di));
      }
    }
  }
}

TEST(RoutingColumns, SameColumnComparesAliveNodesOtherThanTheDestination) {
  Network net = test::make_ring(4, 1);
  const NodeId dead = 4;  // the terminal of switch 0
  net.remove_node(dead);
  for (const VlMode mode : kAllModes) {
    const RoutingResult a = lane_table(net, mode, 1);
    const std::uint32_t di = 1;
    const NodeId d = a.destinations()[di];
    ASSERT_NE(d, dead);
    const auto changed = [&](const std::function<void(RoutingResult&)>& f) {
      RoutingResult b = a;
      f(b);
      return !a.same_column(net, di, b, di);
    };
    const auto set_lane = [mode](RoutingResult& rr, NodeId v,
                                 std::uint32_t col, std::uint8_t vl) {
      if (mode == VlMode::kPerDest) rr.set_dest_vl(col, vl);
      if (mode == VlMode::kPerSource) rr.set_source_vl(v, col, vl);
      if (mode == VlMode::kPerHop) rr.set_hop_vl(v, col, vl);
    };
    EXPECT_FALSE(changed([](RoutingResult&) {}));
    // Next pointers at alive nodes count; at a dead node and at d not.
    EXPECT_TRUE(changed([&](RoutingResult& b) {
      b.set_next(1, di, kInvalidChannel);
    }));
    EXPECT_FALSE(changed([&](RoutingResult& b) {
      b.set_next(dead, di, 0);
    }));
    EXPECT_FALSE(changed([&](RoutingResult& b) { b.set_next(d, di, 0); }));
    // Another column's change is not this column's.
    EXPECT_FALSE(changed([&](RoutingResult& b) {
      b.set_next(1, di + 1, kInvalidChannel);
      set_lane(b, 1, di + 1, 7);
    }));
    // Lanes: one per column for kPerDest; otherwise per alive node but d.
    EXPECT_TRUE(changed([&](RoutingResult& b) { set_lane(b, 1, di, 7); }));
    EXPECT_EQ(changed([&](RoutingResult& b) { set_lane(b, dead, di, 7); }),
              mode == VlMode::kPerDest);
    EXPECT_EQ(changed([&](RoutingResult& b) { set_lane(b, d, di, 7); }),
              mode == VlMode::kPerDest);
  }
}

}  // namespace
}  // namespace nue
