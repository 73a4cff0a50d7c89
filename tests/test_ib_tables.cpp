// Compiled InfiniBand-style state: LFT/SL/SL2VL compilation must be a
// faithful encoding of every routing engine's function.
#include <gtest/gtest.h>

#include <algorithm>

#include "nue/nue_routing.hpp"
#include "routing/dfsssp.hpp"
#include "routing/ib_tables.hpp"
#include "routing/lash.hpp"
#include "routing/torus_qos.hpp"
#include "routing/updown.hpp"
#include "test_helpers.hpp"
#include "topology/misc_topologies.hpp"
#include "topology/torus.hpp"
#include "util/rng.hpp"

namespace nue {
namespace {

TEST(IbTables, LidAssignmentDenseAndOneBased) {
  Network net = test::make_ring(4, 2);
  NueOptions opt;
  const auto rr = route_nue(net, net.terminals(), opt);
  const auto t = compile_ib_tables(net, rr);
  EXPECT_EQ(t.node_of_lid.size(), net.num_alive_nodes() + 1);
  EXPECT_EQ(t.node_of_lid[0], kInvalidNode);  // LID 0 reserved
  for (NodeId v = 0; v < net.num_nodes(); ++v) {
    if (!net.node_alive(v)) continue;
    const Lid lid = t.lid_of_node[v];
    ASSERT_NE(lid, kInvalidLid);
    EXPECT_EQ(t.node_of_lid[lid], v);
  }
}

TEST(IbTables, DeadNodesGetNoLid) {
  Network net = test::make_ring(5, 1);
  net.remove_node(net.terminals()[0]);
  NueOptions opt;
  const auto rr = route_nue(net, net.terminals(), opt);
  const auto t = compile_ib_tables(net, rr);
  bool any_invalid = false;
  for (NodeId v = 0; v < net.num_nodes(); ++v) {
    if (!net.node_alive(v)) any_invalid |= t.lid_of_node[v] == kInvalidLid;
  }
  EXPECT_TRUE(any_invalid);
}

TEST(IbTables, CompiledStateMatchesNue) {
  Rng rng(3);
  RandomSpec spec{20, 55, 2};
  Network net = make_random(spec, rng);
  for (std::uint32_t k : {1u, 4u}) {
    NueOptions opt;
    opt.num_vls = k;
    const auto rr = route_nue(net, net.terminals(), opt);
    const auto t = compile_ib_tables(net, rr);
    EXPECT_TRUE(verify_compiled(net, rr, t)) << "k=" << k;
  }
}

TEST(IbTables, CompiledStateMatchesPerSourceEngines) {
  Rng rng(4);
  RandomSpec spec{18, 50, 2};
  Network net = make_random(spec, rng);
  {
    const auto rr = route_dfsssp(net, net.terminals(), {.max_vls = 8});
    EXPECT_TRUE(verify_compiled(net, rr, compile_ib_tables(net, rr)));
  }
  {
    const auto rr = route_lash(net, net.terminals(), {.max_vls = 8});
    EXPECT_TRUE(verify_compiled(net, rr, compile_ib_tables(net, rr)));
  }
  {
    const auto rr = route_updown(net, net.terminals());
    EXPECT_TRUE(verify_compiled(net, rr, compile_ib_tables(net, rr)));
  }
}

TEST(IbTables, CompiledStateMatchesPerHopTorusScheme) {
  TorusSpec spec{{4, 4}, 2, 1};
  Network net = make_torus(spec);
  const auto rr = route_torus_qos(net, spec, net.terminals());
  const auto t = compile_ib_tables(net, rr);
  EXPECT_FALSE(t.vl_by_dest.empty());  // per-hop scheme uses the helper
  EXPECT_TRUE(verify_compiled(net, rr, t));
}

TEST(IbTables, WalkDetectsLftHole) {
  Network net = test::make_line(3, 1);
  NueOptions opt;
  const auto rr = route_nue(net, net.terminals(), opt);
  auto t = compile_ib_tables(net, rr);
  // Punch a hole: switch 1's entry toward the last terminal.
  const Lid dlid = t.lid_of_node[net.terminals()[2]];
  t.lft[1][dlid] = kInvalidPort;
  EXPECT_THROW(ib_walk(net, t, net.terminals()[0], net.terminals()[2]),
               std::logic_error);
}

TEST(IbTables, FootprintAccountsAllSwitchEntries) {
  Network net = test::make_ring(6, 2);
  NueOptions opt;
  const auto rr = route_nue(net, net.terminals(), opt);
  const auto t = compile_ib_tables(net, rr);
  // 6 switches x (18 alive nodes + reserved LID 0).
  EXPECT_EQ(t.total_lft_entries(), 6u * 19u);
}

// --- negative cases: verify_compiled must reject a corrupted compilation --

TEST(IbTables, VerifyRejectsLftDetourAtOneSwitch) {
  // Redirect one switch's LFT entry to a neighbour that still reaches the
  // destination without coming back: the compiled routes stay complete
  // (ib_walk arrives) but differ from the routed ones for exactly the
  // terminals whose path crosses that switch.
  TorusSpec spec{{4, 4}, 1, 1};
  Network net = make_torus(spec);
  NueOptions opt;
  opt.num_vls = 2;
  const auto rr = route_nue(net, net.terminals(), opt);
  const auto clean = compile_ib_tables(net, rr);
  ASSERT_TRUE(verify_compiled(net, rr, clean));
  const NodeId d = net.terminals()[0];
  const Lid dlid = clean.lid_of_node[d];
  for (NodeId v : net.switches()) {
    if (v == net.terminal_switch(d)) continue;
    std::size_t crossing = 0;
    NodeId crosser = kInvalidNode;
    for (NodeId s : net.terminals()) {
      if (s == d) continue;
      const auto path = rr.trace(net, s, d);
      for (ChannelId c : path) {
        if (net.src(c) == v) {
          ++crossing;
          crosser = s;
        }
      }
    }
    if (crossing == 0 || crossing + 1 >= net.num_alive_terminals()) continue;
    const auto& ports = clean.port_channel[v];
    for (std::size_t p = 0; p < ports.size(); ++p) {
      const NodeId u = net.dst(ports[p]);
      if (ports[p] == rr.next(v, rr.dest_index(d)) || !net.is_switch(u)) {
        continue;
      }
      const auto rest = rr.trace(net, u, d);
      if (std::any_of(rest.begin(), rest.end(),
                      [&](ChannelId c) { return net.dst(c) == v; })) {
        continue;  // the detour would loop back through v
      }
      auto t = clean;
      t.lft[v][dlid] = static_cast<std::uint8_t>(p);
      EXPECT_NE(ib_walk(net, t, crosser, d), rr.trace(net, crosser, d));
      EXPECT_FALSE(verify_compiled(net, rr, t));
      return;
    }
  }
  FAIL() << "no loop-free detour found";
}

TEST(IbTables, VerifyRejectsCorruptedSlOnPerSourceTable) {
  Rng rng(4);
  RandomSpec spec{18, 50, 2};
  Network net = make_random(spec, rng);
  for (const bool lash : {true, false}) {
    const auto rr = lash ? route_lash(net, net.terminals(), {.max_vls = 8})
                         : route_dfsssp(net, net.terminals(), {.max_vls = 8});
    ASSERT_EQ(rr.vl_mode(), VlMode::kPerSource);
    ASSERT_GE(rr.num_vls(), 2u) << "the SL would map to the only VL";
    auto t = compile_ib_tables(net, rr);
    ASSERT_TRUE(verify_compiled(net, rr, t));
    const NodeId s = net.terminals()[1];
    const NodeId d = net.terminals()[5];
    const std::uint8_t vl = rr.vl(s, s, rr.dest_index(d));
    t.sl[s][t.lid_of_node[d]] =
        static_cast<std::uint8_t>((vl + 1) % rr.num_vls());
    EXPECT_FALSE(verify_compiled(net, rr, t)) << (lash ? "lash" : "dfsssp");
  }
}

TEST(IbTables, VerifyRejectsSlMaskedAtItsOwnPort) {
  // Terminal t1's SL toward t2 is wrong, but t1's own SL2VL map sends it
  // to the right VL; the mismatch only shows at switch 1, whose hop t0's
  // route toward t2 already covers.
  Network net = test::make_line(3, 1);
  NueOptions opt;
  opt.num_vls = 2;
  const auto rr = route_nue(net, net.terminals(), opt);
  auto t = compile_ib_tables(net, rr);
  ASSERT_TRUE(verify_compiled(net, rr, t));
  const NodeId s = net.terminals()[1];
  const NodeId d = net.terminals()[2];
  const std::uint8_t vl = rr.vl(s, s, rr.dest_index(d));
  const auto spare = static_cast<std::uint8_t>(vl + 1);  // maps to VL 1-vl
  t.sl[s][t.lid_of_node[d]] = spare;
  for (auto& port : t.sl2vl[s]) port[spare] = vl;
  EXPECT_FALSE(verify_compiled(net, rr, t));
}

TEST(IbTables, VerifyRejectsCorruptedPerHopVl) {
  TorusSpec spec{{4, 4}, 2, 1};
  Network net = make_torus(spec);
  const auto rr = route_torus_qos(net, spec, net.terminals());
  auto t = compile_ib_tables(net, rr);
  ASSERT_TRUE(verify_compiled(net, rr, t));
  const NodeId d = net.terminals()[0];
  // The first switch of another terminal's route toward d.
  const NodeId v = net.terminal_switch(net.terminals()[7]);
  ASSERT_NE(v, net.terminal_switch(d));
  std::uint8_t& vl = t.vl_by_dest[v][t.lid_of_node[d]];
  vl = static_cast<std::uint8_t>(vl ^ 1u);
  EXPECT_FALSE(verify_compiled(net, rr, t));
}

}  // namespace
}  // namespace nue
