// Fail-in-place incremental rerouting tests: after failures, the merged
// routing (preserved columns + recomputed columns) must satisfy all four
// validity properties, and untouched columns must be bit-identical.
#include <gtest/gtest.h>

#include "nue/nue_routing.hpp"
#include "routing/validate.hpp"
#include "test_helpers.hpp"
#include "topology/faults.hpp"
#include "topology/generate.hpp"
#include "topology/misc_topologies.hpp"
#include "topology/torus.hpp"
#include "util/rng.hpp"

namespace nue {
namespace {

TEST(Reroute, NoFailuresKeepsEverything) {
  TorusSpec spec{{4, 4}, 2, 1};
  Network net = make_torus(spec);
  NueOptions opt;
  opt.num_vls = 2;
  const auto old = route_nue(net, net.terminals(), opt);
  RerouteStats rs;
  const auto rr = reroute_nue(net, old, opt, &rs);
  EXPECT_EQ(rs.dests_kept, net.terminals().size());
  EXPECT_EQ(rs.dests_rerouted, 0u);
  EXPECT_EQ(rs.dests_dropped, 0u);
  EXPECT_TRUE(validate_routing(net, rr).ok());
}

TEST(Reroute, LinkFailureReroutesOnlyAffectedColumns) {
  TorusSpec spec{{4, 4, 3}, 2, 1};
  Network net = make_torus(spec);
  NueOptions opt;
  opt.num_vls = 4;
  const auto old = route_nue(net, net.terminals(), opt);
  Rng rng(3);
  ASSERT_EQ(inject_link_failures(net, 2, rng), 2u);
  RerouteStats rs;
  NueStats ns;
  const auto rr = reroute_nue(net, old, opt, &rs, &ns);
  const auto rep = validate_routing(net, rr);
  EXPECT_TRUE(rep.ok()) << rep.detail;
  EXPECT_GT(rs.dests_rerouted, 0u);
  EXPECT_GT(rs.dests_kept, 0u);
  // Kept columns are identical to the old tables.
  for (NodeId d : rr.destinations()) {
    bool identical = true;
    for (NodeId v = 0; v < net.num_nodes(); ++v) {
      if (v == d || !net.node_alive(v)) continue;
      if (rr.next(v, rr.dest_index(d)) != old.next(v, old.dest_index(d))) {
        identical = false;
        break;
      }
    }
    // Either kept verbatim or recomputed; both must route correctly.
    EXPECT_NO_THROW(rr.trace(net, net.terminals()[0] == d
                                     ? net.terminals()[1]
                                     : net.terminals()[0],
                             d));
    (void)identical;
  }
}

TEST(Reroute, SwitchFailureDropsItsTerminals) {
  TorusSpec spec{{4, 4, 3}, 4, 1};
  Network net = make_torus(spec);
  NueOptions opt;
  opt.num_vls = 2;
  const auto old = route_nue(net, net.terminals(), opt);
  Rng rng(2016);
  ASSERT_EQ(inject_switch_failures(net, 1, rng), 1u);
  RerouteStats rs;
  const auto rr = reroute_nue(net, old, opt, &rs);
  EXPECT_EQ(rs.dests_dropped, 4u);  // the dead switch's terminals
  EXPECT_EQ(rr.destinations().size(), old.destinations().size() - 4);
  EXPECT_TRUE(validate_routing(net, rr).ok());
}

TEST(Reroute, RepeatedDegradationStaysValid) {
  // Degrade in rounds, rerouting incrementally each time (the operational
  // fail-in-place loop), and verify deadlock-freedom after every round.
  Rng topo_rng(9);
  RandomSpec spec{25, 75, 3};
  Network net = make_random(spec, topo_rng);
  NueOptions opt;
  opt.num_vls = 3;
  auto rr = route_nue(net, net.terminals(), opt);
  Rng rng(4);
  for (int round = 0; round < 4; ++round) {
    if (inject_link_failures(net, 2, rng) == 0) break;
    RerouteStats rs;
    rr = reroute_nue(net, rr, opt, &rs);
    const auto rep = validate_routing(net, rr);
    ASSERT_TRUE(rep.ok()) << "round " << round << ": " << rep.detail;
  }
}

TEST(Reroute, MergedCdgIsAcyclicAcrossKeptAndNewColumns) {
  // The critical property: kept dependencies + recomputed dependencies
  // must form one acyclic CDG per layer (checked by validate_routing via
  // Theorem 1, exercised here with k = 1 so everything shares a layer).
  Network net = test::make_ring(8, 2);
  NueOptions opt;
  opt.num_vls = 1;
  const auto old = route_nue(net, net.terminals(), opt);
  // Fail one ring link (keeps connectivity: ring -> line).
  for (ChannelId c = 0; c < net.num_channels(); c += 2) {
    if (net.is_switch(net.src(c)) && net.is_switch(net.dst(c))) {
      net.remove_link(c);
      break;
    }
  }
  RerouteStats rs;
  const auto rr = reroute_nue(net, old, opt, &rs);
  const auto rep = validate_routing(net, rr);
  EXPECT_TRUE(rep.ok()) << rep.detail;
  EXPECT_GT(rs.dests_rerouted + rs.dests_demoted, 0u);
}

TEST(Reroute, ReportsTheOmegaCountersOfTheLayersItRoutes) {
  // Every rerouted column runs the ω checks of Nue's CDG search, so a
  // repair that recomputes columns has nonzero counters, like route_nue.
  TorusSpec spec{{4, 4, 3}, 2, 1};
  Network net = make_torus(spec);
  NueOptions opt;
  opt.num_vls = 4;
  const auto old = route_nue(net, net.terminals(), opt);
  Rng rng(3);
  ASSERT_EQ(inject_link_failures(net, 3, rng), 3u);
  RerouteStats rs;
  NueStats ns;
  reroute_nue(net, old, opt, &rs, &ns);
  ASSERT_GT(rs.dests_rerouted, 0u);
  EXPECT_GT(ns.fast_accepts, 0u);
  EXPECT_GT(ns.cycle_searches, 0u);
  EXPECT_GT(ns.cycle_search_steps, 0u);
}

// reroute_nue builds a router only for an escape root its static screen
// passes, so the screen must agree with init_escape_paths on a freshly
// bulk-loaded router for every root of every layer it repairs.
TEST(Reroute, EscapeRootScreenMatchesTheRouter) {
  std::size_t fits = 0;
  std::size_t misfits = 0;
  for (const char* spec : {"torus:4x4x3:1", "fattree:4:3"}) {
    for (std::uint32_t k : {2u, 4u}) {
      for (std::uint64_t seed : {1u, 2u}) {
        Network net = generate_topology(spec).net;
        NueOptions opt;
        opt.num_vls = k;
        const auto old = route_nue(net, net.terminals(), opt);
        Rng rng(seed);
        ASSERT_EQ(inject_link_failures(net, 3, rng), 3u);
        if (seed == 2) {
          ASSERT_EQ(inject_switch_failures(net, 1, rng), 1u);
        }
        for (const EscapeRootVerdict& v : escape_root_verdicts(net, old)) {
          EXPECT_EQ(v.screened, v.fitted)
              << spec << " k=" << k << " seed=" << seed << " layer "
              << v.layer << " root " << v.root;
          ++(v.fitted ? fits : misfits);
        }
      }
    }
  }
  // Both verdicts occur, so neither side can pass by answering one way.
  EXPECT_GT(fits, 0u);
  EXPECT_GT(misfits, 0u);
}

}  // namespace
}  // namespace nue
