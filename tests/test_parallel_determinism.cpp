// Parallel determinism: every engine must produce bit-identical results at
// any thread count. Nue draws all randomness in a sequential prologue and
// routes its independent layers concurrently; the baselines keep their
// balanced tree sweep serial and parallelize the column-wise work around
// it; Brandes reduces per-source vectors in
// source order. None of it may leak scheduling into the output
// (docs/PARALLELISM.md).
#include <gtest/gtest.h>

#include <exception>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "graph/algorithms.hpp"
#include "nue/nue_routing.hpp"
#include "routing/dfsssp.hpp"
#include "routing/dump.hpp"
#include "routing/ib_tables.hpp"
#include "routing/lash.hpp"
#include "routing/torus_qos.hpp"
#include "routing/validate.hpp"
#include "test_helpers.hpp"
#include "topology/faults.hpp"
#include "topology/generate.hpp"
#include "topology/torus.hpp"
#include "topology/trees.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace nue {
namespace {

constexpr std::uint32_t kThreadCounts[] = {1, 2, 8};

std::string tables_of(const Network& net, const RoutingResult& rr) {
  std::ostringstream os;
  write_forwarding_tables(os, net, rr);
  return os.str();
}

Network torus_4x4() {
  TorusSpec spec{{4, 4}, 2, 1};
  return make_torus(spec);
}

Network fat_tree_3level() {
  FatTreeSpec spec;
  spec.k = 2;
  spec.n = 3;
  spec.terminals_per_leaf = 2;
  return make_kary_ntree(spec);
}

void expect_stats_eq(const NueStats& a, const NueStats& b) {
  EXPECT_EQ(a.fallbacks, b.fallbacks);
  EXPECT_EQ(a.islands_resolved, b.islands_resolved);
  EXPECT_EQ(a.islands_unresolved, b.islands_unresolved);
  EXPECT_EQ(a.backtrack_option1, b.backtrack_option1);
  EXPECT_EQ(a.backtrack_option2, b.backtrack_option2);
  EXPECT_EQ(a.shortcuts_taken, b.shortcuts_taken);
  EXPECT_EQ(a.cycle_searches, b.cycle_searches);
  EXPECT_EQ(a.cycle_search_steps, b.cycle_search_steps);
  EXPECT_EQ(a.fast_accepts, b.fast_accepts);
  EXPECT_EQ(a.roots, b.roots);
}

void check_nue(const Network& net, std::uint32_t num_vls) {
  NueOptions opt;
  opt.num_vls = num_vls;
  opt.num_threads = 1;
  NueStats base_stats;
  const auto base = route_nue(net, net.terminals(), opt, &base_stats);
  ASSERT_TRUE(validate_routing(net, base).ok());
  const std::string base_tables = tables_of(net, base);
  for (std::uint32_t t : kThreadCounts) {
    opt.num_threads = t;
    NueStats st;
    const auto rr = route_nue(net, net.terminals(), opt, &st);
    EXPECT_EQ(tables_of(net, rr), base_tables) << "threads=" << t;
    expect_stats_eq(st, base_stats);
  }
}

TEST(ParallelDeterminism, NueTorus) { check_nue(torus_4x4(), 4); }

TEST(ParallelDeterminism, NueFatTree) { check_nue(fat_tree_3level(), 4); }

TEST(ParallelDeterminism, RerouteNue) {
  for (const bool fat_tree : {false, true}) {
    Network net = fat_tree ? fat_tree_3level() : torus_4x4();
    NueOptions opt;
    opt.num_vls = 4;
    const auto old = route_nue(net, net.terminals(), opt);
    Rng rng(7);
    ASSERT_GE(inject_link_failures(net, 2, rng), 1u);

    opt.num_threads = 1;
    RerouteStats base_rs;
    NueStats base_stats;
    const auto base = reroute_nue(net, old, opt, &base_rs, &base_stats);
    ASSERT_TRUE(validate_routing(net, base).ok());
    const std::string base_tables = tables_of(net, base);
    for (std::uint32_t t : kThreadCounts) {
      opt.num_threads = t;
      RerouteStats rs;
      NueStats st;
      const auto rr = reroute_nue(net, old, opt, &rs, &st);
      EXPECT_EQ(tables_of(net, rr), base_tables)
          << "threads=" << t << " fat_tree=" << fat_tree;
      expect_stats_eq(st, base_stats);
      EXPECT_EQ(rs.dests_kept, base_rs.dests_kept);
      EXPECT_EQ(rs.dests_rerouted, base_rs.dests_rerouted);
      EXPECT_EQ(rs.dests_dropped, base_rs.dests_dropped);
      EXPECT_EQ(rs.dests_demoted, base_rs.dests_demoted);
    }
  }
}

void check_dfsssp(const Network& net) {
  DfssspOptions opt;
  opt.num_threads = 1;
  DfssspStats base_stats;
  const auto base = route_dfsssp(net, net.terminals(), opt, &base_stats);
  const std::string base_tables = tables_of(net, base);
  for (std::uint32_t t : kThreadCounts) {
    opt.num_threads = t;
    DfssspStats st;
    const auto rr = route_dfsssp(net, net.terminals(), opt, &st);
    EXPECT_EQ(tables_of(net, rr), base_tables)
        << "threads=" << t;
    EXPECT_EQ(st.vls_needed, base_stats.vls_needed);
    EXPECT_EQ(st.paths_moved, base_stats.paths_moved);
  }
}

TEST(ParallelDeterminism, DfssspTorus) { check_dfsssp(torus_4x4()); }

TEST(ParallelDeterminism, DfssspFatTree) { check_dfsssp(fat_tree_3level()); }

TEST(ParallelDeterminism, Lash) {
  for (const bool fat_tree : {false, true}) {
    const Network net = fat_tree ? fat_tree_3level() : torus_4x4();
    LashOptions opt;
    opt.num_threads = 1;
    LashStats base_stats;
    const auto base = route_lash(net, net.terminals(), opt, &base_stats);
    const std::string base_tables = tables_of(net, base);
    for (std::uint32_t t : kThreadCounts) {
      opt.num_threads = t;
      LashStats st;
      const auto rr = route_lash(net, net.terminals(), opt, &st);
      EXPECT_EQ(tables_of(net, rr), base_tables)
          << "threads=" << t << " fat_tree=" << fat_tree;
      EXPECT_EQ(st.vls_needed, base_stats.vls_needed);
    }
  }
}

TEST(ParallelDeterminism, Betweenness) {
  for (const bool fat_tree : {false, true}) {
    const Network net = fat_tree ? fat_tree_3level() : torus_4x4();
    const auto base = betweenness_centrality(net, {}, 1);
    for (std::uint32_t t : kThreadCounts) {
      const auto cb = betweenness_centrality(net, {}, t);
      ASSERT_EQ(cb.size(), base.size());
      for (std::size_t i = 0; i < cb.size(); ++i) {
        // Bit-exact, not approximate: the reduction order is fixed.
        EXPECT_EQ(cb[i], base[i]) << "node " << i << " threads=" << t;
      }
    }
  }
}

// --- per-column checks across the pool ---------------------------------------

/// Everything the per-column checks report about one table, with thrown
/// errors kept as their text.
struct CheckResults {
  ValidationReport routing;
  ValidationReport columns;  // validate_columns over every column, reversed
  std::vector<std::vector<std::uint32_t>> cdg;
  std::optional<IbTables> compiled;
  std::string compile_error;
  std::string verified;  // "1", "0" or the error text
};

CheckResults run_checks(const Network& net, const RoutingResult& rr,
                        std::uint32_t threads) {
  set_default_threads(threads);
  CheckResults r;
  r.routing = validate_routing(net, rr);
  std::vector<NodeId> dests(rr.destinations().rbegin(),
                            rr.destinations().rend());
  r.columns = validate_columns(net, rr, dests);
  r.cdg = induced_cdg(net, rr, net.terminals());
  try {
    r.compiled = compile_ib_tables(net, rr);
  } catch (const std::exception& e) {
    r.compile_error = e.what();
  }
  if (r.compiled) {
    try {
      r.verified = verify_compiled(net, rr, *r.compiled) ? "1" : "0";
    } catch (const std::exception& e) {
      r.verified = e.what();
    }
  }
  set_default_threads(0);
  return r;
}

void expect_same_tables(const IbTables& got, const IbTables& want) {
  EXPECT_EQ(got.lid_of_node, want.lid_of_node);
  EXPECT_EQ(got.node_of_lid, want.node_of_lid);
  EXPECT_EQ(got.port_channel, want.port_channel);
  EXPECT_EQ(got.lft, want.lft);
  EXPECT_EQ(got.sl, want.sl);
  EXPECT_EQ(got.sl2vl, want.sl2vl);
  EXPECT_EQ(got.vl_by_dest, want.vl_by_dest);
  EXPECT_EQ(got.num_vls, want.num_vls);
}

/// Runs the checks at default threads 1, 4 and 8 and expects identical
/// results; returns the serial ones for the caller's own assertions.
CheckResults expect_thread_independent(const std::string& name,
                                       const Network& net,
                                       const RoutingResult& rr) {
  // The tables must span several chunks, or the pool is never used.
  EXPECT_GT(rr.destinations().size(), chunk_grain(net.num_nodes()))
      << name;
  const CheckResults base = run_checks(net, rr, 1);
  for (const std::uint32_t t : {4u, 8u}) {
    SCOPED_TRACE(name + " threads=" + std::to_string(t));
    const CheckResults got = run_checks(net, rr, t);
    test::expect_same_report(got.routing, base.routing);
    test::expect_same_report(got.columns, base.columns);
    EXPECT_EQ(got.cdg, base.cdg);
    EXPECT_EQ(got.compiled.has_value(), base.compiled.has_value());
    if (got.compiled && base.compiled) {
      expect_same_tables(*got.compiled, *base.compiled);
    }
    EXPECT_EQ(got.compile_error, base.compile_error);
    EXPECT_EQ(got.verified, base.verified);
  }
  return base;
}

/// The alive switch-to-switch channel that `rr` uses toward column `di`
/// from the first switch (in node order) that has one.
ChannelId switch_hop(const Network& net, const RoutingResult& rr,
                     std::uint32_t di) {
  for (const NodeId v : net.switches()) {
    const ChannelId c = rr.next(v, di);
    if (c != kInvalidChannel && net.is_switch(net.dst(c))) return c;
  }
  ADD_FAILURE() << "column " << di << " has no switch-to-switch hop";
  return kInvalidChannel;
}

TEST(ParallelDeterminism, ColumnChecks) {
  const GeneratedTopology torus = generate_topology("torus:8x8x4:2");
  NueOptions nue_opt;
  nue_opt.num_vls = 4;
  const RoutingResult torus_nue =
      route_nue(torus.net, torus.net.terminals(), nue_opt);
  const CheckResults clean =
      expect_thread_independent("torus/nue", torus.net, torus_nue);
  EXPECT_TRUE(clean.routing.ok()) << clean.routing.detail;
  EXPECT_EQ(clean.verified, "1");
  expect_thread_independent(
      "torus/torus-qos", torus.net,
      route_torus_qos(torus.net, *torus.torus, torus.net.terminals()));
  {
    const Network net = generate_topology("fattree:8:3").net;
    expect_thread_independent("fattree/nue", net,
                              route_nue(net, net.terminals(), nue_opt));
  }
  {
    const Network net = generate_topology("kautz:3:4:3").net;
    expect_thread_independent("kautz/lash", net,
                              route_lash(net, net.terminals(), {}));
  }

  // Hand-broken copies of the torus table, each broken in later chunks
  // only, so the first failure has to survive the ordered fold.
  const std::size_t grain = chunk_grain(torus.net.num_nodes());
  const auto col = [&](std::size_t chunk) {
    const std::size_t di = chunk * grain + grain / 3;
    EXPECT_LT(di, torus_nue.destinations().size());
    return static_cast<std::uint32_t>(di);
  };
  {
    RoutingResult rr = torus_nue;
    const ChannelId c = switch_hop(torus.net, rr, col(3));
    rr.set_next(torus.net.src(c), col(3), kInvalidChannel);
    rr.set_next(torus.net.src(switch_hop(torus.net, rr, col(5))), col(5),
                kInvalidChannel);
    const CheckResults r = expect_thread_independent("hole", torus.net, rr);
    EXPECT_FALSE(r.routing.connected);
    // The earlier column's failure wins, in the report and in the throw.
    const std::string first = "-> " + std::to_string(rr.destinations()[col(3)]);
    EXPECT_NE(r.routing.detail.find(first), std::string::npos)
        << r.routing.detail;
    EXPECT_NE(r.verified.find("no loop-free route"), std::string::npos)
        << r.verified;
    EXPECT_NE(r.verified.find(first), std::string::npos) << r.verified;
  }
  {
    Network net = torus.net;
    net.remove_link(switch_hop(net, torus_nue, col(4)));
    const CheckResults r = expect_thread_independent("dead", net, torus_nue);
    EXPECT_FALSE(r.routing.live_elements);
    EXPECT_NE(r.routing.detail.find("crosses a dead channel"),
              std::string::npos)
        << r.routing.detail;
    EXPECT_FALSE(r.compile_error.empty());
  }
  {
    RoutingResult rr = torus_nue;
    rr.set_dest_vl(col(2), static_cast<std::uint8_t>(rr.num_vls() + 1));
    rr.set_dest_vl(col(5), static_cast<std::uint8_t>(rr.num_vls() + 2));
    const CheckResults r = expect_thread_independent("bad-vl", torus.net, rr);
    EXPECT_FALSE(r.routing.vl_in_range);
    EXPECT_TRUE(r.routing.connected);
  }
  {
    RoutingResult rr = torus_nue;
    for (std::uint32_t di = 0; di < rr.destinations().size(); ++di) {
      rr.set_dest_vl(di, 0);
    }
    const CheckResults r = expect_thread_independent("cyclic", torus.net, rr);
    EXPECT_FALSE(r.routing.deadlock_free);
    EXPECT_EQ(r.routing.detail, "induced CDG has a cycle");
  }
  {
    // A hole in chunk 2, then a removed destination in chunk 5: the
    // removed destination overrides the earlier detail.
    Network net = torus.net;
    RoutingResult rr = torus_nue;
    rr.set_next(net.src(switch_hop(net, rr, col(2))), col(2),
                kInvalidChannel);
    const NodeId removed = rr.destinations()[col(5)];
    net.remove_node(removed);
    const CheckResults r = expect_thread_independent("removed", net, rr);
    EXPECT_EQ(r.routing.detail,
              "table routes to removed destination " + std::to_string(removed));
    EXPECT_FALSE(r.routing.connected);
    EXPECT_FALSE(r.routing.live_elements);
  }
}

TEST(ParallelDeterminism, NestedParallelForCompletes) {
  // Regression: a parallel region opened from inside a pool worker used to
  // wait for its queued helper tasks to *run*; with every worker blocked in
  // such a wait the helpers could never be scheduled and the process hung
  // with zero CPU (found by `route_fuzz --threads 8`, whose batch loop runs
  // oracle BFS sweeps on pool workers). Nested regions must degrade to the
  // calling thread plus whatever workers happen to be free.
  constexpr std::size_t kOuter = 64;
  constexpr std::size_t kInner = 128;
  std::vector<std::uint64_t> sums(kOuter, 0);
  parallel_for(8, kOuter, [&](std::size_t i) {
    std::vector<std::uint32_t> hits(kInner, 0);
    parallel_for(8, kInner, [&](std::size_t j) { ++hits[j]; });
    std::uint64_t s = 0;
    for (std::size_t j = 0; j < kInner; ++j) {
      s += hits[j] * (j + 1);  // every inner index exactly once
    }
    sums[i] = s;
  });
  for (std::size_t i = 0; i < kOuter; ++i) {
    EXPECT_EQ(sums[i], kInner * (kInner + 1) / 2) << i;
  }
}

}  // namespace
}  // namespace nue
