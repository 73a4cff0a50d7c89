// Golden routing-table hashes: the committed tables of seven topology
// generators x three engines, bit-for-bit, at every supported thread
// count. These pins hold the strongest promise the engines make — the
// exact forwarding tables, not just their properties — so any refactor
// of the graph core, the CDG machinery or the scratch allocation that
// changes a single next-hop or VL assignment fails here immediately.
// The hashes were captured before the SoA/arena/bitset-omega scaling
// rework (docs/SCALING.md) and must never drift silently: a legitimate
// behavior change (e.g. a new tie-break) must re-capture them in the
// same commit and say why.
//
// A second table pins the Fig.-11-style faulted torus at 8 VLs — the
// largest config the suite routes — for Nue and Up*/Down*. (DFSSSP is
// excluded there: its VL demand exceeds the 8-lane cap on that fabric,
// the paper's expected inapplicability.)
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/network.hpp"
#include "nue/nue_routing.hpp"
#include "resilience/resilience.hpp"
#include "routing/dfsssp.hpp"
#include "routing/lash.hpp"
#include "routing/routing.hpp"
#include "routing/updown.hpp"
#include "topology/faults.hpp"
#include "topology/generate.hpp"
#include "topology/misc_topologies.hpp"
#include "topology/torus.hpp"
#include "topology/trees.hpp"
#include "util/rng.hpp"

namespace nue {
namespace {

/// FNV-1a over the full table contents: VL count and mode, then for every
/// destination its id and each node's next-hop channel and VL assignment.
std::uint64_t table_hash(const RoutingResult& rr) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  mix(rr.num_vls());
  mix(static_cast<std::uint64_t>(rr.vl_mode()));
  for (std::size_t i = 0; i < rr.destinations().size(); ++i) {
    const NodeId d = rr.destinations()[i];
    mix(d);
    for (NodeId v = 0; v < rr.num_nodes(); ++v) {
      mix(rr.next(v, static_cast<std::uint32_t>(i)));
      mix(rr.vl(v, v, static_cast<std::uint32_t>(i)));
    }
  }
  return h;
}

Network make_fabric(const std::string& name) {
  if (name == "torus") {
    TorusSpec t{{4, 4, 3}, 2, 1};
    return make_torus(t);
  }
  if (name == "torus-faulted") {
    TorusSpec t{{4, 4, 3}, 2, 1};
    Network net = make_torus(t);
    Rng rng(7);
    inject_link_failures(net, 6, rng);
    return net;
  }
  if (name == "fattree") {
    FatTreeSpec f{3, 3, 3, 0};
    return make_kary_ntree(f);
  }
  if (name == "kautz") {
    KautzSpec k{3, 3, 2, 1};
    return make_kautz(k);
  }
  if (name == "dragonfly") {
    DragonflySpec d{4, 2, 2, 8};
    return make_dragonfly(d);
  }
  if (name == "hyperx") {
    HyperXSpec h{{3, 3}, 2, 1};
    return make_hyperx(h);
  }
  if (name == "hypercube") {
    return make_hypercube(4, 2);
  }
  if (name == "random") {
    RandomSpec r{20, 50, 2};
    Rng rng(1);
    return make_random(r, rng);
  }
  NUE_CHECK_MSG(false, "unknown fabric " << name);
  return Network{};
}

RoutingResult route(const Network& net, const std::string& engine,
                    std::uint32_t vls, std::uint32_t threads) {
  const auto dests = net.terminals();
  if (engine == "nue") {
    NueOptions opt;
    opt.num_vls = vls;
    opt.num_threads = threads;
    return route_nue(net, dests, opt);
  }
  if (engine == "dfsssp") {
    DfssspOptions opt;
    opt.max_vls = 8;
    opt.num_threads = threads;
    return route_dfsssp(net, dests, opt);
  }
  return route_updown(net, dests);
}

struct Golden {
  const char* fabric;
  const char* engine;
  std::uint64_t hash;
};

/// The case's name: "torus_nue", "torus_faulted_dfsssp", ... When gtest
/// lists a case it prints this after the case's index, and
/// gtest_discover_tests turns ".../<index>  # GetParam() = <name>" into the
/// ctest name ".../<name>", so the ctest names depend on nothing but the
/// table below.
void PrintTo(const Golden& g, std::ostream* os) {
  std::string name = std::string(g.fabric) + "_" + g.engine;
  std::replace(name.begin(), name.end(), '-', '_');
  *os << name;
}

// Captured with Nue at 4 VLs, DFSSSP capped at 8 VLs, Up*/Down* default;
// destinations = all terminals. Verified identical at 1/4/8 threads.
constexpr Golden kGolden[] = {
    {"torus", "nue", 0x1173d2034af4bcbcull},
    {"torus", "dfsssp", 0xae88cb403303bd38ull},
    {"torus", "updown", 0x29c975b03ae0fcb1ull},
    {"torus-faulted", "nue", 0xfcde22aa52ce15ebull},
    {"torus-faulted", "dfsssp", 0x8108b3ec6dbc6929ull},
    {"torus-faulted", "updown", 0x3b0182c4ba9cf511ull},
    {"fattree", "nue", 0x8b3b2e1949698f5eull},
    {"fattree", "dfsssp", 0x0046a7d6a27c4aa9ull},
    {"fattree", "updown", 0x21f3e16902559611ull},
    {"kautz", "nue", 0x1b0f569a9fe77c73ull},
    {"kautz", "dfsssp", 0xfbe5492d9c20c293ull},
    {"kautz", "updown", 0x0d9e44e331d2b4dbull},
    {"dragonfly", "nue", 0x817b9c4e0ce46e9dull},
    {"dragonfly", "dfsssp", 0xb675653ec1e1bae7ull},
    {"dragonfly", "updown", 0xfaba504054f81e05ull},
    {"hyperx", "nue", 0x7f0dbc925a787cbdull},
    {"hyperx", "dfsssp", 0xf42ef0b66148f4e1ull},
    {"hyperx", "updown", 0x3ae272cb71c6f1a2ull},
    {"hypercube", "nue", 0x712b56041dd75b01ull},
    {"hypercube", "dfsssp", 0xec46cd3253f03dccull},
    {"hypercube", "updown", 0x64f7cd9164e042b7ull},
    {"random", "nue", 0xf1ab59c889e5f80dull},
    {"random", "dfsssp", 0x8dfae9ff0a8ff26cull},
    {"random", "updown", 0x517f3a0a35ff6ef8ull},
};

class GoldenTables : public ::testing::TestWithParam<Golden> {};

TEST_P(GoldenTables, BitIdenticalAtEveryThreadCount) {
  const Golden g = GetParam();
  for (std::uint32_t threads : {1u, 4u, 8u}) {
    const Network net = make_fabric(g.fabric);
    const auto h = table_hash(route(net, g.engine, 4, threads));
    EXPECT_EQ(h, g.hash) << g.fabric << "/" << g.engine
                         << " threads=" << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(AllFabrics, GoldenTables,
                         ::testing::ValuesIn(kGolden));

// Fig.-11-style scale config: 6x6x6 torus, 4 terminals per switch, 7
// failed links, Nue at the full 8-VL budget.
Network fig11_fabric() {
  TorusSpec t{{6, 6, 6}, 4, 1};
  Network net = make_torus(t);
  Rng rng(11);
  inject_link_failures(net, 7, rng);
  return net;
}

TEST(GoldenTablesFig11, NueEightVls) {
  for (std::uint32_t threads : {1u, 4u, 8u}) {
    const Network net = fig11_fabric();
    NueOptions opt;
    opt.num_vls = 8;
    opt.num_threads = threads;
    const auto h = table_hash(route_nue(net, net.terminals(), opt));
    EXPECT_EQ(h, 0xf5f17a7dec53bfeaull) << "threads=" << threads;
  }
}

TEST(GoldenTablesFig11, UpDown) {
  const Network net = fig11_fabric();
  const auto h = table_hash(route_updown(net, net.terminals()));
  EXPECT_EQ(h, 0xf3d9c481b2647e2eull);
}

// The repair path, pinned the same way: Nue's incremental reroute, the
// resilience manager's ladder (the splice rung, wave blends and lane
// shifts all copy lanes), and a per-source lane table.

TEST(GoldenRepair, RerouteNueAfterExtraFaults) {
  for (std::uint32_t threads : {1u, 4u}) {
    Network net = make_fabric("torus-faulted");
    NueOptions opt;
    opt.num_vls = 4;
    opt.num_threads = threads;
    const auto old = route_nue(net, net.terminals(), opt);
    Rng rng(23);
    ASSERT_EQ(inject_link_failures(net, 3, rng), 3u);
    RerouteStats rs;
    const auto h = table_hash(reroute_nue(net, old, opt, &rs));
    EXPECT_EQ(h, 0xdb28b98334d648f7ull) << "threads=" << threads;
    // Most broken columns are repaired in place; a partial repair that
    // silently became a full recompute would move the patched count.
    EXPECT_EQ(rs.dests_rerouted, 68u) << "threads=" << threads;
    EXPECT_EQ(rs.dests_patched, 67u) << "threads=" << threads;
    EXPECT_GT(rs.dests_kept, 0u);
  }
}

struct ReplayPin {
  std::uint64_t final_hash = 0;
  std::uint64_t chain_hash = 0;  // every committed epoch, waves included
  std::string steps;             // each logged record's committed_step
};

/// Replay a fixed 8-event trace on a golden fabric through the manager.
ReplayPin replay_pin(const char* fabric, std::uint64_t seed,
                     resilience::RepairPolicy policy) {
  const Network net = make_fabric(fabric);
  const FaultTrace trace = draw_fault_trace(net, fabric, seed, 8, 0.3);
  resilience::ResilienceManager mgr(net, policy);
  ReplayPin pin;
  mgr.set_commit_hook([&pin](const Network&, const RoutingResult*,
                             const RoutingResult& rr,
                             const TransitionRecord&) {
    pin.chain_hash = pin.chain_hash * 1099511628211ull ^ table_hash(rr);
  });
  mgr.replay(trace);
  for (const TransitionRecord& rec : mgr.log().records()) {
    pin.steps += (pin.steps.empty() ? "" : ",") + rec.committed_step;
  }
  pin.final_hash = table_hash(*mgr.table());
  return pin;
}

// The splice rung commits, and a wave blend and a lane-shift chain run.
TEST(GoldenRepair, ManagerReplayUpDown) {
  resilience::RepairPolicy policy;
  policy.engine = resilience::Engine::kUpDown;
  const ReplayPin pin = replay_pin("fattree", 2, policy);
  EXPECT_EQ(pin.final_hash, 0x2ba1c21273695753ull);
  EXPECT_EQ(pin.chain_hash, 0xeeb1b9389b2285aaull);
  EXPECT_EQ(pin.steps,
            "full-recompute,incremental,incremental,wave,incremental,noop,wave,"
            "incremental,noop,noop,incremental");
}

// Per-source lanes through wave blends and a lane-shift chain.
TEST(GoldenRepair, ManagerReplayDfsssp) {
  resilience::RepairPolicy policy;
  policy.engine = resilience::Engine::kDfsssp;
  policy.vls = 8;
  policy.max_vls = 16;
  const ReplayPin pin = replay_pin("torus", 1, policy);
  EXPECT_EQ(pin.final_hash, 0xff800127b70fa43cull);
  EXPECT_EQ(pin.chain_hash, 0x6f168d9144db5cc2ull);
  EXPECT_EQ(pin.steps,
            "full-recompute,wave,full-recompute,noop,wave,full-recompute,noop,"
            "wave,full-recompute,wave,full-recompute,noop,noop");
}

// A 256-event storm on torus:4x4x4:1 through Nue's repair ladder (2
// VLs, up to 4) — the replay behind the repair-latency measurements in
// EXPERIMENTS.md. Each record is pinned by its committed step, wave
// position, gate verdict, column counts and ladder verdicts (timings
// stripped); the incremental rung's verdict carries the kept, rerouted,
// patched, demoted and stale-skip counts, summed below as well.
TEST(GoldenRepair, StormReplay) {
  const Network net = generate_topology("torus:4x4x4:1").net;
  const FaultTrace trace = draw_fault_trace(net, "torus:4x4x4:1", 1, 256);
  resilience::RepairPolicy policy;
  policy.engine = resilience::Engine::kNue;
  policy.vls = 2;
  policy.max_vls = 4;
  policy.seed = 1;
  policy.num_threads = 2;
  resilience::ResilienceManager mgr(net, policy);
  std::uint64_t chain_hash = 0;
  mgr.set_commit_hook([&chain_hash](const Network&, const RoutingResult*,
                                    const RoutingResult& rr,
                                    const TransitionRecord&) {
    chain_hash = chain_hash * 1099511628211ull ^ table_hash(rr);
  });
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](const std::string& line) {
    for (unsigned char ch : line) {
      h ^= ch;
      h *= 1099511628211ull;
    }
  };
  std::size_t kept = 0, rerouted = 0, patched = 0, demoted = 0, skipped = 0;
  for (const TransitionRecord& r : mgr.replay(trace)) {
    std::ostringstream os;
    os << r.epoch << " " << r.event << " " << r.committed_step << " "
       << r.affected_dests << "/" << r.total_dests << " wave "
       << r.wave_index << "/" << r.wave_count << " hitless " << r.hitless
       << " drained " << r.drained;
    for (const std::string& v : r.verdicts) {
      os << " | " << v.substr(0, v.rfind(" ["));
      std::size_t k = 0, rr = 0, p = 0, d = 0, sk = 0;
      if (std::sscanf(v.c_str(),
                      "incremental: ok (kept %zu, rerouted %zu of which "
                      "patched %zu, demoted %zu, stale marks skipped %zu)",
                      &k, &rr, &p, &d, &sk) == 5) {
        kept += k;
        rerouted += rr;
        patched += p;
        demoted += d;
        skipped += sk;
      }
    }
    mix(os.str() + "\n");
  }
  const auto sum = mgr.log().summarize();
  EXPECT_EQ(sum.transitions, 272u);
  EXPECT_EQ(sum.hitless, 271u);
  EXPECT_EQ(sum.drained, 0u);
  EXPECT_EQ(sum.noops, 84u);
  EXPECT_EQ(sum.waved, 93u);
  EXPECT_EQ(kept, 4471u);
  EXPECT_EQ(rerouted, 4581u);
  EXPECT_EQ(patched, 3038u);
  EXPECT_EQ(demoted, 807u);
  EXPECT_EQ(skipped, 5180u);
  EXPECT_EQ(h, 0x579e4704dc8fe4ccull);
  EXPECT_EQ(chain_hash, 0x7ef7762d77bf46d1ull);
  EXPECT_EQ(table_hash(*mgr.table()), 0x3d49209fe4c3231aull);
}

TEST(GoldenRepair, LashPerSourceLanes) {
  const Network net = make_fabric("torus");
  const auto rr = route_lash(net, net.terminals());
  ASSERT_EQ(rr.vl_mode(), VlMode::kPerSource);
  EXPECT_EQ(table_hash(rr), 0x487def4f515aa79aull);
}

}  // namespace
}  // namespace nue
