#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "graph/algorithms.hpp"
#include "topology/faults.hpp"
#include "topology/generate.hpp"
#include "topology/misc_topologies.hpp"
#include "topology/torus.hpp"
#include "topology/trees.hpp"
#include "util/rng.hpp"

namespace nue {
namespace {

/// Switch-to-switch duplex link count (what Table 1 reports as "Channels").
std::size_t switch_links(const Network& net) {
  std::size_t n = 0;
  for (ChannelId c = 0; c < net.num_channels(); c += 2) {
    if (net.channel_alive(c) && net.is_switch(net.src(c)) &&
        net.is_switch(net.dst(c))) {
      ++n;
    }
  }
  return n;
}

TEST(Torus, Fig1Configuration) {
  // 4x4x3 torus, 4 terminals per switch (Fig. 1's network, pre-failure).
  TorusSpec spec{{4, 4, 3}, 4, 1};
  Network net = make_torus(spec);
  EXPECT_EQ(net.num_alive_switches(), 48u);
  EXPECT_EQ(net.num_alive_terminals(), 192u);
  EXPECT_TRUE(is_connected(net));
  // 3D torus: 3 links per switch-dim, dims {4,4,3} all >= 3 -> 3*48 links.
  EXPECT_EQ(switch_links(net), 3u * 48u);
}

TEST(Torus, Table1TorusWithRedundancy) {
  TorusSpec spec{{6, 5, 5}, 7, 4};
  Network net = make_torus(spec);
  EXPECT_EQ(net.num_alive_switches(), 150u);
  EXPECT_EQ(switch_links(net), 1800u);  // Table 1
  EXPECT_TRUE(is_connected(net));
}

TEST(Torus, DimensionOfSizeTwoGetsSingleLink) {
  TorusSpec spec{{2, 2, 2}, 1, 1};
  Network net = make_torus(spec);
  EXPECT_EQ(net.num_alive_switches(), 8u);
  EXPECT_EQ(switch_links(net), 12u);  // cube, no doubled wrap links
  EXPECT_TRUE(is_connected(net));
}

TEST(Torus, CoordinateRoundTrip) {
  TorusSpec spec{{4, 4, 3}, 0, 1};
  make_torus(spec);
  for (NodeId sw = 0; sw < spec.num_switches(); ++sw) {
    EXPECT_EQ(spec.switch_at(spec.coord_of(sw)), sw);
  }
}

TEST(Torus, NeighborsDifferInOneCoordinate) {
  TorusSpec spec{{3, 3, 3}, 0, 1};
  Network net = make_torus(spec);
  for (NodeId sw = 0; sw < spec.num_switches(); ++sw) {
    const auto c = spec.coord_of(sw);
    for (ChannelId ch : net.out(sw)) {
      const auto d = spec.coord_of(net.dst(ch));
      int diffs = 0;
      for (std::size_t i = 0; i < 3; ++i) diffs += c[i] != d[i];
      EXPECT_EQ(diffs, 1);
    }
  }
}

TEST(FatTree, Tenary3TreeMatchesTable1) {
  FatTreeSpec spec{10, 3, 11, 0};
  Network net = make_kary_ntree(spec);
  EXPECT_EQ(net.num_alive_switches(), 300u);   // 3 * 10^2
  EXPECT_EQ(net.num_alive_terminals(), 1100u);  // Table 1
  EXPECT_EQ(switch_links(net), 2000u);          // Table 1
  EXPECT_TRUE(is_connected(net));
}

TEST(FatTree, SmallTreeStructure) {
  FatTreeSpec spec{2, 3, 2, 0};
  Network net = make_kary_ntree(spec);
  EXPECT_EQ(net.num_alive_switches(), 12u);  // 3 levels * 4
  EXPECT_TRUE(is_connected(net));
  // Leaf switches carry terminals; top stage none.
  for (NodeId t : net.terminals()) {
    EXPECT_EQ(spec.level_of(net.terminal_switch(t)), spec.n - 1);
  }
}

TEST(Kautz, MatchesTable1Counts) {
  KautzSpec spec;  // d=5, k=3, 7 terminals, r=2
  Network net = make_kautz(spec);
  EXPECT_EQ(net.num_alive_switches(), 150u);
  EXPECT_EQ(net.num_alive_terminals(), 1050u);
  EXPECT_TRUE(is_connected(net));
  // ~750 arcs deduplicated to undirected links, times redundancy 2.
  EXPECT_NEAR(static_cast<double>(switch_links(net)), 1500.0, 30.0);
}

TEST(Dragonfly, MatchesTable1Counts) {
  DragonflySpec spec;  // a=12, p=6, h=6, g=15
  Network net = make_dragonfly(spec);
  EXPECT_EQ(net.num_alive_switches(), 180u);
  EXPECT_EQ(net.num_alive_terminals(), 1080u);
  EXPECT_EQ(switch_links(net), 1515u);  // 990 local + 525 global
  EXPECT_TRUE(is_connected(net));
}

TEST(Dragonfly, GroupsAreFullyConnectedInternally) {
  DragonflySpec spec{4, 1, 2, 3};
  Network net = make_dragonfly(spec);
  for (std::uint32_t g = 0; g < spec.g; ++g) {
    for (std::uint32_t i = 0; i < spec.a; ++i) {
      for (std::uint32_t j = i + 1; j < spec.a; ++j) {
        const NodeId a = g * spec.a + i, b = g * spec.a + j;
        bool linked = false;
        for (ChannelId c : net.out(a)) linked |= net.dst(c) == b;
        EXPECT_TRUE(linked) << "group " << g;
      }
    }
  }
}

TEST(Cascade, MatchesTable1Counts) {
  CascadeSpec spec;
  Network net = make_cascade(spec);
  EXPECT_EQ(net.num_alive_switches(), 192u);
  EXPECT_EQ(net.num_alive_terminals(), 1536u);
  EXPECT_EQ(switch_links(net), 3072u);  // 2*1440 intra + 192 global
  EXPECT_TRUE(is_connected(net));
}

TEST(Tsubame, ApproximatesTable1Counts) {
  ClosSpec spec;
  Network net = make_tsubame25_like(spec);
  EXPECT_EQ(net.num_alive_switches(), 243u);
  EXPECT_EQ(net.num_alive_terminals(), 1407u);
  EXPECT_NEAR(static_cast<double>(switch_links(net)), 3384.0, 40.0);
  EXPECT_TRUE(is_connected(net));
}

TEST(RandomTopology, MatchesSection51Configuration) {
  Rng rng(17);
  RandomSpec spec;  // 125 switches, 1000 links, 8 terminals
  Network net = make_random(spec, rng);
  EXPECT_EQ(net.num_alive_switches(), 125u);
  EXPECT_EQ(net.num_alive_terminals(), 1000u);
  EXPECT_EQ(switch_links(net), 1000u);
  EXPECT_TRUE(is_connected(net));
}

TEST(RandomTopology, SeedDeterminism) {
  RandomSpec spec{20, 60, 2};
  Rng r1(5), r2(5);
  Network a = make_random(spec, r1);
  Network b = make_random(spec, r2);
  ASSERT_EQ(a.num_channels(), b.num_channels());
  for (ChannelId c = 0; c < a.num_channels(); ++c) {
    EXPECT_EQ(a.src(c), b.src(c));
    EXPECT_EQ(a.dst(c), b.dst(c));
  }
}

TEST(RandomTopology, AlwaysConnectedAcrossSeeds) {
  RandomSpec spec{30, 45, 1};
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    Rng rng(seed);
    Network net = make_random(spec, rng);
    EXPECT_TRUE(is_connected(net)) << "seed " << seed;
  }
}

TEST(Faults, LinkFailuresKeepConnectivity) {
  TorusSpec spec{{4, 4, 3}, 2, 1};
  Network net = make_torus(spec);
  Rng rng(3);
  const std::size_t removed = inject_link_failures(net, 10, rng);
  EXPECT_EQ(removed, 10u);
  EXPECT_TRUE(is_connected(net));
}

TEST(Faults, LinkFailuresNeverTouchTerminalLinks) {
  TorusSpec spec{{3, 3, 3}, 2, 1};
  Network net = make_torus(spec);
  const std::size_t terminals = net.num_alive_terminals();
  Rng rng(4);
  inject_link_failures(net, 15, rng);
  EXPECT_EQ(net.num_alive_terminals(), terminals);
  for (NodeId t : net.terminals()) EXPECT_EQ(net.degree(t), 1u);
}

TEST(Faults, SwitchFailureRemovesOrphanedTerminals) {
  TorusSpec spec{{4, 4, 3}, 4, 1};
  Network net = make_torus(spec);
  Rng rng(7);
  const std::size_t removed = inject_switch_failures(net, 1, rng);
  EXPECT_EQ(removed, 1u);
  // Fig. 1's network: 47 switches and 188 terminals remain.
  EXPECT_EQ(net.num_alive_switches(), 47u);
  EXPECT_EQ(net.num_alive_terminals(), 188u);
  EXPECT_TRUE(is_connected(net));
}

TEST(Faults, RefusesToDisconnect) {
  // A line: every interior link is a bridge, so no removal is safe.
  Network net;
  for (int i = 0; i < 4; ++i) net.add_switch();
  for (int i = 0; i < 3; ++i) net.add_link(i, i + 1);
  Rng rng(1);
  EXPECT_EQ(inject_link_failures(net, 2, rng), 0u);
  EXPECT_TRUE(is_connected(net));
}

// The bringup benchmark's fault sets (torus:8x8x8:4, 15 link faults, one
// generator per set seeded from the run seed), pinned by the links they
// remove and by where each injector's draws stop.
TEST(Faults, SeededFaultSetsKeepTheirDraws) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  for (std::uint64_t seed : {1u, 2u}) {
    Rng seeds(seed);
    for (int set = 0; set < 4; ++set) {
      Network net = generate_topology("torus:8x8x8:4").net;
      Rng rng(seeds.next_u64());
      ASSERT_EQ(inject_link_failures(net, 15, rng), 15u);
      for (ChannelId c = 0; c < net.num_channels(); c += 2) {
        if (!net.channel_alive(c)) mix(c);
      }
      mix(rng.next_u64());
    }
  }
  EXPECT_EQ(h, 0xa65f9975ba4937b3ull);
}

/// Number of draws `rng` took since it was seeded with `seed`, if fewer
/// than `limit`.
std::size_t draws_since_seed(Rng& rng, std::uint64_t seed, std::size_t limit) {
  const std::uint64_t next = rng.next_u64();
  Rng ref(seed);
  for (std::size_t n = 0; n < limit; ++n) {
    if (ref.next_u64() == next) return n;
  }
  return limit;
}

// Once nothing removable is left, the injectors return at once instead
// of drawing out their 50 x (count + 1) attempt budget.
TEST(Faults, StopWhenNothingIsLeftToFail) {
  {
    Network net = generate_topology("torus:3x3:1").net;
    Rng rng(5);
    EXPECT_EQ(inject_link_failures(net, 1000000, rng), 10u);
    EXPECT_EQ(switch_links(net), 8u);  // a spanning tree of 9 switches
    EXPECT_TRUE(is_connected(net));
    EXPECT_LT(draws_since_seed(rng, 5, 100000), 100000u);
  }
  {
    Network net = generate_topology("torus:3x3:1").net;
    Rng rng(5);
    EXPECT_EQ(inject_switch_failures(net, 1000000, rng), 8u);
    EXPECT_EQ(net.num_alive_switches(), 1u);
    EXPECT_TRUE(is_connected(net));
    EXPECT_LT(draws_since_seed(rng, 5, 100000), 100000u);
  }
}

}  // namespace
}  // namespace nue

namespace nue {
namespace hyperx_tests {

TEST(HyperX, StructureAndDegrees) {
  HyperXSpec spec;
  spec.shape = {3, 4};
  spec.terminals_per_switch = 1;
  Network net = make_hyperx(spec);
  EXPECT_EQ(net.num_alive_switches(), 12u);
  EXPECT_TRUE(is_connected(net));
  // Each switch: (3-1) + (4-1) line neighbors + 1 terminal.
  for (NodeId sw : net.switches()) {
    EXPECT_EQ(net.degree(sw), 2u + 3u + 1u);
  }
}

TEST(HyperX, DiameterEqualsDimensionCount) {
  HyperXSpec spec;
  spec.shape = {4, 4, 4};
  spec.terminals_per_switch = 0;
  Network net = make_hyperx(spec);
  // One hop fixes a whole coordinate: diameter = #dims = 3.
  const auto d = bfs_distances(net, 0);
  std::uint32_t maxd = 0;
  for (NodeId v = 0; v < net.num_nodes(); ++v) maxd = std::max(maxd, d[v]);
  EXPECT_EQ(maxd, 3u);
}

TEST(HyperX, HypercubeIsTwoAryHyperX) {
  Network net = make_hypercube(4, 1);  // 4-cube
  EXPECT_EQ(net.num_alive_switches(), 16u);
  for (NodeId sw : net.switches()) {
    EXPECT_EQ(net.degree(sw), 4u + 1u);  // 4 cube links + terminal
  }
  EXPECT_TRUE(is_connected(net));
}

TEST(HyperX, RedundancyMultipliesLinks) {
  HyperXSpec one;
  one.shape = {3, 3};
  one.terminals_per_switch = 0;
  HyperXSpec two = one;
  two.redundancy = 2;
  EXPECT_EQ(make_hyperx(two).num_channels(), 2 * make_hyperx(one).num_channels());
}

}  // namespace hyperx_tests
}  // namespace nue

namespace nue {
namespace {

// Every spec the repo's tests, benches, scripts and fuzz corpus use,
// with the fabric it has always meant: strict parsing must not move any.
TEST(GenerateSpec, BuildsTheSameFabricForEverySpecInUse) {
  struct Expect {
    const char* spec;
    std::size_t nodes, channels, terminals;
  };
  const Expect table[] = {
      {"torus:3x3:1", 18, 54, 9},
      {"torus:3x3:2", 27, 72, 18},
      {"torus:2x2:1", 8, 16, 4},
      {"torus:4x3:1", 24, 72, 12},
      {"torus:4x4:1", 32, 96, 16},
      {"torus:4x4:2", 48, 128, 32},
      {"torus:3x3x3:1", 54, 216, 27},
      {"torus:3x3x3:2", 81, 270, 54},
      {"torus:4x4x3:2", 144, 480, 96},
      {"torus:4x4x3:4", 240, 672, 192},
      {"torus:4x4x4:1", 128, 512, 64},
      {"torus:4x4x4:2", 192, 640, 128},
      {"torus:5x5x5:1", 250, 1000, 125},
      {"torus:5x5x5:4", 625, 1750, 500},
      {"torus:6x5x5:4", 750, 2100, 600},
      {"torus:6x6x6:2", 648, 2160, 432},
      {"torus:8x8x4:2", 768, 2560, 512},
      {"torus:8x8x8:4", 2560, 7168, 2048},
      {"random:5:4:1:7", 10, 18, 5},
      {"random:10:20:2:5", 30, 80, 20},
      {"random:14:30:1:9", 28, 88, 14},
      {"random:20:50:2", 60, 180, 40},
      {"random:125:500:8:1", 1125, 3000, 1000},
      {"random:125:1000:8", 1125, 4000, 1000},
      {"fattree:2:2:1", 6, 12, 2},
      {"fattree:2:3", 20, 48, 8},
      {"fattree:2:3:2", 20, 48, 8},
      {"fattree:3:3:3", 54, 162, 27},
      {"fattree:4:2", 24, 64, 16},
      {"fattree:4:3", 112, 384, 64},
      {"fattree:8:3", 704, 3072, 512},
      {"kautz:2:2:2:1", 18, 42, 12},
      {"kautz:3:2:1", 24, 144, 12},
      {"kautz:3:4:3", 432, 1920, 324},
      {"dragonfly:2:2:1:3", 18, 36, 12},
      {"dragonfly:4:1:2:4", 32, 104, 16},
      {"dragonfly:4:2:2:9", 108, 324, 72},
      {"hyperx:3x3:1", 18, 54, 9},
      {"hyperx:3x3:2", 27, 72, 18},
      {"hyperx:2x2x2:2", 24, 56, 16},
      {"hypercube:3:1", 16, 40, 8},
      {"hypercube:4:1", 32, 96, 16},
      {"clos:6,3:2:12", 21, 48, 12},
      {"cascade", 1728, 9216, 1536},
      {"tsubame", 1650, 9546, 1407},
  };
  for (const Expect& e : table) {
    const GeneratedTopology g = generate_topology(e.spec);
    EXPECT_EQ(g.net.num_nodes(), e.nodes) << e.spec;
    EXPECT_EQ(g.net.num_channels(), e.channels) << e.spec;
    EXPECT_EQ(g.net.num_alive_terminals(), e.terminals) << e.spec;
  }
}

// Each malformed spec throws, and the message names the offending field
// and the spec. torus:3x3:-1 and torus:3x3:4294967296 used to wrap into
// ~4e9 terminals per switch instead.
TEST(GenerateSpec, RejectsMalformedSpecsNamingTheField) {
  const std::pair<const char*, const char*> cases[] = {
      {"torus:3x3:2abc", "terminals '2abc'"},
      {"torus:3xq:1", "dimension 'q'"},
      {"torus:3x3:", "terminals ''"},
      {"torus:3x3:2:1:9", "extra field '9'"},
      {"torus:3x3:-1", "terminals '-1'"},
      {"torus:3x3:+1", "terminals '+1'"},
      {"torus:3x3:4294967296", "terminals '4294967296'"},
      {"torus:3x0:1", "dimension '0'"},
      {"torus:3x:1", "dimension ''"},
      {"torus", "needs dimensions"},
      {"fattree:2:3:x", "terminals 'x'"},
      {"hyperx:3x3:1:2:5", "extra field '5'"},
      {"random:10:20:2:5zz", "seed '5zz'"},
      {"kautz:0:2", "d '0'"},
      {"clos:6,3:2", "needs terminals"},
      {"clos:6,3:2,2:12", "uplink count per stage"},
      {"cascade:1", "extra field '1'"},
      {"mesh:4x4", "unknown topology kind 'mesh'"},
      {"", "unknown topology kind ''"},
  };
  for (const auto& [spec, field] : cases) {
    try {
      generate_topology(spec);
      ADD_FAILURE() << spec << " was accepted";
    } catch (const std::logic_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(field), std::string::npos) << spec << ": " << what;
      EXPECT_NE(what.find("'" + std::string(spec) + "'"), std::string::npos)
          << spec << ": " << what;
    }
  }
}

// A well-formed spec whose fabric would pass kMaxGeneratedElements nodes
// or links is refused from its fields alone, before anything is built:
// the totals saturate instead of wrapping, so torus:3x3:4000000000 (36e9
// terminals) and 64-bit-overflowing shapes all reach the check.
TEST(GenerateSpec, RejectsFabricsPastTheSizeCeiling) {
  for (const char* spec : {
           "torus:3x3:4000000000",
           "torus:4294967295x4294967295x4294967295x4294967295",
           "torus:4096x4096:1",
           "random:16777216:16777216:1",
           "random:2:16777217:0",
           "fattree:4294967295:4294967295",
           "fattree:2:4294967295:0",
           "kautz:4294967295:4294967295",
           "dragonfly:100000:0:1:100000",
           "hyperx:4096x4096x2:0",
           "hypercube:4294967295:0",
           "hypercube:25:0",
           "clos:4294967295,4294967295:4294967295:0",
           "clos:2,2:1:16777216",
       }) {
    try {
      generate_topology(spec);
      ADD_FAILURE() << spec << " was accepted";
    } catch (const std::logic_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("ceiling of " +
                          std::to_string(kMaxGeneratedElements)),
                std::string::npos)
          << spec << ": " << what;
      EXPECT_NE(what.find("'" + std::string(spec) + "'"), std::string::npos)
          << spec << ": " << what;
    }
  }
}

}  // namespace
}  // namespace nue
