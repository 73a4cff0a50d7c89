#include <stdexcept>

#include <gtest/gtest.h>

#include "graph/algorithms.hpp"
#include "metrics/metrics.hpp"
#include "nue/engines.hpp"
#include "routing/dfsssp.hpp"
#include "test_helpers.hpp"
#include "topology/faults.hpp"
#include "topology/misc_topologies.hpp"
#include "topology/torus.hpp"
#include "util/rng.hpp"

namespace nue {
namespace {

using test::make_line;
using test::make_ring;

TEST(ForwardingIndex, MiddleLinkOfLineCarriesMost) {
  Network net = make_line(4, 2);  // 8 terminals
  const auto rr = route_minhop(net, net.terminals());
  const auto gamma = edge_forwarding_index(net, rr);
  // Channel (1 -> 2) carries all 4x4 = 16 left-to-right routes.
  ChannelId mid = kInvalidChannel;
  for (ChannelId c = 0; c < net.num_channels(); ++c) {
    if (net.src(c) == 1 && net.dst(c) == 2) mid = c;
  }
  ASSERT_NE(mid, kInvalidChannel);
  EXPECT_EQ(gamma[mid], 16u);
  for (ChannelId c = 0; c < net.num_channels(); ++c) {
    EXPECT_LE(gamma[c], gamma[mid]);
  }
}

TEST(ForwardingIndex, SummaryExcludesTerminalChannels) {
  Network net = make_line(3, 3);
  const auto rr = route_minhop(net, net.terminals());
  const auto gamma = edge_forwarding_index(net, rr);
  const auto sum = summarize_forwarding_index(net, gamma);
  // 4 inter-switch channels only; each terminal channel carries 8 routes
  // but must not enter the summary: max = 3*6 = 18 (edge to middle).
  EXPECT_EQ(sum.max, 18.0);
  EXPECT_EQ(sum.min, 18.0);
  EXPECT_EQ(sum.sd, 0.0);
}

TEST(PathStats, MinhopMatchesBfsBound) {
  Network net = make_ring(6, 2);
  const auto rr = route_minhop(net, net.terminals());
  const auto pl = path_length_stats(net, rr);
  EXPECT_DOUBLE_EQ(pl.avg, pl.avg_shortest);
  EXPECT_EQ(pl.max, pl.max_shortest);
  EXPECT_GE(pl.max, 5u);  // 2 access hops + up to 3 ring hops
}

// --- per-path reference walkers ----------------------------------------------
// The metrics count per column (ColumnPass loads and depths). These walk
// every (terminal, destination) path one at a time instead, as the
// metrics once did, and are the differential reference for them.

std::vector<std::uint64_t> reference_forwarding_index(const Network& net,
                                                      const RoutingResult& rr) {
  std::vector<std::uint64_t> gamma(net.num_channels(), 0);
  for (std::size_t di = 0; di < rr.destinations().size(); ++di) {
    const NodeId d = rr.destinations()[di];
    if (!net.is_terminal(d)) continue;
    for (NodeId s : net.terminals()) {
      if (s == d) continue;
      for (ChannelId c : rr.trace(net, s, d)) ++gamma[c];
    }
  }
  return gamma;
}

PathLengthSummary reference_path_lengths(const Network& net,
                                         const RoutingResult& rr) {
  PathLengthSummary r;
  std::uint64_t total = 0, total_sp = 0, pairs = 0;
  for (std::size_t di = 0; di < rr.destinations().size(); ++di) {
    const NodeId d = rr.destinations()[di];
    if (!net.is_terminal(d)) continue;
    const auto sp = bfs_distances(net, d);
    for (NodeId s : net.terminals()) {
      if (s == d) continue;
      const std::size_t hops = rr.trace(net, s, d).size();
      total += hops;
      r.max = std::max(r.max, hops);
      total_sp += sp[s];
      r.max_shortest = std::max<std::size_t>(r.max_shortest, sp[s]);
      ++pairs;
    }
  }
  r.avg = static_cast<double>(total) / static_cast<double>(pairs);
  r.avg_shortest = static_cast<double>(total_sp) / static_cast<double>(pairs);
  return r;
}

Network quality_fabric(bool torus, bool faulted, TorusSpec& spec) {
  Network net;
  if (torus) {
    spec = TorusSpec{{4, 4, 3}, 2, 1};
    net = make_torus(spec);
  } else {
    RandomSpec r{20, 50, 2};
    Rng rng(1);
    net = make_random(r, rng);
  }
  if (faulted) {
    Rng rng(5);
    inject_link_failures(net, torus ? 1 : 3, rng);
  }
  return net;
}

TEST(QualityColumnPass, MatchesPerPathWalkers) {
  std::size_t compared = 0;
  for (const bool torus : {true, false}) {
    for (const bool faulted : {false, true}) {
      for (const Engine e : {Engine::kNue, Engine::kDfsssp, Engine::kLash,
                             Engine::kTorusQos, Engine::kUpDown}) {
        if (e == Engine::kTorusQos && !torus) continue;
        TorusSpec spec;
        const Network net = quality_fabric(torus, faulted, spec);
        EngineArgs args;
        args.vls = 8;
        if (torus) args.torus = spec;
        const RoutingResult rr =
            route_engine(e, net, net.terminals(), args);
        const std::string label = std::string(engine_name(e)) +
                                  (torus ? " torus" : " random") +
                                  (faulted ? " faulted" : "");
        EXPECT_EQ(edge_forwarding_index(net, rr),
                  reference_forwarding_index(net, rr))
            << label;
        const PathLengthSummary got = path_length_stats(net, rr);
        const PathLengthSummary want = reference_path_lengths(net, rr);
        EXPECT_EQ(got.avg, want.avg) << label;
        EXPECT_EQ(got.max, want.max) << label;
        EXPECT_EQ(got.avg_shortest, want.avg_shortest) << label;
        EXPECT_EQ(got.max_shortest, want.max_shortest) << label;
        ++compared;
      }
    }
  }
  EXPECT_EQ(compared, 18u);
}

/// A minhop line table toward the last switch's terminal, and a switch's
/// next-pointer index into it.
struct BrokenLine {
  Network net = make_line(4, 2);
  RoutingResult rr = route_minhop(net, net.terminals());
  std::uint32_t di = rr.dest_index(net.terminals().back());

  ChannelId channel(NodeId from, NodeId to) const {
    for (ChannelId c = 0; c < net.num_channels(); ++c) {
      if (net.src(c) == from && net.dst(c) == to) return c;
    }
    return kInvalidChannel;
  }
};

TEST(QualityColumnPass, ThrowsOnAHole) {
  BrokenLine t;
  t.rr.set_next(1, t.di, kInvalidChannel);
  EXPECT_THROW(edge_forwarding_index(t.net, t.rr), std::logic_error);
  EXPECT_THROW(path_length_stats(t.net, t.rr), std::logic_error);
}

TEST(QualityColumnPass, ThrowsOnAForwardingLoop) {
  BrokenLine t;
  // Switch 1 sends traffic for the last switch back to switch 0, which
  // sends it to switch 1 again.
  t.rr.set_next(1, t.di, t.channel(1, 0));
  ASSERT_EQ(t.rr.next(0, t.di), t.channel(0, 1));
  EXPECT_THROW(edge_forwarding_index(t.net, t.rr), std::logic_error);
  EXPECT_THROW(path_length_stats(t.net, t.rr), std::logic_error);
}

}  // namespace
}  // namespace nue
