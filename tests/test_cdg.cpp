// Tests for the channel-dependency-graph machinery: CdgIndex (complete CDG
// structure, Definition 6), LayerCdg (counted per-layer CDG for
// DFSSSP/LASH), and CompleteCdg (Nue's ω engine, Algorithm 3).
#include <gtest/gtest.h>

#include "nue/complete_cdg.hpp"
#include "routing/cdg_index.hpp"
#include "routing/layer_cdg.hpp"
#include "test_helpers.hpp"

namespace nue {
namespace {

using test::make_paper_ring;
using test::make_ring;

TEST(CdgIndex, ExcludesUturns) {
  Network net = test::make_line(3, 0);
  CdgIndex idx(net);
  // Channel (0->1): successors are channels out of 1 except back to 0.
  ChannelId c01 = kInvalidChannel;
  for (ChannelId c = 0; c < net.num_channels(); ++c) {
    if (net.src(c) == 0 && net.dst(c) == 1) c01 = c;
  }
  ASSERT_NE(c01, kInvalidChannel);
  const auto succ = idx.successors(c01);
  ASSERT_EQ(succ.size(), 1u);
  EXPECT_EQ(net.src(succ[0]), 1u);
  EXPECT_EQ(net.dst(succ[0]), 2u);
}

TEST(CdgIndex, ExcludesUturnsOverParallelChannels) {
  // Multigraph: u-turn via a *parallel* channel is also forbidden
  // (Definition 6 requires n_x != n_z).
  Network net;
  net.add_switch();
  net.add_switch();
  net.add_link(0, 1);
  net.add_link(0, 1);
  CdgIndex idx(net);
  for (ChannelId c = 0; c < net.num_channels(); ++c) {
    EXPECT_EQ(idx.successors(c).size(), 0u) << "channel " << c;
  }
}

TEST(CdgIndex, PaperFig3CompleteCdgShape) {
  // Fig. 3: the complete CDG of the 5-ring with shortcut has 12 vertices
  // (channels). Each vertex's out-degree = deg(head) - 1 in a simple
  // graph; total edges = sum over channels.
  Network net = make_paper_ring();
  CdgIndex idx(net);
  EXPECT_EQ(idx.num_channels(), 12u);
  std::size_t edges = 0;
  for (ChannelId c = 0; c < net.num_channels(); ++c) {
    edges += idx.successors(c).size();
    EXPECT_EQ(idx.successors(c).size(), net.degree(net.dst(c)) - 1);
  }
  EXPECT_EQ(edges, idx.num_edges());
  // Degrees: n3 and n5 have degree 3, the rest 2. Sum over channels of
  // (deg(head)-1): channels into n3/n5 (3 each... n3: from n2, n4, n5) ->
  // 3 channels * 2 + ... total = 2*(3*2) + 6*1 = 18.
  EXPECT_EQ(edges, 18u);
}

TEST(CdgIndex, EdgeIdRoundTrip) {
  Network net = make_paper_ring();
  CdgIndex idx(net);
  for (ChannelId c = 0; c < net.num_channels(); ++c) {
    for (ChannelId s : idx.successors(c)) {
      const auto e = idx.edge_id(c, s);
      ASSERT_NE(e, CdgIndex::kNoEdge);
      EXPECT_EQ(idx.edge_head(e), s);
    }
    EXPECT_EQ(idx.edge_id(c, c), CdgIndex::kNoEdge);
  }
}

TEST(CdgIndex, SkipsDeadChannels) {
  Network net = make_ring(4, 0);
  net.remove_link(net.out(0)[0]);
  CdgIndex idx(net);
  for (ChannelId c = 0; c < net.num_channels(); ++c) {
    if (!net.channel_alive(c)) {
      EXPECT_EQ(idx.successors(c).size(), 0u);
    } else {
      for (ChannelId s : idx.successors(c)) {
        EXPECT_TRUE(net.channel_alive(s));
      }
    }
  }
}

/// Find the channel id for (a -> b).
ChannelId chan(const Network& net, NodeId a, NodeId b) {
  for (ChannelId c : net.out(a)) {
    if (net.dst(c) == b) return c;
  }
  ADD_FAILURE() << "no channel " << a << "->" << b;
  return kInvalidChannel;
}

TEST(LayerCdg, DetectsCycleOnRing) {
  Network net = make_ring(4, 0);
  CdgIndex idx(net);
  LayerCdg cdg(idx);
  // Clockwise dependencies 0->1->2->3->0.
  std::vector<std::pair<ChannelId, ChannelId>> deps;
  for (NodeId v = 0; v < 4; ++v) {
    deps.push_back({chan(net, v, (v + 1) % 4),
                    chan(net, (v + 1) % 4, (v + 2) % 4)});
  }
  for (std::size_t i = 0; i + 1 < deps.size(); ++i) {
    EXPECT_FALSE(cdg.creates_cycle(deps[i].first, deps[i].second));
    cdg.add(idx.edge_id(deps[i].first, deps[i].second));
    EXPECT_TRUE(cdg.find_cycle().empty());
  }
  // The last dependency closes the ring cycle.
  EXPECT_TRUE(cdg.creates_cycle(deps.back().first, deps.back().second));
  cdg.add(idx.edge_id(deps.back().first, deps.back().second));
  const auto cycle = cdg.find_cycle();
  EXPECT_EQ(cycle.size(), 4u);
}

TEST(LayerCdg, RemoveReopensGraph) {
  Network net = make_ring(3, 0);
  CdgIndex idx(net);
  LayerCdg cdg(idx);
  std::vector<CdgIndex::EdgeId> ids;
  for (NodeId v = 0; v < 3; ++v) {
    const auto e = idx.edge_id(chan(net, v, (v + 1) % 3),
                               chan(net, (v + 1) % 3, (v + 2) % 3));
    cdg.add(e);
    ids.push_back(e);
  }
  EXPECT_FALSE(cdg.find_cycle().empty());
  cdg.remove(ids[0]);
  EXPECT_TRUE(cdg.find_cycle().empty());
}

TEST(CompleteCdg, ConditionAandB) {
  Network net = make_ring(5, 0);
  CdgIndex idx(net);
  CompleteCdg cdg(net, idx);
  const ChannelId a = chan(net, 0, 1), b = chan(net, 1, 2);
  cdg.mark_channel_used(a);
  EXPECT_TRUE(cdg.try_use_edge(a, b));          // first use: marked
  EXPECT_TRUE(cdg.edge_used(idx.edge_id(a, b)));
  const auto before = cdg.stats().fast_accepts;
  EXPECT_TRUE(cdg.try_use_edge(a, b));          // condition (b): O(1)
  EXPECT_EQ(cdg.stats().fast_accepts, before + 1);
}

TEST(CompleteCdg, BlocksRingClosingEdge) {
  Network net = make_ring(4, 0);
  CdgIndex idx(net);
  CompleteCdg cdg(net, idx);
  cdg.mark_channel_used(chan(net, 0, 1));
  for (NodeId v = 0; v < 3; ++v) {
    EXPECT_TRUE(cdg.try_use_edge(chan(net, v, v + 1),
                                 chan(net, v + 1, (v + 2) % 4)));
  }
  // 3->0 then 0->1 closes the dependency ring: must be blocked.
  EXPECT_FALSE(cdg.try_use_edge(chan(net, 3, 0), chan(net, 0, 1)));
  EXPECT_TRUE(cdg.edge_blocked(
      idx.edge_id(chan(net, 3, 0), chan(net, 0, 1))));
  // Condition (a): the repeated query is O(1) and still false.
  EXPECT_FALSE(cdg.try_use_edge(chan(net, 3, 0), chan(net, 0, 1)));
}

TEST(CompleteCdg, MergeOfDisjointSubgraphsNeedsNoSearch) {
  Network net = make_ring(6, 0);
  CdgIndex idx(net);
  CompleteCdg cdg(net, idx);
  // Two disjoint used chains.
  cdg.mark_channel_used(chan(net, 0, 1));
  ASSERT_TRUE(cdg.try_use_edge(chan(net, 0, 1), chan(net, 1, 2)));
  cdg.mark_channel_used(chan(net, 3, 4));
  ASSERT_TRUE(cdg.try_use_edge(chan(net, 3, 4), chan(net, 4, 5)));
  const auto searches_before = cdg.stats().dfs_searches;
  // Connecting them (condition (c)) must not run a DFS.
  EXPECT_TRUE(cdg.try_use_edge(chan(net, 1, 2), chan(net, 2, 3)));
  EXPECT_TRUE(cdg.try_use_edge(chan(net, 2, 3), chan(net, 3, 4)));
  EXPECT_EQ(cdg.stats().dfs_searches, searches_before);
}

TEST(CompleteCdg, ConditionDRunsSearchWithinComponent) {
  Network net = make_paper_ring();
  CdgIndex idx(net);
  CompleteCdg cdg(net, idx);
  // Build the used chain n1->n2->n3->n5 (one component).
  cdg.mark_channel_used(chan(net, 0, 1));
  ASSERT_TRUE(cdg.try_use_edge(chan(net, 0, 1), chan(net, 1, 2)));
  ASSERT_TRUE(cdg.try_use_edge(chan(net, 1, 2), chan(net, 2, 4)));
  const auto before = cdg.stats().dfs_searches;
  // n3->n4 then... use (c_{n2,n3}, c_{n3,n4}): channels in same component?
  // c_{n2,n3} used; c_{n3,n4} unused -> condition (c), no search.
  ASSERT_TRUE(cdg.try_use_edge(chan(net, 1, 2), chan(net, 2, 3)));
  EXPECT_EQ(cdg.stats().dfs_searches, before);
  // (c_{n3,n4}, c_{n4,n5}) joins two used channels: c_{n4,n5} unused still
  // -> no search. Then (c_{n4,n5}, c_{n5,n1}): c_{n5,n1} unused -> no
  // search. Finally (c_{n5,n1}, c_{n1,n2}) hits the same component both
  // sides: condition (d) DFS, and it finds a cycle -> blocked.
  ASSERT_TRUE(cdg.try_use_edge(chan(net, 2, 3), chan(net, 3, 4)));
  ASSERT_TRUE(cdg.try_use_edge(chan(net, 3, 4), chan(net, 4, 0)));
  EXPECT_FALSE(cdg.try_use_edge(chan(net, 4, 0), chan(net, 0, 1)));
  EXPECT_GT(cdg.stats().dfs_searches, before);
}

TEST(CompleteCdg, SwitchFeasibleRejectsCombinedCycle) {
  Network net = make_ring(4, 0);
  CdgIndex idx(net);
  CompleteCdg cdg(net, idx);
  // Used chain: (0->1) -> (1->2) -> (2->3).
  cdg.mark_channel_used(chan(net, 0, 1));
  ASSERT_TRUE(cdg.try_use_edge(chan(net, 0, 1), chan(net, 1, 2)));
  ASSERT_TRUE(cdg.try_use_edge(chan(net, 1, 2), chan(net, 2, 3)));
  // Switching to c_new = (3->0) with inbound (2->3) and out-star {(0->1)}
  // would close the ring: infeasible.
  EXPECT_FALSE(cdg.switch_feasible(chan(net, 2, 3), chan(net, 3, 0),
                                   {chan(net, 0, 1)}));
  // Without the out edge it is fine.
  EXPECT_TRUE(cdg.switch_feasible(chan(net, 2, 3), chan(net, 3, 0), {}));
}

TEST(CompleteCdg, SwitchFeasibleStar) {
  Network net = make_ring(4, 0);
  CdgIndex idx(net);
  CompleteCdg cdg(net, idx);
  cdg.mark_channel_used(chan(net, 1, 2));
  ASSERT_TRUE(cdg.try_use_edge(chan(net, 1, 2), chan(net, 2, 3)));
  ASSERT_TRUE(cdg.try_use_edge(chan(net, 2, 3), chan(net, 3, 0)));
  ASSERT_TRUE(cdg.try_use_edge(chan(net, 3, 0), chan(net, 0, 1)));
  // Star around (0->1) reaching (1->2) closes the ring via used edges.
  EXPECT_FALSE(cdg.switch_feasible_star(chan(net, 0, 1), {chan(net, 1, 2)}));
}

}  // namespace
}  // namespace nue

// --- per-step lifecycle (transient-mark purge, Definition 4 semantics) ---

namespace nue {
namespace step_tests {

ChannelId chan2(const Network& net, NodeId a, NodeId b) {
  for (ChannelId c : net.out(a)) {
    if (net.dst(c) == b) return c;
  }
  return kInvalidChannel;
}

TEST(CompleteCdgSteps, PurgeRemovesUnkeptMarks) {
  Network net = test::make_ring(6, 0);
  CdgIndex idx(net);
  CompleteCdg cdg(net, idx);
  cdg.begin_step();
  const ChannelId a = chan2(net, 0, 1), b = chan2(net, 1, 2),
                  c = chan2(net, 2, 3);
  cdg.mark_channel_used(a);
  ASSERT_TRUE(cdg.try_use_edge(a, b));
  ASSERT_TRUE(cdg.try_use_edge(b, c));
  std::vector<std::uint8_t> keep(idx.num_edges(), 0);
  keep[idx.edge_id(a, b)] = 1;  // keep only the first dependency
  cdg.end_step(keep.data());
  EXPECT_TRUE(cdg.edge_used(idx.edge_id(a, b)));
  EXPECT_FALSE(cdg.edge_used(idx.edge_id(b, c)));
  EXPECT_TRUE(cdg.channel_used(a));
  EXPECT_TRUE(cdg.channel_used(b));
  EXPECT_FALSE(cdg.channel_used(c));  // no incident kept dependency
}

TEST(CompleteCdgSteps, ForcedEscapeEdgesSurviveEveryPurge) {
  Network net = test::make_ring(6, 0);
  CdgIndex idx(net);
  CompleteCdg cdg(net, idx);
  const ChannelId a = chan2(net, 0, 1), b = chan2(net, 1, 2);
  EXPECT_TRUE(cdg.try_force_edge_used(a, b));
  std::vector<std::uint8_t> keep(idx.num_edges(), 0);
  for (int step = 0; step < 3; ++step) {
    cdg.begin_step();
    cdg.end_step(keep.data());
  }
  EXPECT_TRUE(cdg.edge_used(idx.edge_id(a, b)));
}

TEST(CompleteCdgSteps, PurgedEdgeCanBeReusedNextStep) {
  Network net = test::make_ring(4, 0);
  CdgIndex idx(net);
  CompleteCdg cdg(net, idx);
  std::vector<std::uint8_t> keep(idx.num_edges(), 0);
  const ChannelId a = chan2(net, 0, 1), b = chan2(net, 1, 2);
  cdg.begin_step();
  cdg.mark_channel_used(a);
  ASSERT_TRUE(cdg.try_use_edge(a, b));
  cdg.end_step(keep.data());  // dropped
  cdg.begin_step();
  cdg.mark_channel_used(a);
  EXPECT_TRUE(cdg.try_use_edge(a, b));  // usable again
}

TEST(CompleteCdgSteps, StickyBlockedPersistsWhenEnabled) {
  Network net = test::make_ring(4, 0);
  CdgIndex idx(net);
  for (bool sticky : {false, true}) {
    CompleteCdg cdg(net, idx);
    cdg.set_keep_blocked(sticky);
    std::vector<std::uint8_t> keep(idx.num_edges(), 0);
    cdg.begin_step();
    // Build the 4-ring dependency cycle minus one edge, then block it.
    cdg.mark_channel_used(chan2(net, 0, 1));
    for (NodeId v = 0; v < 3; ++v) {
      ASSERT_TRUE(cdg.try_use_edge(chan2(net, v, v + 1),
                                   chan2(net, v + 1, (v + 2) % 4)));
    }
    ASSERT_FALSE(cdg.try_use_edge(chan2(net, 3, 0), chan2(net, 0, 1)));
    const auto blocked_edge = idx.edge_id(chan2(net, 3, 0), chan2(net, 0, 1));
    EXPECT_TRUE(cdg.edge_blocked(blocked_edge));
    cdg.end_step(keep.data());  // nothing kept: the cycle-inducing context is gone
    EXPECT_EQ(cdg.edge_blocked(blocked_edge), sticky);
  }
}

}  // namespace step_tests
}  // namespace nue
