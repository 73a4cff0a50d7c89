// Differential property test of the ω engine (CompleteCdg): under random
// sequences of dependency-use attempts, the set of used edges must always
// form a DAG (checked against an independent reference), and the engine's
// accept/reject answers must match the reference's cycle prediction. The
// order repair is checked position by position against a sorting
// reference of the same Pearce–Kelly step.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "nue/complete_cdg.hpp"
#include "routing/cdg_index.hpp"
#include "routing/validate.hpp"
#include "topology/misc_topologies.hpp"
#include "topology/torus.hpp"
#include "util/rng.hpp"

namespace nue {
namespace {

/// Reference: adjacency over channels, acyclicity via is_acyclic().
struct ReferenceDag {
  std::vector<std::vector<std::uint32_t>> adj;

  explicit ReferenceDag(std::size_t n) : adj(n) {}

  bool would_stay_acyclic(ChannelId a, ChannelId b) const {
    auto copy = adj;
    copy[a].push_back(b);
    return is_acyclic(copy);
  }

  void add(ChannelId a, ChannelId b) { adj[a].push_back(b); }
};

class CompleteCdgProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(CompleteCdgProperty, MatchesReferenceUnderRandomUseSequences) {
  Rng rng(GetParam());
  RandomSpec spec{10, 22, 0};
  Network net = make_random(spec, rng);
  CdgIndex idx(net);
  CompleteCdg cdg(net, idx);
  ReferenceDag ref(net.num_channels());

  // Start from a random used channel.
  std::vector<ChannelId> used_channels;
  {
    const auto c = static_cast<ChannelId>(rng.next_below(net.num_channels()));
    cdg.mark_channel_used(c);
    used_channels.push_back(c);
  }
  int accepted = 0, rejected = 0;
  for (int step = 0; step < 600; ++step) {
    // Pick a random used channel and one of its complete-CDG successors.
    const ChannelId c1 =
        used_channels[rng.next_below(used_channels.size())];
    const auto succ = idx.successors(c1);
    if (succ.empty()) continue;
    const ChannelId c2 = succ[rng.next_below(succ.size())];
    const auto eid = idx.edge_id(c1, c2);
    ASSERT_NE(eid, CdgIndex::kNoEdge);

    const bool already_used = cdg.edge_used(eid);
    const bool already_blocked = cdg.edge_blocked(eid);
    const bool ref_ok = already_used || ref.would_stay_acyclic(c1, c2);
    const bool got = cdg.try_use_edge(c1, c2);

    if (already_blocked) {
      // Sticky restriction: must still reject, and the reference must
      // agree that the edge once closed a cycle (it may have been into a
      // graph that has since grown, so ref_ok can differ — blocked wins).
      EXPECT_FALSE(got);
      ++rejected;
      continue;
    }
    EXPECT_EQ(got, ref_ok) << "step " << step;
    if (got) {
      ++accepted;
      if (!already_used) {
        ref.add(c1, c2);
        if (std::find(used_channels.begin(), used_channels.end(), c2) ==
            used_channels.end()) {
          used_channels.push_back(c2);
        }
      }
      EXPECT_TRUE(is_acyclic(ref.adj));
    } else {
      ++rejected;
      EXPECT_TRUE(cdg.edge_blocked(eid));
    }
  }
  // The workload must have exercised both outcomes to be meaningful.
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompleteCdgProperty,
                         ::testing::Range<std::uint64_t>(0, 8));

TEST(CompleteCdgProperty, SwitchFeasibleAgreesWithCommitOutcome) {
  // If switch_feasible says yes, committing must keep the used subgraph
  // acyclic (checked via the blocked/used invariants plus a reference).
  Rng rng(99);
  TorusSpec spec{{3, 3}, 0, 1};
  Network net = make_torus(spec);
  CdgIndex idx(net);
  for (int trial = 0; trial < 30; ++trial) {
    CompleteCdg cdg(net, idx);
    ReferenceDag ref(net.num_channels());
    // Grow a random used DAG.
    std::vector<ChannelId> used;
    const auto c0 = static_cast<ChannelId>(rng.next_below(net.num_channels()));
    cdg.mark_channel_used(c0);
    used.push_back(c0);
    for (int i = 0; i < 40; ++i) {
      const ChannelId c1 = used[rng.next_below(used.size())];
      const auto succ = idx.successors(c1);
      if (succ.empty()) continue;
      const ChannelId c2 = succ[rng.next_below(succ.size())];
      if (cdg.edge_used(idx.edge_id(c1, c2))) continue;
      if (cdg.try_use_edge(c1, c2)) {
        ref.add(c1, c2);
        if (std::find(used.begin(), used.end(), c2) == used.end()) {
          used.push_back(c2);
        }
      }
    }
    // Random switch attempt.
    const ChannelId c_in = used[rng.next_below(used.size())];
    const auto succ = idx.successors(c_in);
    if (succ.empty()) continue;
    const ChannelId c_new = succ[rng.next_below(succ.size())];
    std::vector<ChannelId> outs;
    for (ChannelId o : idx.successors(c_new)) {
      if (rng.next_bool(0.5)) outs.push_back(o);
    }
    if (cdg.switch_feasible(c_in, c_new, outs)) {
      cdg.commit_switch(c_in, c_new, outs);
      auto copy = ref.adj;
      copy[c_in].push_back(c_new);
      for (ChannelId o : outs) copy[c_new].push_back(o);
      EXPECT_TRUE(is_acyclic(copy)) << "trial " << trial;
    }
  }
}

/// Reference order repair: the Pearce–Kelly step with the three sorts
/// CompleteCdg::topo_insert once used (F by position, B by position, and
/// the pooled positions), over its own copy of the used edges.
struct SortingOrderModel {
  std::vector<std::vector<ChannelId>> succ, pred;
  std::vector<std::uint32_t> ord;

  explicit SortingOrderModel(const CompleteCdg& cdg, std::size_t n)
      : succ(n), pred(n), ord(n) {
    for (ChannelId c = 0; c < n; ++c) ord[c] = cdg.order_position(c);
  }

  /// Make `ord` agree with a new edge (a -> b); false, changing nothing,
  /// if the edge closes a cycle.
  bool insert(ChannelId a, ChannelId b) {
    if (ord[a] < ord[b]) return true;
    const std::uint32_t lb = ord[b];
    const std::uint32_t ub = ord[a];
    std::vector<char> in_f(ord.size(), 0), in_b(ord.size(), 0);
    std::vector<ChannelId> f{b}, bk{a};
    in_f[b] = 1;
    for (std::size_t i = 0; i < f.size(); ++i) {
      for (ChannelId w : succ[f[i]]) {
        if (w == a) return false;
        if (ord[w] < ub && !in_f[w]) {
          in_f[w] = 1;
          f.push_back(w);
        }
      }
    }
    in_b[a] = 1;
    for (std::size_t i = 0; i < bk.size(); ++i) {
      for (ChannelId w : pred[bk[i]]) {
        if (ord[w] > lb && !in_b[w]) {
          in_b[w] = 1;
          bk.push_back(w);
        }
      }
    }
    const auto by_ord = [&](ChannelId x, ChannelId y) {
      return ord[x] < ord[y];
    };
    std::sort(f.begin(), f.end(), by_ord);
    std::sort(bk.begin(), bk.end(), by_ord);
    std::vector<std::uint32_t> pool;
    for (ChannelId x : bk) pool.push_back(ord[x]);
    for (ChannelId x : f) pool.push_back(ord[x]);
    std::sort(pool.begin(), pool.end());
    std::size_t i = 0;
    for (ChannelId x : bk) ord[x] = pool[i++];
    for (ChannelId x : f) ord[x] = pool[i++];
    return true;
  }

  void add(ChannelId a, ChannelId b) {
    succ[a].push_back(b);
    pred[b].push_back(a);
  }

  void remove(ChannelId a, ChannelId b) {
    succ[a].erase(std::find(succ[a].begin(), succ[a].end(), b));
    pred[b].erase(std::find(pred[b].begin(), pred[b].end(), a));
  }
};

/// Random use/purge step lifecycles on a random fabric, started on an
/// empty CDG or after a bulk load of random acyclic dependencies. After
/// every use attempt each channel's order position must equal the
/// sorting reference's, and the accept/reject answer its cycle verdict.
void check_repair_against_sorting_model(std::uint64_t seed, bool bulk) {
  Rng rng(seed);
  RandomSpec spec{12, 30, 0};
  Network net = make_random(spec, rng);
  CdgIndex idx(net);
  CompleteCdg cdg(net, idx);
  const std::size_t n = net.num_channels();
  std::vector<ChannelId> used;
  std::vector<std::pair<ChannelId, ChannelId>> loaded;
  if (bulk) {
    // Edges that climb a random ranking are jointly acyclic.
    std::vector<std::uint32_t> rank(n);
    for (std::uint32_t i = 0; i < n; ++i) rank[i] = i;
    rng.shuffle(rank);
    for (int i = 0; i < 40; ++i) {
      const auto c1 = static_cast<ChannelId>(rng.next_below(n));
      const auto succ = idx.successors(c1);
      if (succ.empty()) continue;
      const ChannelId c2 = succ[rng.next_below(succ.size())];
      if (rank[c1] >= rank[c2]) continue;
      if (std::find(loaded.begin(), loaded.end(), std::make_pair(c1, c2)) !=
          loaded.end()) {
        continue;
      }
      loaded.emplace_back(c1, c2);
      used.push_back(c1);
      used.push_back(c2);
    }
    ASSERT_FALSE(loaded.empty());
    cdg.force_edges_bulk(loaded);
    ASSERT_TRUE(cdg.check_invariants());
  } else {
    used.push_back(static_cast<ChannelId>(rng.next_below(n)));
    cdg.mark_channel_used(used[0]);
  }
  SortingOrderModel model(cdg, n);
  for (const auto& [c1, c2] : loaded) model.add(c1, c2);

  std::vector<std::uint8_t> keep(idx.num_edges(), 0);
  int repairs = 0;
  for (int step = 0; step < 20; ++step) {
    cdg.begin_step();
    std::vector<std::pair<ChannelId, ChannelId>> marked;
    for (int i = 0; i < 60; ++i) {
      const ChannelId c1 = used[rng.next_below(used.size())];
      const auto succ = idx.successors(c1);
      if (succ.empty()) continue;
      const ChannelId c2 = succ[rng.next_below(succ.size())];
      const auto e = idx.edge_id(c1, c2);
      cdg.mark_channel_used(c1);
      const bool fresh = !cdg.edge_used(e) && !cdg.edge_blocked(e);
      const bool reordered =
          fresh && cdg.order_position(c1) > cdg.order_position(c2);
      const bool predicted = fresh ? model.insert(c1, c2) : cdg.edge_used(e);
      ASSERT_EQ(cdg.try_use_edge(c1, c2), predicted)
          << "seed " << seed << " step " << step << " use " << i;
      if (fresh && predicted) {
        model.add(c1, c2);
        marked.emplace_back(c1, c2);
        if (reordered) ++repairs;
        used.push_back(c2);
      }
      for (ChannelId c = 0; c < n; ++c) {
        ASSERT_EQ(cdg.order_position(c), model.ord[c])
            << "seed " << seed << " step " << step << " use " << i
            << " channel " << c;
      }
      ASSERT_TRUE(cdg.check_invariants());
    }
    std::vector<CdgIndex::EdgeId> kept;
    for (const auto& [c1, c2] : marked) {
      const auto e = idx.edge_id(c1, c2);
      if (rng.next_bool(0.5)) {
        keep[e] = 1;
        kept.push_back(e);
      } else {
        model.remove(c1, c2);
      }
    }
    cdg.end_step(keep.data());
    for (const auto e : kept) keep[e] = 0;
    ASSERT_TRUE(cdg.check_invariants()) << "after end_step " << step;
  }
  // The sequence must have reordered, not only appended.
  EXPECT_GT(repairs, 0) << "seed " << seed;
}

TEST(CompleteCdgProperty, OrderRepairMatchesSortingModelFromEmpty) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    check_repair_against_sorting_model(seed, /*bulk=*/false);
  }
}

TEST(CompleteCdgProperty, OrderRepairMatchesSortingModelAfterBulkLoad) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    check_repair_against_sorting_model(seed, /*bulk=*/true);
  }
}

}  // namespace
}  // namespace nue

namespace nue {
namespace invariant_tests {

TEST(CompleteCdgInvariants, HoldThroughRandomStepLifecycles) {
  Rng rng(31);
  RandomSpec spec{12, 30, 0};
  Network net = make_random(spec, rng);
  CdgIndex idx(net);
  CompleteCdg cdg(net, idx);
  std::vector<std::uint8_t> keep(idx.num_edges(), 0);
  std::vector<ChannelId> used{
      static_cast<ChannelId>(rng.next_below(net.num_channels()))};
  cdg.mark_channel_used(used[0]);
  for (int step = 0; step < 20; ++step) {
    cdg.begin_step();
    std::vector<CdgIndex::EdgeId> marked;
    for (int i = 0; i < 60; ++i) {
      const ChannelId c1 = used[rng.next_below(used.size())];
      const auto succ = idx.successors(c1);
      if (succ.empty()) continue;
      const ChannelId c2 = succ[rng.next_below(succ.size())];
      // Precondition of Algorithm 3: the tail channel is used (in the
      // router it is the popped channel of the current path; after a
      // purge the test must re-establish it like seed_search does).
      cdg.mark_channel_used(c1);
      if (cdg.try_use_edge(c1, c2)) {
        marked.push_back(idx.edge_id(c1, c2));
        if (std::find(used.begin(), used.end(), c2) == used.end()) {
          used.push_back(c2);
        }
      }
      ASSERT_TRUE(cdg.check_invariants()) << "step " << step;
    }
    // Keep a random half of this step's marks.
    std::vector<CdgIndex::EdgeId> kept;
    for (const auto e : marked) {
      if (rng.next_bool(0.5)) {
        keep[e] = 1;
        kept.push_back(e);
      }
    }
    cdg.end_step(keep.data());
    for (const auto e : kept) keep[e] = 0;
    ASSERT_TRUE(cdg.check_invariants()) << "after end_step " << step;
  }
}

TEST(CompleteCdgInvariants, StickyBlockedVariantAlsoHolds) {
  Rng rng(32);
  TorusSpec spec{{3, 3}, 0, 1};
  Network net = make_torus(spec);
  CdgIndex idx(net);
  CompleteCdg cdg(net, idx);
  cdg.set_keep_blocked(true);
  std::vector<std::uint8_t> keep(idx.num_edges(), 0);
  std::vector<ChannelId> used{0};
  cdg.mark_channel_used(0);
  for (int step = 0; step < 10; ++step) {
    cdg.begin_step();
    for (int i = 0; i < 40; ++i) {
      const ChannelId c1 = used[rng.next_below(used.size())];
      const auto succ = idx.successors(c1);
      if (succ.empty()) continue;
      const ChannelId c2 = succ[rng.next_below(succ.size())];
      cdg.mark_channel_used(c1);
      if (cdg.try_use_edge(c1, c2) &&
          std::find(used.begin(), used.end(), c2) == used.end()) {
        used.push_back(c2);
      }
    }
    cdg.end_step(keep.data());  // keep nothing; blocked marks persist
    ASSERT_TRUE(cdg.check_invariants()) << "step " << step;
  }
}

}  // namespace invariant_tests
}  // namespace nue
