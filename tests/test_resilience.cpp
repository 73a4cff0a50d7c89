// Live resilience manager tests (docs/RESILIENCE.md): runtime repair
// primitives, the replayable fault-trace format, and the manager's
// event -> repair -> gate -> swap loop, including the repair ladder's
// descent and the union-CDG transition gate on real event streams.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "resilience/resilience.hpp"
#include "routing/validate.hpp"
#include "test_helpers.hpp"
#include "topology/faults.hpp"
#include "topology/torus.hpp"
#include "util/rng.hpp"

namespace nue {
namespace {

bool same_liveness(const Network& a, const Network& b) {
  if (a.num_nodes() != b.num_nodes() || a.num_channels() != b.num_channels())
    return false;
  for (NodeId v = 0; v < a.num_nodes(); ++v) {
    if (a.node_alive(v) != b.node_alive(v)) return false;
  }
  for (ChannelId c = 0; c < a.num_channels(); ++c) {
    if (a.channel_alive(c) != b.channel_alive(c)) return false;
  }
  return true;
}

// --- runtime repair primitives ----------------------------------------------

TEST(FaultRepair, RestoreLinkRoundTrip) {
  TorusSpec spec{{3, 3}, 1, 1};
  Network net = make_torus(spec);
  const Network pristine = net;
  Rng rng(7);
  ASSERT_EQ(inject_link_failures(net, 3, rng), 3u);
  EXPECT_FALSE(same_liveness(net, pristine));
  for (ChannelId c = 0; c < net.num_channels(); c += 2) {
    if (!net.channel_alive(c)) restore_link(net, c);
  }
  EXPECT_TRUE(same_liveness(net, pristine));
}

TEST(FaultRepair, RestoreSwitchRevivesLinksAndTerminals) {
  TorusSpec spec{{3, 3}, 2, 1};
  Network net = make_torus(spec);
  const Network pristine = net;
  Rng rng(5);
  ASSERT_EQ(inject_switch_failures(net, 1, rng), 1u);
  NodeId dead = kInvalidNode;
  for (NodeId v = 0; v < net.num_nodes(); ++v) {
    if (net.is_switch(v) && !net.node_alive(v)) dead = v;
  }
  ASSERT_NE(dead, kInvalidNode);
  EXPECT_GT(restore_switch(net, dead), 0u);
  EXPECT_TRUE(same_liveness(net, pristine));
}

TEST(FaultRepair, IllegalRestoresThrow) {
  TorusSpec spec{{3, 3}, 1, 1};
  Network net = make_torus(spec);
  // Restoring an alive link / switch is a contract violation, not a noop.
  EXPECT_THROW(restore_link(net, 0), std::logic_error);
  EXPECT_THROW(restore_switch(net, net.switches().front()),
               std::logic_error);
}

// --- replayable fault traces ------------------------------------------------

TEST(FaultTraceIo, RoundTripsByteForByte) {
  TorusSpec spec{{3, 3, 3}, 2, 1};
  Network net = make_torus(spec);
  const FaultTrace t = draw_fault_trace(net, "torus:3x3x3:2", 11, 12, 0.4);
  ASSERT_FALSE(t.events.empty());
  std::ostringstream first;
  write_fault_trace(first, t);
  std::istringstream in(first.str());
  const FaultTrace u = read_fault_trace(in);
  std::ostringstream second;
  write_fault_trace(second, u);
  EXPECT_EQ(first.str(), second.str());
  ASSERT_EQ(t.events.size(), u.events.size());
  for (std::size_t i = 0; i < t.events.size(); ++i) {
    EXPECT_EQ(t.events[i].kind, u.events[i].kind);
    EXPECT_EQ(t.events[i].id, u.events[i].id);
  }
  EXPECT_EQ(t.generate, u.generate);
  EXPECT_EQ(t.seed, u.seed);
}

TEST(FaultTraceIo, DrawnTracesAreReplayable) {
  // Every drawn event must be legal when applied in order — that is the
  // trace format's whole contract.
  TorusSpec spec{{3, 3}, 1, 1};
  Network net = make_torus(spec);
  const FaultTrace t = draw_fault_trace(net, "torus:3x3:1", 3, 10, 0.5);
  for (const FaultEvent& e : t.events) {
    EXPECT_NO_THROW(apply_fault_event(net, e)) << e.label();
  }
}

// --- the manager's event loop -----------------------------------------------

TEST(ResilienceManager, EventStreamKeepsValidatedTableUp) {
  TorusSpec spec{{3, 3, 3}, 1, 1};
  const FaultTrace trace =
      draw_fault_trace(make_torus(spec), "torus:3x3x3:1", 5, 12, 0.4);
  ASSERT_FALSE(trace.events.empty());

  resilience::RepairPolicy policy;
  policy.vls = 4;
  resilience::ResilienceManager mgr(make_torus(spec), policy);
  EXPECT_EQ(mgr.epoch(), 1u);
  ASSERT_EQ(mgr.log().records().size(), 1u);
  EXPECT_TRUE(validate_routing(mgr.net(), *mgr.table()).ok());

  // The reconfiguration oracle: every committed epoch re-validates on the
  // post-event fabric — except intermediate wave epochs, whose design is
  // bounded staleness and whose safety claim is the pairwise union with
  // their predecessor (re-proved for every commit that claims hitless).
  std::size_t commits = 0;
  mgr.set_commit_hook([&](const Network& n, const RoutingResult* old,
                          const RoutingResult& rr,
                          const TransitionRecord& rec) {
    ++commits;
    const bool intermediate =
        rec.wave_count > 0 && rec.wave_index < rec.wave_count;
    if (!intermediate) {
      const auto rep = validate_routing(n, rr);
      EXPECT_TRUE(rep.ok()) << rec.event << ": " << rep.detail;
    }
    if (rec.hitless) {
      ASSERT_NE(old, nullptr);
      EXPECT_TRUE(union_cdg_acyclic(n, *old, rr)) << rec.event;
    }
  });

  const std::shared_ptr<const RoutingResult> snapshot = mgr.table();
  const auto records = mgr.replay(trace);
  ASSERT_EQ(records.size(), trace.events.size());

  std::size_t noops = 0, swaps = 0, wave_intermediates = 0;
  for (const TransitionRecord& r : records) {
    if (r.committed_step == "noop") {
      ++noops;
      EXPECT_FALSE(r.union_gate_checked);
      continue;
    }
    ++swaps;
    if (r.wave_count > 0) {
      // apply() returns a chain's final record; the intermediates were
      // committed and logged on the way.
      EXPECT_EQ(r.wave_index, r.wave_count);
      wave_intermediates += r.wave_count - 1;
    }
    // Every non-noop transition went through the gate and was resolved
    // one way or the other — never silently skipped.
    EXPECT_TRUE(r.union_gate_checked) << r.event;
    EXPECT_TRUE(r.hitless || r.drained) << r.event;
    EXPECT_FALSE(r.verdicts.empty());
  }
  EXPECT_EQ(commits, swaps + wave_intermediates);
  EXPECT_EQ(mgr.epoch(), 1u + swaps + wave_intermediates);
  EXPECT_EQ(mgr.log().records().size(),
            1u + trace.events.size() + wave_intermediates);
  EXPECT_EQ(mgr.log().summarize().noops, noops);
  if (swaps > 0) {
    // Double buffering: the pre-replay snapshot is untouched; readers
    // holding it kept routing on a complete table throughout.
    EXPECT_NE(mgr.table().get(), snapshot.get());
    EXPECT_TRUE(validate_routing(mgr.net(), *mgr.table()).ok());
  }
}

TEST(ResilienceManager, IllegalEventThrowsAndLeavesStateIntact) {
  resilience::RepairPolicy policy;
  policy.vls = 2;
  TorusSpec spec{{3, 3}, 1, 1};
  resilience::ResilienceManager mgr(make_torus(spec), policy);
  const auto table_before = mgr.table();
  FaultEvent restore_alive;
  restore_alive.kind = FaultEventKind::kLinkRestore;
  restore_alive.id = 0;  // channel 0 is alive — restoring it is illegal
  EXPECT_THROW(mgr.apply(restore_alive), std::logic_error);
  EXPECT_EQ(mgr.epoch(), 1u);
  EXPECT_EQ(mgr.table().get(), table_before.get());
  EXPECT_EQ(mgr.log().records().size(), 1u);
}

TEST(ResilienceManager, HitlessRepairTouchesOnlyAffectedColumns) {
  TorusSpec spec{{3, 3, 3}, 1, 1};
  resilience::RepairPolicy policy;
  policy.vls = 4;
  resilience::ResilienceManager mgr(make_torus(spec), policy);
  const FaultTrace trace =
      draw_fault_trace(mgr.net(), "torus:3x3x3:1", 9, 6, 0.0);
  const std::shared_ptr<const RoutingResult> old = mgr.table();
  for (const FaultEvent& e : trace.events) {
    const TransitionRecord rec = mgr.apply(e);
    if (rec.committed_step != "incremental" || !rec.hitless) continue;
    // An incremental hitless repair must be a real diff: some columns
    // kept, and the kept ones spliced bit-for-bit from the old epoch.
    EXPECT_LT(rec.affected_dests, rec.total_dests) << rec.event;
    const auto now = mgr.table();
    std::vector<NodeId> affected = affected_destinations(mgr.net(), *old);
    std::size_t kept_identical = 0;
    for (NodeId d : now->destinations()) {
      if (!old->is_destination(d)) continue;
      if (std::find(affected.begin(), affected.end(), d) != affected.end())
        continue;
      bool identical = true;
      for (NodeId v = 0; v < mgr.net().num_nodes(); ++v) {
        if (v == d || !mgr.net().node_alive(v)) continue;
        if (now->next(v, now->dest_index(d)) !=
            old->next(v, old->dest_index(d))) {
          identical = false;
          break;
        }
      }
      if (identical) ++kept_identical;
    }
    EXPECT_GT(kept_identical, 0u) << rec.event;
    return;  // one verified hitless incremental repair is enough
  }
  GTEST_SKIP() << "no hitless incremental repair in this trace";
}

TEST(ResilienceManager, LadderDescendsWhenTheEngineCannotDeliver) {
  // DF-SSSP with a single VL cannot break the ring's dependency cycle, and
  // with max_vls == vls there is no more-vls rung: the initial commit must
  // descend to the Nue fallback (which Lemma 3 guarantees for k = 1), and
  // the failed rung's verdict must be on record.
  resilience::RepairPolicy policy;
  policy.engine = resilience::Engine::kDfsssp;
  policy.vls = 1;
  policy.max_vls = 1;
  resilience::ResilienceManager mgr(test::make_ring(6), policy);
  const TransitionRecord& rec = mgr.log().records().front();
  EXPECT_EQ(rec.committed_step, "nue-fallback");
  ASSERT_GE(rec.verdicts.size(), 2u);
  EXPECT_NE(rec.verdicts.front().find("full-recompute"), std::string::npos);
  EXPECT_TRUE(validate_routing(mgr.net(), *mgr.table()).ok());
}

TEST(ResilienceManager, EngineNamesRoundTrip) {
  const std::vector<std::string> names = {
      "nue", "updown", "minhop", "dfsssp", "lash", "torus-qos", "fattree"};
  ASSERT_EQ(kNumEngines, names.size());
  std::vector<std::string> repairs;
  for (std::size_t i = 0; i < names.size(); ++i) {
    const auto e = static_cast<Engine>(i);
    EXPECT_EQ(engine_name(e), names[i]);
    const auto back = engine_from_name(names[i]);
    ASSERT_TRUE(back.has_value()) << names[i];
    EXPECT_EQ(*back, e);
    if (engine_info(e).repairs) repairs.push_back(names[i]);
  }
  EXPECT_EQ(repairs,
            (std::vector<std::string>{"nue", "updown", "dfsssp", "lash"}));
  EXPECT_FALSE(engine_from_name("warp").has_value());
  resilience::RepairPolicy policy;
  policy.engine = Engine::kMinHop;
  try {
    resilience::ResilienceManager mgr(test::make_ring(4), policy);
    ADD_FAILURE() << "minhop accepted as a repair engine";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("unknown repair engine 'minhop'"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace nue
