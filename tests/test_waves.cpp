// Wave-scheduler tests (src/resilience/waves.hpp, docs/RESILIENCE.md):
// the dependency-safe migration schedule that turns a failed union-CDG
// gate into a chain of hitless swaps. Fixture-level tests drive the
// textbook incompatible pair (the ring dateline shift) straight through
// schedule_waves/blend_tables; manager-level tests prove the whole
// apply() chain — intermediate epochs, log records, determinism across
// worker-thread counts — on a drawn churn trace that is known to force
// gate failures.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "resilience/resilience.hpp"
#include "resilience/waves.hpp"
#include "routing/dump.hpp"
#include "routing/validate.hpp"
#include "test_helpers.hpp"
#include "topology/faults.hpp"
#include "topology/torus.hpp"

namespace nue {
namespace {

using test::make_ring;

ChannelId chan(const Network& net, NodeId a, NodeId b) {
  for (ChannelId c : net.out(a)) {
    if (net.dst(c) == b) return c;
  }
  ADD_FAILURE() << "no channel " << a << "->" << b;
  return kInvalidChannel;
}

/// Clockwise per-hop routing on a ring with a 2-VL dateline at `rot` —
/// the same fixture as test_validate.cpp's UnionCdgGate tests: every
/// placement is deadlock-free on its own, but two placements' union
/// closes the ring cycle on VL 0, so the direct gate rejects the pair.
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

bool tables_equal(const Network& net, const RoutingResult& a,
                  const RoutingResult& b) {
  if (a.destinations() != b.destinations()) return false;
  for (std::size_t di = 0; di < a.destinations().size(); ++di) {
    const NodeId d = a.destinations()[di];
    const auto di32 = static_cast<std::uint32_t>(di);
    for (NodeId v = 0; v < net.num_nodes(); ++v) {
      if (v == d) continue;
      if (a.next(v, di32) != b.next(v, di32)) return false;
      if (a.vl(v, v, di32) != b.vl(v, v, di32)) return false;
    }
  }
  return true;
}

/// A real incompatible pair, harvested from the churn trace the manager
/// tests replay: the fabric state plus the committed tables on both sides
/// of the first transition the union gate rejected but the wave scheduler
/// staged. Everything is deterministic (seed 29), so the harvest is a
/// stable fixture, not a flaky probe.
struct HarvestedPair {
  Network net;
  RoutingResult old_rr;
  RoutingResult new_rr;
};

HarvestedPair harvest_gate_failure() {
  TorusSpec spec{{3, 3}, 1, 1};
  Network net = make_torus(spec);
  const FaultTrace trace =
      draw_fault_trace(net, "torus:3x3:1", 29, 300, 0.5);
  resilience::RepairPolicy policy;
  policy.engine = resilience::Engine::kNue;
  policy.vls = 2;
  policy.max_vls = 4;
  policy.seed = 29;
  resilience::ResilienceManager mgr(std::move(net), policy);
  for (const FaultEvent& e : trace.events) {
    const std::shared_ptr<const RoutingResult> before = mgr.table();
    const TransitionRecord rec = mgr.apply(e);
    if (rec.wave_count > 0) {
      // The chain's final table is byte-identical to the candidate the
      // gate rejected against `before`, so (before, final) reproduces
      // the scheduling problem the manager just solved.
      return HarvestedPair{mgr.net(), *before, *mgr.table()};
    }
  }
  ADD_FAILURE() << "trace no longer exercises the wave scheduler";
  Network empty = make_torus(spec);
  RoutingResult rr(empty.num_nodes(), empty.terminals(), 1,
                   VlMode::kPerDest);
  return HarvestedPair{std::move(empty), rr, rr};
}

TEST(WaveScheduler, SchedulesARealGateFailure) {
  const HarvestedPair pair = harvest_gate_failure();
  const Network& net = pair.net;
  const RoutingResult& old_rr = pair.old_rr;
  const RoutingResult& new_rr = pair.new_rr;
  ASSERT_FALSE(union_cdg_acyclic(net, old_rr, new_rr))
      << "harvested pair must fail the direct gate";

  const resilience::WavePlan plan =
      resilience::schedule_waves(net, old_rr, new_rr, 8);
  ASSERT_TRUE(plan.ok()) << plan.failure;
  // A 1-wave schedule would BE the failed direct union.
  ASSERT_GE(plan.waves.size(), 2u);
  EXPECT_LE(plan.waves.size(), 8u);
  EXPECT_GT(plan.changed_dests, 0u);

  // Every changed destination migrates exactly once.
  std::set<NodeId> seen;
  std::size_t scheduled = 0;
  for (const auto& wave : plan.waves) {
    EXPECT_FALSE(wave.empty());
    for (NodeId d : wave) {
      EXPECT_TRUE(seen.insert(d).second) << "destination " << d
                                         << " scheduled twice";
      ++scheduled;
    }
  }
  EXPECT_EQ(scheduled, plan.changed_dests);

  // Walk the chain: every adjacent pair of intermediate tables (old ->
  // blend_1 -> ... -> new) must pass the production union gate the
  // direct pair failed.
  std::vector<std::uint8_t> take_new(new_rr.destinations().size(), 0);
  RoutingResult prev = old_rr;
  for (std::size_t w = 0; w < plan.waves.size(); ++w) {
    for (NodeId d : plan.waves[w]) take_new[new_rr.dest_index(d)] = 1;
    RoutingResult cur =
        w + 1 == plan.waves.size()
            ? new_rr
            : resilience::blend_tables(net, old_rr, new_rr, take_new);
    EXPECT_TRUE(union_cdg_acyclic(net, prev, cur))
        << "wave " << w + 1 << " union has a cycle";
    prev = std::move(cur);
  }
}

TEST(WaveScheduler, BlendWithEverythingMigratedIsTheNewTable) {
  Network net = make_ring(5);
  const RoutingResult old_rr = ring_dateline_routing(net, 0);
  const RoutingResult new_rr = ring_dateline_routing(net, 2);
  const std::vector<std::uint8_t> all(new_rr.destinations().size(), 1);
  const RoutingResult blend =
      resilience::blend_tables(net, old_rr, new_rr, all);
  EXPECT_TRUE(tables_equal(net, blend, new_rr));
  const std::vector<std::uint8_t> none(new_rr.destinations().size(), 0);
  const RoutingResult keep =
      resilience::blend_tables(net, old_rr, new_rr, none);
  EXPECT_TRUE(tables_equal(net, keep, old_rr));
}

// Intermediate tables copy every entry verbatim, dead nodes included:
// a route query that races the chain still walks the old column through
// a switch that just failed. (Repairs copy alive nodes only.)
TEST(WaveScheduler, BlendAndShiftKeepEntriesAtAJustFailedSwitch) {
  Network net = make_ring(5);
  const RoutingResult old_rr = ring_dateline_routing(net, 0);
  const RoutingResult new_rr = ring_dateline_routing(net, 2);
  const NodeId failed = 1;
  net.remove_node(failed);
  const std::vector<std::uint8_t> none(new_rr.destinations().size(), 0);
  const std::vector<std::uint8_t> all(new_rr.destinations().size(), 1);
  const RoutingResult keep =
      resilience::blend_tables(net, old_rr, new_rr, none);
  const RoutingResult take =
      resilience::blend_tables(net, old_rr, new_rr, all);
  const RoutingResult shifted = resilience::shift_vls(old_rr, 2);
  for (std::uint32_t di = 0; di < new_rr.destinations().size(); ++di) {
    const std::uint32_t odi = old_rr.dest_index(new_rr.destinations()[di]);
    ASSERT_NE(old_rr.next(failed, odi), kInvalidChannel);
    EXPECT_EQ(keep.next(failed, di), old_rr.next(failed, odi));
    EXPECT_EQ(keep.vl(failed, failed, di), old_rr.vl(failed, failed, odi));
    EXPECT_EQ(take.next(failed, di), new_rr.next(failed, di));
    EXPECT_EQ(shifted.next(failed, odi), old_rr.next(failed, odi));
    EXPECT_EQ(shifted.vl(failed, failed, odi),
              old_rr.vl(failed, failed, odi) + 2);
  }
}

TEST(WaveScheduler, ReportsBudgetExhaustionDistinctly) {
  Network net = make_ring(6);
  const RoutingResult old_rr = ring_dateline_routing(net, 0);
  const RoutingResult new_rr = ring_dateline_routing(net, 3);
  const resilience::WavePlan plan =
      resilience::schedule_waves(net, old_rr, new_rr, 1);
  EXPECT_FALSE(plan.ok());
  EXPECT_TRUE(plan.waves.empty());
  EXPECT_NE(plan.failure.find("wave budget"), std::string::npos)
      << plan.failure;
}

TEST(WaveScheduler, RejectsVlModeMismatch) {
  Network net = make_ring(4);
  const RoutingResult per_hop = ring_dateline_routing(net, 0);
  RoutingResult per_dest(net.num_nodes(), net.terminals(), 2,
                         VlMode::kPerDest);
  const resilience::WavePlan plan =
      resilience::schedule_waves(net, per_hop, per_dest, 8);
  EXPECT_FALSE(plan.ok());
  EXPECT_NE(plan.failure.find("vl-mode"), std::string::npos) << plan.failure;
}

TEST(WaveScheduler, DatelineShiftFallsBackWithDistinctVerdict) {
  // The textbook ring dateline shift is the scheduler's documented limit:
  // a migrating column keeps its old dependencies through its own wave,
  // so no per-column order can rotate a dateline — every candidate closes
  // the ring on one of the two layers. The scheduler must say so
  // distinctly ("stuck"), which is what routes the manager to the drained
  // fallback instead of silently committing an unsafe union.
  Network net = make_ring(6);
  const RoutingResult old_rr = ring_dateline_routing(net, 0);
  const RoutingResult new_rr = ring_dateline_routing(net, 3);
  ASSERT_TRUE(validate_routing(net, old_rr).ok());
  ASSERT_TRUE(validate_routing(net, new_rr).ok());
  ASSERT_FALSE(union_cdg_acyclic(net, old_rr, new_rr));
  const resilience::WavePlan plan =
      resilience::schedule_waves(net, old_rr, new_rr, 8);
  EXPECT_FALSE(plan.ok());
  EXPECT_TRUE(plan.waves.empty());
  EXPECT_NE(plan.failure.find("stuck"), std::string::npos) << plan.failure;
}

TEST(WaveScheduler, VlShiftMakesAnyPairCompatible) {
  // The escape hatch behind zero-drain storms: even the unschedulable
  // dateline pair becomes a legal 2-epoch chain once the candidate is
  // shifted into disjoint lanes — both adjacent unions are acyclic
  // because they share no (channel, VL) vertex.
  Network net = make_ring(6);
  const RoutingResult old_rr = ring_dateline_routing(net, 0);
  const RoutingResult new_rr = ring_dateline_routing(net, 3);
  ASSERT_FALSE(union_cdg_acyclic(net, old_rr, new_rr));
  const RoutingResult shifted =
      resilience::shift_vls(new_rr, old_rr.num_vls());
  EXPECT_EQ(shifted.num_vls(), old_rr.num_vls() + new_rr.num_vls());
  EXPECT_TRUE(validate_routing(net, shifted).ok());
  EXPECT_TRUE(union_cdg_acyclic(net, old_rr, shifted));
  EXPECT_TRUE(union_cdg_acyclic(net, shifted, new_rr));
  // Routes are untouched — only the lanes move.
  for (std::size_t di = 0; di < new_rr.destinations().size(); ++di) {
    const NodeId d = new_rr.destinations()[di];
    const auto di32 = static_cast<std::uint32_t>(di);
    for (NodeId v = 0; v < net.num_nodes(); ++v) {
      if (v == d) continue;
      ASSERT_EQ(shifted.next(v, di32), new_rr.next(v, di32));
      ASSERT_EQ(shifted.vl(v, v, di32), new_rr.vl(v, v, di32) + 2);
    }
  }
}

TEST(WaveScheduler, ScheduleIsDeterministic) {
  const HarvestedPair pair = harvest_gate_failure();
  const resilience::WavePlan a =
      resilience::schedule_waves(pair.net, pair.old_rr, pair.new_rr, 8);
  const resilience::WavePlan b =
      resilience::schedule_waves(pair.net, pair.old_rr, pair.new_rr, 8);
  ASSERT_TRUE(a.ok()) << a.failure;
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.waves, b.waves);
  EXPECT_EQ(a.changed_dests, b.changed_dests);
  EXPECT_EQ(a.max_affected_wave, b.max_affected_wave);
}

// --- equivalence with the two-Kahn admission --------------------------------

/// The scheduler as it was before the windowed admission check: the same
/// classification and greedy coloring, but a candidate with a back edge
/// is decided by a whole-graph Kahn pass, and a rejected one pays a
/// second pass to restore the order. The reference the production
/// schedule must equal, wave for wave and failure for failure.
resilience::WavePlan reference_schedule(const Network& net,
                                        const RoutingResult& old_rr,
                                        const RoutingResult& new_rr,
                                        std::size_t max_waves) {
  using Edge = ColumnPass::Edge;
  struct TwoKahnGraph {
    explicit TwoKahnGraph(std::size_t n) : adj(n), pos(n, 0) {}
    void add_edges(const std::vector<Edge>& es) {
      for (const Edge& e : es) adj[e.first].push_back(e.second);
    }
    bool recompute_topo() { return is_acyclic(adj, &pos); }
    bool try_add(const std::vector<Edge>& es) {
      bool forward = true;
      for (const Edge& e : es) {
        if (pos[e.first] >= pos[e.second]) {
          forward = false;
          break;
        }
      }
      add_edges(es);
      if (forward) return true;
      if (recompute_topo()) return true;
      for (auto it = es.rbegin(); it != es.rend(); ++it) {
        adj[it->first].pop_back();
      }
      recompute_topo();
      return false;
    }
    std::vector<std::vector<std::uint32_t>> adj;
    std::vector<std::uint32_t> pos;
  };
  const auto column_edges = [](ColumnPass& pass, std::uint32_t di,
                               const std::vector<NodeId>& seeds) {
    pass.run(di, seeds);
    std::vector<Edge> edges = pass.edges();
    std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
    return edges;
  };
  resilience::WavePlan plan;
  if (old_rr.vl_mode() != new_rr.vl_mode()) {
    plan.failure = "vl-mode mismatch between old and new table";
    return plan;
  }
  if (max_waves == 0) {
    plan.failure = "wave budget is zero";
    return plan;
  }
  const std::uint32_t stride =
      std::max(old_rr.num_vls(), new_rr.num_vls()) + 1;
  const std::vector<NodeId> seeds = new_rr.vl_mode() == VlMode::kPerSource
                                        ? net.terminals()
                                        : net.alive_nodes();
  ColumnPass old_pass(net, old_rr, stride, stride - 1);
  ColumnPass new_pass(net, new_rr, stride, stride - 1);
  struct Delta {
    NodeId d = 0;
    bool affected = false;
    std::vector<Edge> e_old, e_new;
  };
  std::vector<Delta> deltas;
  std::vector<Edge> base_edges;
  std::vector<Edge> dropped_edges;
  std::vector<std::uint8_t> broken(net.num_nodes(), 0);
  for (NodeId d : affected_destinations(net, old_rr)) broken[d] = 1;
  for (std::size_t di = 0; di < new_rr.destinations().size(); ++di) {
    const NodeId d = new_rr.destinations()[di];
    const auto di32 = static_cast<std::uint32_t>(di);
    const std::uint32_t old_di = old_rr.dest_index(d);
    if (old_di == RoutingResult::kNoDest) {
      deltas.push_back({d, true, {}, column_edges(new_pass, di32, seeds)});
      continue;
    }
    if (new_rr.same_column(net, di32, old_rr, old_di)) {
      const std::vector<Edge> es = column_edges(new_pass, di32, seeds);
      base_edges.insert(base_edges.end(), es.begin(), es.end());
      continue;
    }
    deltas.push_back({d, broken[d] != 0, column_edges(old_pass, old_di, seeds),
                      column_edges(new_pass, di32, seeds)});
  }
  std::size_t dropped = 0;
  for (std::size_t di = 0; di < old_rr.destinations().size(); ++di) {
    if (new_rr.is_destination(old_rr.destinations()[di])) continue;
    ++dropped;
    const std::vector<Edge> es =
        column_edges(old_pass, static_cast<std::uint32_t>(di), seeds);
    dropped_edges.insert(dropped_edges.end(), es.begin(), es.end());
  }
  plan.changed_dests = deltas.size() + dropped;
  if (deltas.empty()) {
    plan.failure = "no changed columns to migrate";
    return plan;
  }
  std::stable_sort(deltas.begin(), deltas.end(),
                   [](const Delta& a, const Delta& b) {
                     if (a.affected != b.affected) return a.affected;
                     return a.d < b.d;
                   });
  std::vector<std::uint8_t> migrated(deltas.size(), 0);
  std::size_t remaining = deltas.size();
  while (remaining > 0) {
    if (plan.waves.size() >= max_waves) {
      std::ostringstream os;
      os << "wave budget exhausted: " << remaining
         << " columns unscheduled after " << plan.waves.size() << " waves";
      plan.failure = os.str();
      plan.waves.clear();
      return plan;
    }
    TwoKahnGraph g(net.num_channels() * stride);
    g.add_edges(base_edges);
    if (plan.waves.empty()) g.add_edges(dropped_edges);
    for (std::size_t i = 0; i < deltas.size(); ++i) {
      g.add_edges(migrated[i] ? deltas[i].e_new : deltas[i].e_old);
    }
    if (!g.recompute_topo()) {
      plan.failure = "intermediate dependency graph cyclic before the wave";
      plan.waves.clear();
      return plan;
    }
    std::vector<NodeId> wave;
    bool wave_affected = false;
    for (std::size_t i = 0; i < deltas.size(); ++i) {
      if (migrated[i] || !g.try_add(deltas[i].e_new)) continue;
      migrated[i] = 1;
      --remaining;
      wave.push_back(deltas[i].d);
      wave_affected = wave_affected || deltas[i].affected;
    }
    if (wave.empty()) {
      std::ostringstream os;
      os << "stuck: none of the " << remaining
         << " remaining columns admissible in wave "
         << plan.waves.size() + 1;
      plan.failure = os.str();
      plan.waves.clear();
      return plan;
    }
    std::sort(wave.begin(), wave.end());
    plan.waves.push_back(std::move(wave));
    if (wave_affected) plan.max_affected_wave = plan.waves.size();
  }
  return plan;
}

// Storm pairs: every committed transition of drawn fault/repair storms,
// plus pairs three epochs apart (wider deltas, more stuck verdicts), each
// scheduled at a tight and at the manager's wave budget.
TEST(WaveScheduler, MatchesTheTwoKahnReferenceOnStormPairs) {
  struct Epoch {
    Network net;
    RoutingResult rr;
  };
  std::size_t pairs = 0, scheduled = 0, failed = 0;
  for (resilience::Engine engine :
       {resilience::Engine::kNue, resilience::Engine::kUpDown}) {
    for (std::uint64_t seed : {29u, 30u}) {
      TorusSpec spec{{4, 4}, 1, 1};
      Network net = make_torus(spec);
      const FaultTrace trace =
          draw_fault_trace(net, "torus:4x4:1", seed, 40, 0.5);
      resilience::RepairPolicy policy;
      policy.engine = engine;
      policy.vls = 2;
      policy.max_vls = 4;
      policy.seed = seed;
      resilience::ResilienceManager mgr(std::move(net), policy);
      std::vector<Epoch> epochs;
      mgr.set_commit_hook([&epochs](const Network& n, const RoutingResult*,
                                    const RoutingResult& rr,
                                    const TransitionRecord&) {
        epochs.push_back({n, rr});
      });
      mgr.replay(trace);
      for (std::size_t i = 1; i < epochs.size(); ++i) {
        for (std::size_t back : {std::size_t{1}, std::size_t{3}}) {
          if (back > i) continue;
          const Network& n = epochs[i].net;
          const RoutingResult& old_rr = epochs[i - back].rr;
          const RoutingResult& new_rr = epochs[i].rr;
          for (std::size_t budget : {std::size_t{2}, resilience::kMaxWaves}) {
            const resilience::WavePlan got =
                resilience::schedule_waves(n, old_rr, new_rr, budget);
            const resilience::WavePlan want =
                reference_schedule(n, old_rr, new_rr, budget);
            EXPECT_EQ(got.waves, want.waves) << "epoch " << i;
            EXPECT_EQ(got.failure, want.failure) << "epoch " << i;
            EXPECT_EQ(got.changed_dests, want.changed_dests);
            EXPECT_EQ(got.max_affected_wave, want.max_affected_wave);
            ++pairs;
            ++(want.ok() && want.waves.size() >= 2 ? scheduled : failed);
          }
        }
      }
    }
  }
  EXPECT_GT(pairs, 0u);
  // Multi-wave schedules and failures both occur.
  EXPECT_GT(scheduled, 0u);
  EXPECT_GT(failed, 0u);
}

// --- manager-level: the multi-epoch apply() chain ---------------------------

/// One churn replay at the given worker-thread count, recording per-epoch
/// evidence: the final table dump plus a line per committed record.
struct ChurnRun {
  std::vector<std::string> record_lines;
  std::string final_dump;
  std::size_t wave_chains = 0;
  std::size_t drains = 0;
};

ChurnRun run_churn(std::uint32_t threads, std::size_t events) {
  TorusSpec spec{{3, 3}, 1, 1};
  Network net = make_torus(spec);
  const FaultTrace trace =
      draw_fault_trace(net, "torus:3x3:1", 29, events, 0.5);
  resilience::RepairPolicy policy;
  policy.engine = resilience::Engine::kNue;
  policy.vls = 2;
  policy.max_vls = 4;
  policy.seed = 29;
  policy.num_threads = threads;
  resilience::ResilienceManager mgr(std::move(net), policy);
  ChurnRun run;
  for (const FaultEvent& e : trace.events) {
    const TransitionRecord rec = mgr.apply(e);
    if (rec.wave_count > 0) ++run.wave_chains;
    if (rec.drained) ++run.drains;
  }
  for (const TransitionRecord& r : mgr.log().records()) {
    std::ostringstream os;
    os << r.epoch << " " << r.event << " " << r.committed_step << " "
       << r.hitless << r.drained << " " << r.wave_index << "/"
       << r.wave_count;
    run.record_lines.push_back(os.str());
  }
  std::ostringstream dump;
  write_forwarding_tables(dump, mgr.net(), *mgr.table());
  run.final_dump = dump.str();
  return run;
}

TEST(WaveScheduler, ManagerChainIsDeterministicAcrossThreadCounts) {
  // The same trace that the churn regression runs: seed 29 on torus:3x3:1
  // forces union-gate failures within the first few hundred events, so
  // this exercises real wave chains, not just the hitless fast path. The
  // PR-1 determinism contract extends to the wave path: identical epoch/
  // record sequences and a byte-identical final table at any thread
  // count.
  const ChurnRun one = run_churn(1, 300);
  ASSERT_GT(one.wave_chains, 0u)
      << "trace no longer exercises the wave scheduler";
  for (std::uint32_t threads : {4u, 8u}) {
    const ChurnRun other = run_churn(threads, 300);
    EXPECT_EQ(other.record_lines, one.record_lines) << threads << " threads";
    EXPECT_EQ(other.final_dump, one.final_dump) << threads << " threads";
    EXPECT_EQ(other.wave_chains, one.wave_chains);
    EXPECT_EQ(other.drains, one.drains);
  }
}

TEST(WaveScheduler, ResyncConvergesToOfflineRecompute) {
  // resync() after churn must land byte-identical to a fresh manager
  // built on an identically mutated fabric — the storm bench's
  // convergence anchor.
  TorusSpec spec{{3, 3}, 1, 1};
  Network net = make_torus(spec);
  const FaultTrace trace = draw_fault_trace(net, "torus:3x3:1", 41, 60, 0.5);
  resilience::RepairPolicy policy;
  policy.engine = resilience::Engine::kNue;
  policy.vls = 2;
  policy.max_vls = 4;
  policy.seed = 41;
  resilience::ResilienceManager mgr(net, policy);
  for (const FaultEvent& e : trace.events) mgr.apply(e);
  const TransitionRecord rec = mgr.resync();
  EXPECT_EQ(rec.event, "resync");
  EXPECT_TRUE(rec.hitless || rec.drained);

  Network offline = make_torus(spec);
  for (const FaultEvent& e : trace.events) apply_fault_event(offline, e);
  resilience::ResilienceManager fresh(std::move(offline), policy);
  std::ostringstream live_dump, fresh_dump;
  write_forwarding_tables(live_dump, mgr.net(), *mgr.table());
  write_forwarding_tables(fresh_dump, fresh.net(), *fresh.table());
  EXPECT_EQ(live_dump.str(), fresh_dump.str());
}

TEST(WaveScheduler, DisabledPolicyDrainsExactlyWhereWavesSaved) {
  // The baseline the bench records: with enable_waves off, every chain
  // the scheduler would have staged becomes a logged drain. Same trace,
  // two managers, differential.
  TorusSpec spec{{3, 3}, 1, 1};
  Network net = make_torus(spec);
  const FaultTrace trace =
      draw_fault_trace(net, "torus:3x3:1", 29, 300, 0.5);
  resilience::RepairPolicy waves_on;
  waves_on.engine = resilience::Engine::kNue;
  waves_on.vls = 2;
  waves_on.max_vls = 4;
  waves_on.seed = 29;
  resilience::RepairPolicy waves_off = waves_on;
  waves_off.enable_waves = false;
  resilience::ResilienceManager on(net, waves_on);
  resilience::ResilienceManager off(net, waves_off);
  std::size_t saved = 0, drained_on = 0, drained_off = 0;
  for (const FaultEvent& e : trace.events) {
    const TransitionRecord ron = on.apply(e);
    const TransitionRecord roff = off.apply(e);
    if (ron.wave_count > 0) ++saved;
    if (ron.drained) ++drained_on;
    if (roff.drained) ++drained_off;
    EXPECT_FALSE(ron.drained && ron.wave_count > 0)
        << "a record cannot be both waved and drained";
  }
  ASSERT_GT(saved, 0u) << "trace no longer exercises the wave scheduler";
  EXPECT_EQ(drained_on, 0u)
      << "every gate failure on this trace should be wave-schedulable";
  EXPECT_GE(drained_off, saved)
      << "with waves off, each saved chain must fall back to a drain";
  EXPECT_EQ(off.log().summarize().waved, 0u);
  EXPECT_EQ(on.log().summarize().waved, saved);
}

}  // namespace
}  // namespace nue
