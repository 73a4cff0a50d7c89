// Fuzzer pipeline tests: the oracle on clean scenarios, achieved-fault
// accounting, deliberately broken tables being caught -> minimized ->
// serialized -> replayed, and the reproducer corpus shipped with the repo.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <sstream>

#include "fuzz/fuzz.hpp"
#include "resilience/resilience.hpp"
#include "routing/updown.hpp"
#include "sim/flit_sim.hpp"
#include "test_helpers.hpp"
#include "topology/faults.hpp"
#include "topology/generate.hpp"

namespace nue::fuzz {
namespace {

TEST(FuzzOracle, SmokeSubsetClean) {
  // A spread of the fixed-seed CI corpus (the full corpus runs as the
  // route_fuzz --smoke ctest); every scenario must pass every invariant.
  const auto specs = smoke_corpus(1);
  std::vector<ScenarioSpec> subset;
  for (std::size_t i = 0; i < specs.size(); i += 7) subset.push_back(specs[i]);
  const auto outcomes = run_batch(subset);
  for (const auto& o : outcomes) {
    EXPECT_TRUE(o.report.ok())
        << o.spec.label() << ": "
        << (o.report.violations.empty() ? "" : o.report.violations.front());
  }
}

TEST(FuzzOracle, RecordsAchievedFaultShortfall) {
  // 5 switches, 4 links = a spanning tree: every switch-to-switch link is
  // a bridge, so no link failure is injectable. The scenario must succeed
  // while reporting achieved < requested rather than pretending the
  // requested fault count happened (the silent-shortfall bugfix).
  ScenarioSpec s;
  s.seed = 5;
  s.generate = "random:5:4:1:7";
  s.engine = Engine::kUpDown;
  s.vls = 1;
  s.fail_links = 3;
  ScenarioBuild b;
  const OracleReport rep = run_scenario(s, {}, {}, &b);
  EXPECT_TRUE(rep.ok());
  EXPECT_EQ(b.link_faults, 0u);
  EXPECT_LT(b.link_faults, s.fail_links);
  EXPECT_FALSE(b.degraded);
}

TEST(FuzzOracle, NueFailureIsAViolationButDfssspFailureIsNot) {
  // DFSSSP with a 1-VL budget on a 4x4 torus legally declines
  // (RoutingFailure -> inapplicable); the same outcome from Nue would
  // break its paper contract and must be flagged.
  ScenarioSpec s;
  s.seed = 3;
  s.generate = "torus:4x4:1";
  s.engine = Engine::kDfsssp;
  s.vls = 1;
  const OracleReport rep = run_scenario(s);
  EXPECT_TRUE(rep.ok());
  EXPECT_FALSE(rep.applicable);
  EXPECT_FALSE(rep.engine_error.empty());
}

// The oracle checks minimality only where the catalogue row promises it:
// one Up*/Down* table that detours on a ring is a violation when the spec
// names MinHop or DFSSSP, and clean when it names Nue or Up*/Down*.
TEST(FuzzOracle, NonMinimalVerdictFollowsTheCatalogue) {
  constexpr std::uint32_t kSwitches = 6;
  ScenarioBuild build;
  build.net = test::make_ring(kSwitches);
  const Network& net = build.net;
  EngineOutcome routed;
  routed.rr = route_updown(net, net.terminals());
  // Per-pair count against the ring distance: a terminal route takes the
  // two access links plus the shorter way round the ring.
  std::size_t detours = 0;
  for (NodeId d : routed.rr->destinations()) {
    for (NodeId s : net.terminals()) {
      if (s == d) continue;
      const std::uint32_t a = net.terminal_switch(s);
      const std::uint32_t b = net.terminal_switch(d);
      const std::uint32_t gap = a > b ? a - b : b - a;
      const std::size_t shortest = std::min(gap, kSwitches - gap) + 2;
      if (routed.rr->trace(net, s, d).size() > shortest) ++detours;
    }
  }
  ASSERT_GT(detours, 0u) << "Up*/Down* took no detour on the ring";
  OracleConfig cfg;
  cfg.max_sim_nodes = 0;
  ScenarioSpec spec;
  spec.generate = "ring";
  spec.vls = 1;
  for (Engine e : {Engine::kMinHop, Engine::kDfsssp}) {
    spec.engine = e;
    const OracleReport rep = check_scenario(spec, build, routed, cfg);
    EXPECT_EQ(violation_kind(rep), "non-minimal-path") << engine_name(e);
    EXPECT_TRUE(rep.minimality_checked) << engine_name(e);
    EXPECT_EQ(rep.nonminimal_paths, detours) << engine_name(e);
  }
  for (Engine e : {Engine::kNue, Engine::kUpDown}) {
    spec.engine = e;
    const OracleReport rep = check_scenario(spec, build, routed, cfg);
    EXPECT_TRUE(rep.ok()) << engine_name(e) << ": " << violation_kind(rep);
    EXPECT_FALSE(rep.minimality_checked) << engine_name(e);
  }
}

// Scenario 172 of `route_fuzz --count 300 --seed 77`, shrunk by the
// minimizer: MinHop on a faulted Dragonfly, whose CDG is cyclic. The
// event engine completes the oracle's all-to-all and the cycle engine
// deadlocks on it. Neither engine is wrong: which of two same-cycle moves
// goes first decides whether the cyclic wait closes, and the event engine
// itself deadlocks when its same-cycle work is served in another order.
TEST(FuzzOracle, CyclicTableMayCompleteOnlyOnTheEventEngine) {
  ScenarioSpec spec;
  spec.seed = 3584424146464372948ull;
  spec.generate = "dragonfly:4:2:1:5";
  spec.engine = Engine::kMinHop;
  spec.vls = 2;
  spec.fail_links = 1;
  // The minimizer's removals, in order: (is_switch, id).
  const std::vector<Removal> removals = {
      {true, 0},   {true, 8},   {true, 9},   {true, 11},  {false, 6},
      {false, 12}, {false, 54}, {false, 56}, {false, 58}, {false, 20},
      {true, 18},  {false, 10}, {false, 16}, {false, 42}, {false, 36},
      {false, 38}, {true, 2},   {true, 4},   {true, 1}};
  ScenarioBuild build;
  const OracleReport rep = run_scenario(spec, removals, {}, &build);
  EXPECT_TRUE(rep.ok()) << (rep.ok() ? "" : rep.violations.front());
  EXPECT_FALSE(rep.validation.deadlock_free);
  EXPECT_TRUE(rep.engines_cross_checked);
  EXPECT_TRUE(rep.sim_completed);

  // Both engines on the oracle's traffic; the event engine's run is
  // pinned exactly.
  const EngineOutcome routed = run_engine(spec, build);
  ASSERT_TRUE(routed.rr.has_value());
  SimConfig cfg;
  cfg.max_cycles = 5'000'000;
  cfg.deadlock_cycles = 10'000;
  const auto msgs = alltoall_shift_messages(build.net, 256, 4);
  const SimResult event = simulate(build.net, *routed.rr, msgs, cfg);
  const SimResult cycle = simulate_cycle(build.net, *routed.rr, msgs, cfg);
  EXPECT_TRUE(event.completed);
  EXPECT_EQ(event.cycles, 129u);
  EXPECT_EQ(event.flit_hops, 2075u);
  EXPECT_EQ(event.events_processed, 3791u);
  EXPECT_TRUE(cycle.deadlocked);
  EXPECT_EQ(sim_engine_divergence(event, cycle, false), "");
  // On an acyclic table the same pair is a divergence, and so is the
  // opposite pair on any table.
  EXPECT_NE(sim_engine_divergence(event, cycle, true), "");
  EXPECT_NE(sim_engine_divergence(cycle, event, false), "");
  EXPECT_EQ(sim_engine_divergence(event, event, true), "");
  SimResult short_by_one = event;
  --short_by_one.delivered_packets;
  EXPECT_NE(sim_engine_divergence(event, short_by_one, false), "");
}

TEST(FuzzBatch, ThreadCountInvariant) {
  std::vector<ScenarioSpec> specs;
  for (std::uint64_t i = 0; i < 12; ++i) specs.push_back(draw_scenario(3, i));
  FuzzConfig serial;
  serial.threads = 1;
  FuzzConfig wide;
  wide.threads = 8;
  const auto a = run_batch(specs, serial);
  const auto b = run_batch(specs, wide);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].link_faults, b[i].link_faults) << i;
    EXPECT_EQ(a[i].switch_faults, b[i].switch_faults) << i;
    EXPECT_EQ(violation_kind(a[i].report), violation_kind(b[i].report)) << i;
    EXPECT_EQ(a[i].report.violations.size(), b[i].report.violations.size())
        << i;
  }
}

TEST(FuzzRepro, VlOverflowCaughtMinimizedReplayed) {
  // The acceptance pipeline: a deliberately broken table (VL overflow
  // grafted onto Nue's output) is caught by the oracle, shrunk by the
  // minimizer, serialized, parsed back, and replays to the same verdict.
  ScenarioSpec spec;
  spec.seed = 21;
  spec.generate = "torus:3x3:1";
  spec.engine = Engine::kNue;
  spec.vls = 2;
  spec.mutation = Mutation::kVlOverflow;
  const OracleReport rep = run_scenario(spec);
  ASSERT_FALSE(rep.ok());
  EXPECT_EQ(violation_kind(rep), "vl-overflow");

  MinimizeConfig mcfg;
  mcfg.max_trials = 200;
  const Reproducer r = minimize_scenario(spec, mcfg);
  EXPECT_EQ(r.expect, "vl-overflow");
  EXPECT_FALSE(r.removals.empty());
  const auto original = build_scenario(spec);
  const auto shrunk = build_scenario(spec, r.removals);
  EXPECT_LT(shrunk.net.num_alive_nodes(), original.net.num_alive_nodes());

  std::stringstream buf;
  write_reproducer(buf, r);
  const Reproducer parsed = read_reproducer(buf);
  EXPECT_EQ(parsed.spec.generate, spec.generate);
  EXPECT_EQ(parsed.spec.seed, spec.seed);
  EXPECT_EQ(parsed.spec.mutation, spec.mutation);
  EXPECT_EQ(parsed.removals.size(), r.removals.size());
  const ReplayResult res = replay(parsed);
  EXPECT_TRUE(res.reproduced)
      << "expected " << parsed.expect << ", got "
      << violation_kind(res.report);
  EXPECT_TRUE(res.fabric_matches);
}

TEST(FuzzRepro, DropEntryCaughtMinimizedReplayed) {
  ScenarioSpec spec;
  spec.seed = 8;
  spec.generate = "hyperx:3x3:1";
  spec.engine = Engine::kUpDown;
  spec.vls = 1;
  spec.mutation = Mutation::kDropEntry;
  const OracleReport rep = run_scenario(spec);
  ASSERT_FALSE(rep.ok());
  EXPECT_EQ(violation_kind(rep), "unreachable");

  MinimizeConfig mcfg;
  mcfg.max_trials = 200;
  const Reproducer r = minimize_scenario(spec, mcfg);
  std::stringstream buf;
  write_reproducer(buf, r);
  const ReplayResult res = replay(read_reproducer(buf));
  EXPECT_TRUE(res.reproduced);
  EXPECT_TRUE(res.fabric_matches);
}

TEST(FuzzRepro, ShippedCorpusReplays) {
  // The .repro files committed under tests/corpus/ — regressions caught,
  // minimized, and written by route_fuzz — must keep replaying to their
  // recorded violation kind on the byte-identical regenerated fabric.
  const std::filesystem::path dir = NUE_TEST_CORPUS_DIR;
  ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
  std::size_t replayed = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".repro") continue;
    const Reproducer r = load_reproducer_file(entry.path().string());
    const ReplayResult res = replay(r);
    EXPECT_TRUE(res.reproduced)
        << entry.path() << ": expected " << r.expect << ", got "
        << violation_kind(res.report);
    EXPECT_TRUE(res.fabric_matches) << entry.path();
    ++replayed;
  }
  EXPECT_GE(replayed, 3u);
}

TEST(FuzzRepro, ShippedUnionGateTraceForcesAGateFailure) {
  // The adversarial fault trace committed under tests/corpus/ — the
  // shortest prefix of a churn storm whose last event makes the union CDG
  // of the active and the repaired table cyclic. Replayed here on both
  // sides of the wave scheduler: with waves disabled the gate failure
  // must drain (the trace stays adversarial), with waves enabled the same
  // transition must commit as a zero-drain migration chain.
  const std::filesystem::path path =
      std::filesystem::path(NUE_TEST_CORPUS_DIR) / "torus-3x3-union-gate.trace";
  ASSERT_TRUE(std::filesystem::is_regular_file(path)) << path;
  const FaultTrace trace = load_fault_trace_file(path.string());
  EXPECT_EQ(trace.generate, "torus:3x3:1");
  ASSERT_FALSE(trace.events.empty());

  resilience::RepairPolicy pol;
  pol.engine = resilience::Engine::kNue;
  pol.vls = 2;
  pol.max_vls = 4;
  pol.seed = trace.seed;
  pol.num_threads = 1;

  resilience::RepairPolicy baseline = pol;
  baseline.enable_waves = false;
  resilience::ResilienceManager drained(generate_topology(trace.generate).net,
                                        baseline);
  drained.replay(trace);
  const auto off = drained.log().summarize();
  EXPECT_GT(off.drained, 0u) << "trace no longer forces a gate failure";
  EXPECT_EQ(off.waved, 0u);

  resilience::ResilienceManager waved(generate_topology(trace.generate).net,
                                      pol);
  const auto records = waved.replay(trace);
  const auto on = waved.log().summarize();
  EXPECT_EQ(on.drained, 0u);
  EXPECT_GT(on.waved, 0u);
  EXPECT_GE(on.wave_commits, 2 * on.waved);
  // The harvested prefix ends on the gate-failure event, so the replay's
  // last record is a chain final.
  ASSERT_FALSE(records.empty());
  EXPECT_GT(records.back().wave_count, 0u);
  EXPECT_EQ(records.back().wave_index, records.back().wave_count);
  EXPECT_FALSE(records.back().drained);
}

TEST(FuzzRepro, RejectsMalformedFiles) {
  std::stringstream not_a_repro("fabric v0\n");
  EXPECT_THROW(read_reproducer(not_a_repro), std::logic_error);
  std::stringstream bad_engine(
      "route_fuzz-repro v1\nseed 1\ngenerate torus:2x2:1\nengine warp\n"
      "expect vl-overflow\n");
  EXPECT_THROW(read_reproducer(bad_engine), std::logic_error);
}

TEST(FuzzScenario, UnsafeRemovalsThrow) {
  ScenarioSpec s;
  s.seed = 1;
  s.generate = "torus:2x2:1";
  s.engine = Engine::kMinHop;
  s.vls = 1;
  const auto base = build_scenario(s);
  // Removing a terminal access link is never a legal shrink step.
  ChannelId access = kInvalidChannel;
  for (ChannelId c = 0; c < base.net.num_channels(); c += 2) {
    if (base.net.is_terminal(base.net.src(c)) ||
        base.net.is_terminal(base.net.dst(c))) {
      access = c;
      break;
    }
  }
  ASSERT_NE(access, kInvalidChannel);
  EXPECT_THROW(build_scenario(s, {{false, access}}), std::logic_error);
  // A dead id is rejected, not silently skipped.
  EXPECT_THROW(build_scenario(s, {{true, 0}, {true, 0}}), std::logic_error);
}

}  // namespace
}  // namespace nue::fuzz
