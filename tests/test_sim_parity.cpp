// Differential parity suite: the discrete-event engine against the
// cycle-based baseline. The two implementations share the hardware model
// (flit_sim.hpp) but almost no code; verdict or delivery disagreement
// means one of them is wrong. Deterministic tables push every flit down
// the same path in both engines, so on completing runs the delivered
// packets/bytes AND total flit hops must match exactly — only cycle
// counts may differ (the event engine releases credits at t+1 where the
// cycle engine's in-cycle scan could reuse them at t).
#include <gtest/gtest.h>

#include <filesystem>

#include "fuzz/fuzz.hpp"
#include "nue/nue_routing.hpp"
#include "routing/dfsssp.hpp"
#include "routing/validate.hpp"
#include "sim/flit_sim.hpp"
#include "sim/traffic.hpp"
#include "test_helpers.hpp"
#include "topology/faults.hpp"
#include "topology/misc_topologies.hpp"
#include "topology/torus.hpp"
#include "util/rng.hpp"

namespace nue {
namespace {

using test::make_ring;

SimConfig parity_config() {
  SimConfig cfg;
  cfg.max_cycles = 5'000'000;
  cfg.deadlock_cycles = 10'000;
  return cfg;
}

void expect_parity(const Network& net, const RoutingResult& rr,
                   const std::vector<Message>& msgs, const SimConfig& cfg,
                   const std::string& what) {
  const SimResult ev = simulate(net, rr, msgs, cfg);
  const SimResult cy = simulate_cycle(net, rr, msgs, cfg);
  EXPECT_EQ(ev.completed, cy.completed) << what;
  EXPECT_EQ(ev.deadlocked, cy.deadlocked) << what;
  if (ev.completed && cy.completed) {
    EXPECT_EQ(ev.delivered_packets, cy.delivered_packets) << what;
    EXPECT_EQ(ev.delivered_bytes, cy.delivered_bytes) << what;
    EXPECT_EQ(ev.flit_hops, cy.flit_hops) << what;
  }
}

TEST(SimParity, Fig01TorusSaturationAndPatterns) {
  // The Fig. 1a fabric: 4x4x3 torus, 4 terminals per switch, one failed
  // switch — the paper's motivating experiment, under both saturation
  // all-to-all and adversarial pattern traffic.
  TorusSpec spec{{4, 4, 3}, 4, 1};
  Network net = make_torus(spec);
  Rng rng(2016);
  ASSERT_EQ(inject_switch_failures(net, 1, rng), 1u);
  NueOptions opt;
  opt.num_vls = 4;
  const auto rr = route_nue(net, net.terminals(), opt);
  const auto cfg = parity_config();
  expect_parity(net, rr, alltoall_shift_messages(net, 2048, 4), cfg,
                "fig01 alltoall");
  expect_parity(net, rr, pattern_messages(net, TrafficPattern::kTornado, 2048),
                cfg, "fig01 tornado");
}

TEST(SimParity, DragonflySaturationAndPatterns) {
  DragonflySpec spec{4, 2, 2, 5};  // 20 switches, 40 terminals
  Network net = make_dragonfly(spec);
  NueOptions opt;
  opt.num_vls = 2;
  const auto rr = route_nue(net, net.terminals(), opt);
  const auto cfg = parity_config();
  expect_parity(net, rr, alltoall_shift_messages(net, 1024, 6), cfg,
                "dragonfly alltoall");
  expect_parity(net, rr,
                pattern_messages(net, TrafficPattern::kTranspose, 1024), cfg,
                "dragonfly transpose");
  Rng rng(7);
  expect_parity(net, rr, uniform_random_messages(net, 300, 512, rng), cfg,
                "dragonfly uniform");
}

TEST(SimParity, DeadlockVerdictsAgreeOnCyclicRouting) {
  Network net = make_ring(6, 2);
  const auto rr = route_minhop(net, net.terminals());
  ASSERT_FALSE(validate_routing(net, rr).deadlock_free);
  auto cfg = parity_config();
  cfg.deadlock_cycles = 5000;
  cfg.buffer_flits = 2;
  const auto msgs = alltoall_shift_messages(net, 4096);
  const SimResult ev = simulate(net, rr, msgs, cfg);
  const SimResult cy = simulate_cycle(net, rr, msgs, cfg);
  EXPECT_TRUE(ev.deadlocked);
  EXPECT_TRUE(cy.deadlocked);
  EXPECT_EQ(ev.completed, cy.completed);
}

TEST(SimParity, AdaptiveEnginesAgreeOnVerdicts) {
  // Adaptive routing makes per-engine choices, so hop counts legitimately
  // differ — but both engines must complete (the escape lane guarantee).
  Network net = make_ring(6, 2);
  const auto escape = route_nue(net, net.terminals(), NueOptions{});
  auto cfg = parity_config();
  cfg.buffer_flits = 2;
  const auto msgs = alltoall_shift_messages(net, 4096);
  const SimResult ev = simulate_adaptive(net, escape, 2, msgs, cfg);
  const SimResult cy = simulate_adaptive_cycle(net, escape, 2, msgs, cfg);
  EXPECT_TRUE(ev.completed);
  EXPECT_TRUE(cy.completed);
  EXPECT_EQ(ev.delivered_bytes, cy.delivered_bytes);
}

TEST(SimParity, CorpusScenarioVerdictsAgree) {
  // Every shipped reproducer, replayed with the deliberate table breakage
  // stripped: whenever its scenario yields a simulatable table (the same
  // static gate the fuzzer's oracle applies), both engines must agree on
  // the verdict and, on completion, the delivered totals.
  const std::filesystem::path dir = NUE_TEST_CORPUS_DIR;
  ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
  const auto cfg = parity_config();
  std::size_t checked = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".repro") continue;
    const fuzz::Reproducer r =
        fuzz::load_reproducer_file(entry.path().string());
    fuzz::ScenarioSpec spec = r.spec;
    spec.mutation = fuzz::Mutation::kNone;
    const fuzz::ScenarioBuild build = fuzz::build_scenario(spec, r.removals);
    const fuzz::EngineOutcome engine = fuzz::run_engine(spec, build);
    if (!engine.rr.has_value()) continue;
    const auto val = validate_routing(build.net, *engine.rr);
    if (!val.connected || !val.cycle_free || !val.vl_in_range ||
        build.net.num_alive_terminals() < 2) {
      continue;
    }
    expect_parity(build.net, *engine.rr,
                  alltoall_shift_messages(build.net, 256, 4), cfg,
                  entry.path().filename().string());
    ++checked;
  }
  EXPECT_GE(checked, 2u);
}

TEST(SimParity, OracleCrossChecksEnginesBydefault) {
  fuzz::ScenarioSpec spec;
  spec.seed = 4;
  spec.generate = "torus:3x3:1";
  spec.engine = Engine::kNue;
  spec.vls = 2;
  const fuzz::OracleReport rep = fuzz::run_scenario(spec);
  EXPECT_TRUE(rep.ok()) << (rep.violations.empty()
                                ? ""
                                : rep.violations.front());
  EXPECT_TRUE(rep.sim_checked);
  EXPECT_TRUE(rep.engines_cross_checked);
}

}  // namespace
}  // namespace nue
