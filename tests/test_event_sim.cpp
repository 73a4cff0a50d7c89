// The discrete-event engine's own contract: event accounting, instant
// deadlock detection, timed/incremental injection, idle-time skipping,
// and the wall-clock budget. Cross-engine equivalence lives in
// test_sim_parity.cpp.
#include <gtest/gtest.h>

#include "nue/nue_routing.hpp"
#include "routing/dfsssp.hpp"
#include "routing/validate.hpp"
#include "sim/event_sim.hpp"
#include "sim/scenario.hpp"
#include "sim/traffic.hpp"
#include "test_helpers.hpp"
#include "topology/faults.hpp"
#include "topology/generate.hpp"
#include "util/rng.hpp"

namespace nue {
namespace {

using test::make_line;
using test::make_ring;

SimConfig quick_config() {
  SimConfig cfg;
  cfg.deadlock_cycles = 5000;
  cfg.max_cycles = 2'000'000;
  return cfg;
}

TEST(EventSim, ReportsEventAccounting) {
  Network net = make_ring(6, 2);
  const auto rr = route_nue(net, net.terminals(), NueOptions{});
  const auto msgs = alltoall_shift_messages(net, 1024);
  const auto res = simulate(net, rr, msgs, quick_config());
  ASSERT_TRUE(res.completed);
  // Every flit movement is at least one work event, plus arrivals.
  EXPECT_GE(res.events_processed, res.flit_hops);
  EXPECT_GT(res.queue_peak, 0u);
}

TEST(EventSim, DetectsDeadlockInstantly) {
  // MinHop on a ring has a cyclic CDG; the cycle engine needs its
  // deadlock_cycles watchdog to expire before it can report the hang. The
  // event engine's queue drains the moment the cyclic wait closes, so the
  // reported cycle count stays far below the watchdog horizon.
  Network net = make_ring(6, 2);
  const auto rr = route_minhop(net, net.terminals());
  ASSERT_FALSE(validate_routing(net, rr).deadlock_free);
  auto cfg = quick_config();
  cfg.buffer_flits = 2;
  const auto msgs = alltoall_shift_messages(net, 4096);
  const auto event = simulate(net, rr, msgs, cfg);
  ASSERT_TRUE(event.deadlocked);
  EXPECT_LT(event.cycles, cfg.deadlock_cycles);
  const auto cycle = simulate_cycle(net, rr, msgs, cfg);
  ASSERT_TRUE(cycle.deadlocked);
  EXPECT_GE(cycle.cycles, cfg.deadlock_cycles);
}

TEST(EventSim, SkipsIdleStretches) {
  // One short message scheduled far in the future: simulated time must
  // cover the gap while the event count stays at the cost of the flits
  // actually moved (a cycle engine would pay ~100k idle scans).
  Network net = make_line(3);
  const auto rr = route_minhop(net, net.terminals());
  EventSimulator sim(net, rr, quick_config());
  sim.inject({net.terminals()[0], net.terminals()[2], 128}, 100'000);
  ASSERT_EQ(sim.run(), SimRunStatus::kCompleted);
  const auto res = sim.result();
  EXPECT_TRUE(res.completed);
  EXPECT_GE(res.cycles, 100'000u);
  EXPECT_LT(res.events_processed, 200u);
}

TEST(EventSim, IncrementalInjectionAcrossRuns) {
  Network net = make_ring(6, 2);
  const auto rr = route_nue(net, net.terminals(), NueOptions{});
  const auto t = net.terminals();
  EventSimulator sim(net, rr, quick_config());
  sim.inject({t[0], t[5], 2048}, 1);
  ASSERT_EQ(sim.run(), SimRunStatus::kCompleted);
  const std::uint64_t first_done = sim.now();
  EXPECT_EQ(sim.delivered_packets(), 1u);
  // A second wave after quiescence: the clock keeps advancing.
  sim.inject({t[5], t[0], 2048}, sim.now() + 50);
  sim.inject({t[2], t[7], 2048}, sim.now() + 50);
  ASSERT_EQ(sim.run(), SimRunStatus::kCompleted);
  EXPECT_EQ(sim.delivered_packets(), 3u);
  EXPECT_GT(sim.now(), first_done + 49);
  const auto res = sim.result();
  EXPECT_TRUE(res.completed);
  EXPECT_EQ(res.delivered_bytes, 3u * 2048u);
}

TEST(EventSim, InjectionTimeBeforeNowIsClamped) {
  Network net = make_line(3);
  const auto rr = route_minhop(net, net.terminals());
  EventSimulator sim(net, rr, quick_config());
  sim.inject({net.terminals()[0], net.terminals()[2], 256}, 1);
  ASSERT_EQ(sim.run(), SimRunStatus::kCompleted);
  sim.inject({net.terminals()[2], net.terminals()[0], 256}, 0);  // the past
  ASSERT_EQ(sim.run(), SimRunStatus::kCompleted);
  EXPECT_EQ(sim.delivered_packets(), 2u);
}

TEST(EventSim, WallBudgetAborts) {
  Network net = make_ring(8, 2);
  const auto rr = route_nue(net, net.terminals(), NueOptions{});
  auto cfg = quick_config();
  cfg.max_wall_ms = 1e-7;  // expires on the first budget check
  const auto msgs = alltoall_shift_messages(net, 8192);
  const auto res = simulate(net, rr, msgs, cfg);
  EXPECT_TRUE(res.hit_wall_budget);
  EXPECT_FALSE(res.completed);
  EXPECT_FALSE(res.deadlocked);
}

TEST(EventSim, AdaptiveRunsOnEventEngine) {
  // simulate_adaptive is served by the event engine too: completes on a
  // deadlock-prone fabric thanks to the escape lane, and reports events.
  Network net = make_ring(6, 2);
  const auto escape = route_nue(net, net.terminals(), NueOptions{});
  ASSERT_EQ(escape.num_vls(), 1u);
  auto cfg = quick_config();
  cfg.buffer_flits = 2;
  const auto msgs = alltoall_shift_messages(net, 4096);
  const auto res = simulate_adaptive(net, escape, 2, msgs, cfg);
  EXPECT_TRUE(res.completed) << "cycles=" << res.cycles;
  EXPECT_GE(res.events_processed, res.flit_hops);
}

/// Every counter and statistic of one run, as the engine reported it.
struct GoldenRun {
  std::uint64_t cycles;
  std::uint64_t events_processed;
  std::uint64_t queue_peak;
  std::uint64_t flit_hops;
  std::uint64_t delivered_packets;
  std::uint64_t delivered_bytes;
  double avg_packet_latency;
  std::uint64_t max_packet_latency;
  double p99_packet_latency;
  double max_link_utilization;
  double avg_link_utilization;
};

void expect_golden(const SimResult& res, const GoldenRun& want,
                   const char* what) {
  EXPECT_TRUE(res.completed) << what;
  EXPECT_EQ(res.cycles, want.cycles) << what;
  EXPECT_EQ(res.events_processed, want.events_processed) << what;
  EXPECT_EQ(res.queue_peak, want.queue_peak) << what;
  EXPECT_EQ(res.flit_hops, want.flit_hops) << what;
  EXPECT_EQ(res.delivered_packets, want.delivered_packets) << what;
  EXPECT_EQ(res.delivered_bytes, want.delivered_bytes) << what;
  EXPECT_DOUBLE_EQ(res.avg_packet_latency, want.avg_packet_latency) << what;
  EXPECT_EQ(res.max_packet_latency, want.max_packet_latency) << what;
  EXPECT_DOUBLE_EQ(res.p99_packet_latency, want.p99_packet_latency) << what;
  EXPECT_DOUBLE_EQ(res.max_link_utilization, want.max_link_utilization)
      << what;
  EXPECT_DOUBLE_EQ(res.avg_link_utilization, want.avg_link_utilization)
      << what;
}

TEST(EventSim, GoldenCounters) {
  // The engine's event order is part of its contract: a change to its
  // internal state layout must leave every counter of these three runs
  // exactly as it was. The values were captured while the engine still
  // kept its queue and output state in hash maps.
  Network net = generate_topology("torus:4x4x3:2").net;
  Rng rng(28);
  ASSERT_EQ(inject_link_failures(net, 3, rng), 3u);
  NueOptions opt;
  opt.num_vls = 4;
  const auto rr = route_nue(net, net.terminals(), opt);
  ASSERT_TRUE(validate_routing(net, rr).deadlock_free);
  SimConfig cfg = quick_config();
  cfg.buffer_flits = 4;
  const auto msgs = alltoall_shift_messages(net, 1024, 6);
  expect_golden(simulate(net, rr, msgs, cfg),
                {324, 90326, 808, 45832, 576, 589824, 50.574652777777779, 221,
                 165.5, 0.5771604938271605, 0.28727782155678139},
                "deterministic Nue k=4 all-to-all");

  const auto escape = route_nue(net, net.terminals(), NueOptions{});
  ASSERT_EQ(escape.num_vls(), 1u);
  expect_golden(simulate_adaptive(net, escape, 2, msgs, cfg),
                {260, 108678, 1303, 46019, 576, 589824, 48.546875, 210,
                 115.25, 0.71923076923076923, 0.36054282596835785},
                "adaptive, 2 VLs over a Nue escape");

  Rng sc_rng(7);
  const Scenario sc =
      parse_scenario(net, "burst:3:16:1024:40;alltoall:512:2", sc_rng);
  const ScenarioResult scr = simulate_scenario(net, rr, sc, cfg);
  EXPECT_EQ(scr.status, SimRunStatus::kCompleted);
  ASSERT_EQ(scr.phases.size(), 3u);  // a burst, then two barriered shifts
  expect_golden(scr.sim,
                {194, 17590, 747, 9741, 240, 147456, 19.841666666666665, 55,
                 46.0, 0.40206185567010311, 0.08505154639175258},
                "barriered scenario");
}

}  // namespace
}  // namespace nue
