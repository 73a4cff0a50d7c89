// Simulation-scale harness (docs/SIMULATION.md): the discrete-event
// engine against the legacy cycle engine on fabrics up to the 47^3 torus
// (103,823 switches — the Tsubame-class acceptance point of
// docs/SCALING.md), emitting BENCH_sim.json.
//
// Two workloads per run:
//   scenario       a timed multi-phase scenario (bursts, drifting hotspot,
//                  background uniform load) driven through
//                  simulate_scenario — the event engine only; the cycle
//                  engine has no notion of injection times or barriers,
//                  and at 10^5 switches it pays for every idle cycle of
//                  the schedule anyway. Per-phase spans land in the JSON.
//   alltoall-flat  the head-to-head: an identical flat message set run on
//                  both engines. The cycle leg gets --cycle-budget-s of
//                  wall clock (recorded as status "wall-limit" when it
//                  expires); at full scale it scans ~3M virtual queues
//                  per simulated cycle and cannot finish, while the event
//                  engine completes the same workload outright. When both
//                  complete (smoke), delivered totals must match exactly.
//
// Destinations are the same evenly spaced terminal sample bench_scale
// routes (routing all 10^5 terminals is a separate wall, not this
// bench's); traffic destinations are confined to the routed pool, sources
// draw from all alive terminals.
//
//   --smoke            tiny fabric (tier-1 stage; finishes in seconds)
//   --scenario SPEC    override the scenario (parse_scenario grammar)
//   --dests N          destination sample (0 = auto: all in smoke, 16 full)
//   --pivots N         Brandes pivots for escape roots (default 64)
//   --vls K            virtual lanes (default 4)
//   --threads N        routing worker threads (default 1)
//   --messages N       head-to-head message count (0 = mode default)
//   --bytes B          message payload bytes (0 = mode default)
//   --cycle-budget-s S wall budget for the cycle leg (default 60)
//   --skip-cycle       skip the cycle-engine leg
//   --seed S           traffic seed (default 2016)
//   --json FILE        records (default BENCH_sim.json; '' = skip)
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "nue/nue_routing.hpp"
#include "sim/scenario.hpp"
#include "telemetry/cli.hpp"
#include "topology/torus.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace nue;

/// Same spacing discipline as bench_scale: deterministic, evenly spaced
/// over the terminals so repeated runs route identical tables.
std::vector<NodeId> sample_dests(const Network& net, std::size_t want) {
  const auto terms = net.terminals();
  if (want == 0 || want >= terms.size()) return terms;
  std::vector<NodeId> out;
  out.reserve(want);
  for (std::size_t i = 0; i < want; ++i) {
    out.push_back(terms[i * terms.size() / want]);
  }
  return out;
}

struct SimRecord {
  std::string engine;    // "event" | "cycle"
  std::string workload;  // "scenario" | "alltoall-flat"
  std::string topology;
  std::uint64_t switches = 0;
  std::uint64_t terminals = 0;
  std::uint64_t channels = 0;
  std::uint64_t dests = 0;
  std::uint32_t vls = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::string status;  // completed | deadlocked | wall-limit | cycle-limit
  double wall_ms = 0.0;
  std::uint64_t cycles = 0;
  std::uint64_t events_processed = 0;
  std::uint64_t queue_peak = 0;
  double events_per_sec = 0.0;
  std::uint64_t delivered_packets = 0;
  std::uint64_t delivered_bytes = 0;
  std::optional<double> peak_rss_mb;
  std::vector<PhaseSpan> spans;
};

const char* status_of(const SimResult& r) {
  if (r.completed) return "completed";
  if (r.deadlocked) return "deadlocked";
  if (r.hit_wall_budget) return "wall-limit";
  return "cycle-limit";
}

const char* status_of(SimRunStatus s) {
  switch (s) {
    case SimRunStatus::kCompleted: return "completed";
    case SimRunStatus::kDeadlocked: return "deadlocked";
    case SimRunStatus::kWallLimit: return "wall-limit";
    case SimRunStatus::kCycleLimit: return "cycle-limit";
  }
  return "cycle-limit";
}

void fill_from_sim(SimRecord& rec, const SimResult& res, double wall_ms) {
  rec.wall_ms = wall_ms;
  rec.cycles = res.cycles;
  rec.events_processed = res.events_processed;
  rec.queue_peak = res.queue_peak;
  rec.events_per_sec =
      wall_ms > 0.0 ? res.events_processed / (wall_ms / 1e3) : 0.0;
  rec.delivered_packets = res.delivered_packets;
  rec.delivered_bytes = res.delivered_bytes;
  rec.peak_rss_mb = peak_rss_mb();
}

void write_json(const std::string& path, const std::vector<SimRecord>& recs) {
  Json out = Json::object();
  out.set("schema_version", 1);
  out.set("tool", "bench_sim_scale");
  if (const auto rss = peak_rss_mb()) out.set("peak_rss_mb", *rss);
  std::uint64_t total_events = 0;
  for (const auto& r : recs) total_events += r.events_processed;
  out.set("total_events", total_events);
  Json records = Json::array();
  for (const auto& r : recs) {
    Json j = Json::object();
    j.set("engine", r.engine);
    j.set("workload", r.workload);
    j.set("topology", r.topology);
    j.set("switches", r.switches);
    j.set("terminals", r.terminals);
    j.set("channels", r.channels);
    j.set("dests", r.dests);
    j.set("vls", r.vls);
    j.set("messages", r.messages);
    j.set("bytes", r.bytes);
    j.set("status", r.status);
    j.set("wall_ms", r.wall_ms);
    j.set("cycles", r.cycles);
    j.set("events_processed", r.events_processed);
    j.set("queue_peak", r.queue_peak);
    j.set("events_per_sec", r.events_per_sec);
    j.set("delivered_packets", r.delivered_packets);
    j.set("delivered_bytes", r.delivered_bytes);
    if (r.peak_rss_mb) j.set("peak_rss_mb", *r.peak_rss_mb);
    Json spans = Json::array();
    for (const auto& sp : r.spans) {
      spans.push_back(Json::object()
                          .set("label", sp.label)
                          .set("start_cycle", sp.start_cycle)
                          .set("end_cycle", sp.end_cycle)
                          .set("messages", sp.messages)
                          .set("bytes", sp.bytes));
    }
    j.set("spans", std::move(spans));
    records.push_back(std::move(j));
  }
  out.set("records", std::move(records));
  std::ofstream(path) << out.dump() << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  using nue::bench::run_routing;
  Flags flags(argc, argv);
  const bool smoke = flags.get_bool(
      "smoke", false, "tiny fabric only (the tier-1 smoke stage)");
  const std::string scenario_flag = flags.get_string(
      "scenario", "", "scenario spec (parse_scenario grammar; '' = default)");
  const auto want_dests = static_cast<std::size_t>(flags.get_int(
      "dests", 0, "destination sample (0 = auto: all in smoke, 16 full)"));
  const auto pivots = static_cast<std::size_t>(flags.get_int(
      "pivots", 64, "Brandes pivots for escape roots (0 = exact)"));
  const auto vls =
      static_cast<std::uint32_t>(flags.get_int("vls", 4, "virtual lanes"));
  const auto threads = static_cast<std::uint32_t>(
      flags.get_int("threads", 1, "routing worker threads"));
  const auto want_messages = static_cast<std::size_t>(flags.get_int(
      "messages", 0, "head-to-head message count (0 = mode default)"));
  const auto want_bytes = static_cast<std::uint32_t>(flags.get_int(
      "bytes", 0, "message payload bytes (0 = mode default)"));
  const double cycle_budget_s = flags.get_double(
      "cycle-budget-s", 60.0, "wall budget for the cycle-engine leg");
  const bool skip_cycle =
      flags.get_bool("skip-cycle", false, "skip the cycle-engine leg");
  const auto seed = static_cast<std::uint64_t>(
      flags.get_int("seed", 2016, "traffic seed"));
  const std::string json_path = flags.get_string(
      "json", "BENCH_sim.json", "records JSON ('' = skip)");
  telemetry::Cli telem;
  telem.register_flags(flags);
  if (!flags.finish()) return 1;

  // Fabric: the tier-1 smoke torus, or the >= 10^5-switch acceptance torus.
  const std::uint32_t dim = smoke ? 6 : 47;
  TorusSpec spec{{dim, dim, dim}, 1, 1};
  const std::string topology = std::to_string(dim) + "x" + std::to_string(dim)
                               + "x" + std::to_string(dim);
  const Network net = make_torus(spec);
  const auto dests =
      sample_dests(net, want_dests != 0 ? want_dests : (smoke ? 0 : 16));
  std::cerr << "torus " << topology << ": routing " << dests.size() << " of "
            << net.terminals().size() << " terminals\n";
  const auto run = run_routing("nue", [&] {
    NueOptions opt;
    opt.num_vls = vls;
    opt.num_threads = threads;
    opt.betweenness_pivots = pivots;
    return route_nue(net, dests, opt);
  });
  if (!run.rr) {
    std::cerr << "routing failed: " << run.note << "\n";
    return 2;
  }
  std::cerr << "routed in " << run.seconds << "s\n";

  const std::string scenario_spec =
      !scenario_flag.empty() ? scenario_flag
      : smoke ? "burst:30:8:512:50;uniform:100:512:200;alltoall:512:4"
              : "burst:200:64:4096:500;"
                "hotspot:10000:2048:80:100000:5;"
                "uniform:10000:2048:100000";
  const std::size_t flat_count =
      want_messages != 0 ? want_messages : (smoke ? 200 : 20000);
  const std::uint32_t flat_bytes =
      want_bytes != 0 ? want_bytes : (smoke ? 512 : 2048);

  SimRecord base;
  base.topology = topology;
  base.switches = static_cast<std::uint64_t>(dim) * dim * dim;
  base.terminals = net.num_alive_terminals();
  base.channels = net.num_alive_channels();
  base.dests = dests.size();
  base.vls = vls;

  std::vector<SimRecord> records;
  Table table({"engine", "workload", "messages", "status", "wall [s]",
               "Mev/s", "cycles"});
  const auto report = [&](const SimRecord& rec) {
    records.push_back(rec);
    char wall[32], evs[32];
    std::snprintf(wall, sizeof(wall), "%.2f", rec.wall_ms / 1e3);
    std::snprintf(evs, sizeof(evs), "%.2f", rec.events_per_sec / 1e6);
    table.row() << rec.engine << rec.workload << rec.messages << rec.status
                << wall << evs << rec.cycles;
    std::cerr << rec.engine << "/" << rec.workload << ": " << rec.status
              << " in " << wall << "s (" << rec.events_processed
              << " events)\n";
  };

  SimConfig cfg;
  Rng rng(seed);

  {  // The timed multi-phase scenario — event engine only (see header).
    const Scenario sc = parse_scenario(net, scenario_spec, rng, dests);
    SimRecord rec = base;
    rec.engine = "event";
    rec.workload = "scenario";
    rec.messages = sc.total_messages();
    rec.bytes = sc.total_bytes();
    Timer t;
    const ScenarioResult res = simulate_scenario(net, *run.rr, sc, cfg);
    rec.status = status_of(res.status);
    fill_from_sim(rec, res.sim, t.seconds() * 1e3);
    rec.spans = res.phases;
    report(rec);
  }

  // The head-to-head: one flat message set, both engines.
  const ScenarioPhase flat_phase =
      uniform_arrivals_phase(net, flat_count, flat_bytes, 1, rng, dests);
  std::vector<Message> flat;
  flat.reserve(flat_phase.messages.size());
  std::uint64_t flat_total_bytes = 0;
  for (const auto& tm : flat_phase.messages) {
    flat.push_back(tm.msg);
    flat_total_bytes += tm.msg.bytes;
  }

  SimRecord ev_rec = base;
  {
    SimRecord& rec = ev_rec;
    rec.engine = "event";
    rec.workload = "alltoall-flat";
    rec.messages = flat.size();
    rec.bytes = flat_total_bytes;
    Timer t;
    const SimResult res = simulate(net, *run.rr, flat, cfg);
    rec.status = status_of(res);
    fill_from_sim(rec, res, t.seconds() * 1e3);
    report(rec);
  }

  bool mismatch = false;
  if (!skip_cycle) {
    SimConfig ccfg = cfg;
    ccfg.max_wall_ms = cycle_budget_s * 1e3;
    SimRecord rec = base;
    rec.engine = "cycle";
    rec.workload = "alltoall-flat";
    rec.messages = flat.size();
    rec.bytes = flat_total_bytes;
    Timer t;
    const SimResult res = simulate_cycle(net, *run.rr, flat, ccfg);
    rec.status = status_of(res);
    fill_from_sim(rec, res, t.seconds() * 1e3);
    report(rec);
    if (res.completed &&
        (res.delivered_bytes != records[1].delivered_bytes ||
         res.delivered_packets != records[1].delivered_packets)) {
      std::cerr << "ENGINE DIVERGENCE: cycle delivered "
                << res.delivered_bytes << "B vs event "
                << records[1].delivered_bytes << "B\n";
      mismatch = true;
    }
  }

  table.print();
  if (!json_path.empty()) write_json(json_path, records);
  if (telem.wanted()) {
    telem.finish("bench_sim_scale",
                 {{"smoke", smoke ? "1" : "0"},
                  {"dests", std::to_string(dests.size())},
                  {"vls", std::to_string(vls)},
                  {"messages", std::to_string(flat_count)},
                  {"scenario", scenario_spec}});
  }
  // Acceptance gate: every event-engine run must complete, and when the
  // cycle leg completes too the delivered totals must agree exactly. A
  // cycle leg stopped by its wall budget is the expected full-scale
  // outcome, not a failure.
  if (mismatch) return 2;
  for (const auto& r : records) {
    if (r.engine == "event" && r.status != "completed") return 2;
  }
  return 0;
}
