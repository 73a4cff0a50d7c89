// Live-reconfiguration bench (docs/RESILIENCE.md): replay a pure
// link-failure event stream (10% of the switch-to-switch links, the
// fail-in-place regime of [7]) over Fig. 11's 3D tori through the
// resilience manager, and compare the manager's per-event repair cost
// against a full Nue recompute of the same degraded fabric.
//
// Reported per torus: hitless/drained split, median and p99 repair
// latency, the median full-recompute latency, and the median per-event
// speedup of the incrementally repaired (hitless) events — the headline
// number: incremental repair is expected >= 5x faster than recomputing.
//
// Storm mode (--storm N > 0) instead replays a sustained fault/repair
// storm — N events per topology, drawn with a repair-heavy restore
// fraction so the fabric keeps churning indefinitely — over a Fig. 11
// tori subset plus a Dragonfly, twice per topology: once with the wave
// scheduler enabled (the shipping default) and once with it disabled
// (the drained-recompute baseline). Reported per topology: gate-failure
// drains on both sides (the headline: zero with waves, nonzero without),
// wave-chain counts and the observed staleness bound (longest chain, in
// epochs), repair-latency p50/p99, the sustained event rate, and whether
// a final resync() landed byte-identical to an offline recompute of the
// end-state fabric. Storm mode pins vls=2/max_vls=4 — the budget regime
// where dependency-heavy tables make the union gate fail regularly;
// larger budgets make most transitions trivially compatible and the
// comparison meaningless.
//
//   --max-switches N  largest torus to run (default 125 = 5x5x5)
//   --fault-pct P     percentage of links to fail (default 10.0)
//   --vls K           virtual lanes for the repair engine (default 4)
//   --terminals T     terminals per switch (default 2)
//   --threads N       routing worker threads (default 1)
//   --seed S          fault-trace seed (default 31)
//   --storm N         storm mode: N fault/repair events per topology
//   --restore F       storm restore fraction (default 0.5)
//   --csv FILE        CSV output path ('' = skip)
//   --json FILE       per-topology records (default BENCH_reconfig.json)
#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>
#include <vector>

#include "bench_common.hpp"
#include "nue/nue_routing.hpp"
#include "resilience/resilience.hpp"
#include "routing/dump.hpp"
#include "routing/validate.hpp"
#include "service/service.hpp"
#include "telemetry/cli.hpp"
#include "telemetry/telemetry.hpp"
#include "topology/faults.hpp"
#include "topology/generate.hpp"
#include "topology/torus.hpp"
#include "util/flags.hpp"
#include "util/json.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using nue::Json;

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto i = static_cast<std::size_t>(q * (v.size() - 1) + 0.5);
  return v[std::min(i, v.size() - 1)];
}

struct TopoRecord {
  std::string torus;
  std::size_t events = 0;
  std::size_t noops = 0;
  std::size_t hitless = 0;
  std::size_t drained = 0;
  double median_incremental_ms = 0.0;
  double p99_repair_ms = 0.0;
  double median_full_ms = 0.0;
  double speedup_median = 0.0;  // median over hitless events of full/repair
  std::vector<nue::bench::PhaseTiming> phases;  // replay span aggregates
};

void write_json(const std::string& path, const std::vector<TopoRecord>& recs,
                double overall) {
  Json out = Json::object();
  out.set("overall_speedup_median", overall);
  if (const auto rss = nue::peak_rss_mb()) out.set("peak_rss_mb", *rss);
  Json topologies = Json::array();
  for (const auto& r : recs) {
    Json j = Json::object();
    j.set("torus", r.torus);
    j.set("events", r.events);
    j.set("noops", r.noops);
    j.set("hitless", r.hitless);
    j.set("drained", r.drained);
    j.set("median_incremental_ms", r.median_incremental_ms);
    j.set("p99_repair_ms", r.p99_repair_ms);
    j.set("median_full_ms", r.median_full_ms);
    j.set("speedup_median", r.speedup_median);
    j.set("phases", nue::bench::phases_json(r.phases));
    topologies.push_back(std::move(j));
  }
  out.set("topologies", std::move(topologies));
  std::ofstream(path) << out.dump() << "\n";
}

// --- storm mode -------------------------------------------------------------

struct StormRecord {
  std::string topo;
  std::size_t events = 0;
  std::size_t transitions = 0;
  std::size_t noops = 0;
  std::size_t hitless = 0;
  std::size_t drains = 0;           // gate-failure drains, waves enabled
  std::size_t wave_chains = 0;      // gate failures the scheduler staged
  std::size_t wave_commits = 0;     // epochs those chains committed
  std::size_t max_chain_epochs = 0; // observed staleness bound (epochs)
  std::size_t baseline_drains = 0;  // same trace, wave scheduler disabled
  double p50_repair_ms = 0.0;
  double p99_repair_ms = 0.0;
  double events_per_sec = 0.0;
  bool resync_matches_offline = false;
  // Daemon-side live plane: the same trace replayed through
  // ManagerService::handle with the journal armed and metrics scrapes
  // interleaved — the request-latency SLO and journal throughput a
  // resident nue_managerd would report for this storm.
  double svc_p50_request_us = 0.0;
  double svc_p99_request_us = 0.0;
  double journal_entries_per_sec = 0.0;
};

std::vector<std::pair<std::uint64_t, std::uint64_t>> request_us_buckets() {
  for (const auto& h :
       nue::telemetry::Registry::instance().histogram_snapshot()) {
    if (h.name == "service.request_us") return h.buckets;
  }
  return {};
}

/// Replay the trace through the full service path (dispatcher, commit
/// hooks, journal, scrapes) and fold the daemon-side SLOs into `rec`.
/// The registry is process-global, so latencies are taken as the bucket
/// delta across this run (the bench may storm several topologies).
void measure_service_path(const std::string& topo,
                          const nue::FaultTrace& trace,
                          const nue::resilience::RepairPolicy& policy,
                          StormRecord& rec) {
  const nue::telemetry::EnabledScope telem_on(true);
  const auto before = request_us_buckets();
  nue::service::ManagerService svc;
  svc.load("storm", topo, policy);
  const std::uint64_t journal_before = svc.journal().total();

  nue::Timer wall;
  std::size_t applied = 0;
  for (const nue::FaultEvent& e : trace.events) {
    Json req = Json::object();
    req.set("op", "event");
    req.set("fabric", "storm");
    req.set("kind", nue::fault_event_name(e.kind));
    req.set("id", e.id);
    NUE_CHECK(svc.handle(req).boolean("ok"));
    if (++applied % 16 == 0) {
      NUE_CHECK(svc.handle(Json::parse(R"({"op":"metrics"})")).boolean("ok"));
      NUE_CHECK(svc.handle(Json::parse(R"({"op":"journal"})")).boolean("ok"));
    }
  }
  const double secs = wall.millis() / 1000.0;

  // Non-empty buckets only, sorted by edge; counts never shrink, so the
  // before-set of edges is a subset of the after-set.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> delta;
  std::size_t bi = 0;
  for (const auto& [le, n] : request_us_buckets()) {
    std::uint64_t prev = 0;
    if (bi < before.size() && before[bi].first == le) {
      prev = before[bi].second;
      ++bi;
    }
    delta.emplace_back(le, n - prev);
  }
  rec.svc_p50_request_us = nue::telemetry::quantile_from_buckets(delta, 0.5);
  rec.svc_p99_request_us = nue::telemetry::quantile_from_buckets(delta, 0.99);
  const std::uint64_t journaled = svc.journal().total() - journal_before;
  rec.journal_entries_per_sec = secs > 0 ? journaled / secs : 0.0;
}

StormRecord run_storm(const std::string& topo, std::size_t events,
                      std::uint64_t seed, double restore,
                      std::uint32_t threads) {
  using namespace nue;
  Network net = generate_topology(topo).net;
  const FaultTrace trace = draw_fault_trace(net, topo, seed, events, restore);
  if (trace.events.size() < events) {
    std::cerr << "warning: only " << trace.events.size() << "/" << events
              << " events drawable on " << topo << "\n";
  }

  resilience::RepairPolicy policy;
  policy.engine = resilience::Engine::kNue;
  policy.vls = 2;
  policy.max_vls = 4;
  policy.seed = seed;
  policy.num_threads = threads;
  policy.log_max_records = 256;

  StormRecord rec;
  rec.topo = topo;
  std::vector<double> repair_ms;
  resilience::ResilienceManager mgr(net, policy);
  Timer wall;
  ReconfigLog::Summary sum;  // over the returned records: chain finals
  for (const FaultEvent& e : trace.events) {
    const TransitionRecord tr = mgr.apply(e);
    sum.add(tr);
    if (tr.committed_step != "noop") repair_ms.push_back(tr.repair_ms);
    rec.max_chain_epochs =
        std::max<std::size_t>(rec.max_chain_epochs, tr.wave_count);
  }
  rec.events = trace.events.size();
  rec.transitions = sum.transitions;
  rec.noops = sum.noops;
  rec.hitless = sum.hitless;
  rec.drains = sum.drained;
  rec.wave_chains = sum.waved;
  // Every chain epoch is in the log (intermediates too); the initial
  // table is not a chain, so the log-wide count is this storm's.
  rec.wave_commits = mgr.log().summarize().wave_commits;
  const double secs = wall.millis() / 1000.0;
  rec.events_per_sec = secs > 0 ? rec.events / secs : 0.0;
  rec.p50_repair_ms = quantile(repair_ms, 0.5);
  rec.p99_repair_ms = quantile(repair_ms, 0.99);

  // Convergence anchor: after the storm, one resync() must land exactly
  // where an offline recompute of the end-state fabric lands — waves may
  // only change HOW the manager got there, never where it is.
  mgr.resync();
  Network offline = generate_topology(topo).net;
  for (const FaultEvent& e : trace.events) apply_fault_event(offline, e);
  resilience::ResilienceManager fresh(std::move(offline), policy);
  std::ostringstream live_dump, fresh_dump;
  write_forwarding_tables(live_dump, mgr.net(), *mgr.table());
  write_forwarding_tables(fresh_dump, fresh.net(), *fresh.table());
  rec.resync_matches_offline = live_dump.str() == fresh_dump.str();

  // The baseline: identical trace, wave scheduler off — every chain the
  // run above staged is forced through the drained-recompute fallback.
  resilience::RepairPolicy no_waves = policy;
  no_waves.enable_waves = false;
  resilience::ResilienceManager base(std::move(net), no_waves);
  for (const FaultEvent& e : trace.events) {
    if (base.apply(e).drained) ++rec.baseline_drains;
  }

  measure_service_path(topo, trace, policy, rec);
  return rec;
}

void write_storm_json(const std::string& path,
                      const std::vector<StormRecord>& recs) {
  Json out = Json::object();
  if (const auto rss = nue::peak_rss_mb()) out.set("peak_rss_mb", *rss);
  Json storm = Json::array();
  for (const auto& r : recs) {
    Json j = Json::object();
    j.set("topo", r.topo);
    j.set("events", r.events);
    j.set("transitions", r.transitions);
    j.set("noops", r.noops);
    j.set("hitless", r.hitless);
    j.set("drains", r.drains);
    j.set("wave_chains", r.wave_chains);
    j.set("wave_commits", r.wave_commits);
    j.set("max_chain_epochs", r.max_chain_epochs);
    j.set("baseline_drains", r.baseline_drains);
    j.set("p50_repair_ms", r.p50_repair_ms);
    j.set("p99_repair_ms", r.p99_repair_ms);
    j.set("events_per_sec", r.events_per_sec);
    j.set("svc_p50_request_us", r.svc_p50_request_us);
    j.set("svc_p99_request_us", r.svc_p99_request_us);
    j.set("journal_entries_per_sec", r.journal_entries_per_sec);
    j.set("resync_matches_offline", r.resync_matches_offline);
    storm.push_back(std::move(j));
  }
  out.set("storm", std::move(storm));
  std::ofstream(path) << out.dump() << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace nue;
  Flags flags(argc, argv);
  const auto max_switches = static_cast<std::uint32_t>(flags.get_int(
      "max-switches", 125, "largest torus size in switches"));
  const double fault_pct =
      flags.get_double("fault-pct", 10.0, "percentage of failed links");
  const auto vls =
      static_cast<std::uint32_t>(flags.get_int("vls", 4, "virtual lanes"));
  const auto terminals = static_cast<std::uint32_t>(
      flags.get_int("terminals", 2, "terminals per switch"));
  const auto threads = static_cast<std::uint32_t>(
      flags.get_int("threads", 1, "routing worker threads"));
  const auto seed =
      static_cast<std::uint64_t>(flags.get_int("seed", 31, "fault seed"));
  const auto storm_events = static_cast<std::size_t>(flags.get_int(
      "storm", 0, "storm mode: fault/repair events per topology (0 = off)"));
  const double restore =
      flags.get_double("restore", 0.5, "storm restore fraction");
  const std::string csv = flags.get_string("csv", "", "CSV output path");
  const std::string json_path = flags.get_string(
      "json", "BENCH_reconfig.json", "per-topology JSON ('' = skip)");
  telemetry::Cli telem;
  telem.register_flags(flags);
  if (!flags.finish()) return 1;

  if (storm_events > 0) {
    // Fig. 11 tori subset plus a 36-switch Dragonfly(4,2,2,9) — the
    // topology family where global links concentrate dependencies and
    // gate failures are routine.
    const std::vector<std::string> topos = {"torus:3x3x3:1", "torus:4x4x4:1",
                                            "dragonfly:4:2:2:9"};
    Table storm_table({"topology", "events", "hitless", "drains",
                       "waves (chains/epochs)", "max chain", "base drains",
                       "p50 [ms]", "p99 [ms]", "ev/s", "svc p50/p99 [us]",
                       "jrnl/s", "resync=="});
    std::vector<StormRecord> storms;
    bool all_zero_drain = true, all_resync = true;
    for (std::size_t i = 0; i < topos.size(); ++i) {
      StormRecord r =
          run_storm(topos[i], storm_events, seed + i, restore, threads);
      std::ostringstream waves, svc_us;
      waves << r.wave_chains << "/" << r.wave_commits;
      svc_us << r.svc_p50_request_us << "/" << r.svc_p99_request_us;
      storm_table.row() << r.topo << r.events << r.hitless << r.drains
                        << waves.str() << r.max_chain_epochs
                        << r.baseline_drains << r.p50_repair_ms
                        << r.p99_repair_ms << r.events_per_sec
                        << svc_us.str() << r.journal_entries_per_sec
                        << (r.resync_matches_offline ? "yes" : "NO");
      all_zero_drain = all_zero_drain && r.drains == 0;
      all_resync = all_resync && r.resync_matches_offline;
      storms.push_back(std::move(r));
    }
    storm_table.print(std::cout);
    std::cout << (all_zero_drain
                      ? "zero gate-failure drains with waves enabled\n"
                      : "DRAINS OCCURRED with waves enabled (see table)\n");
    if (!csv.empty()) storm_table.write_csv(csv);
    if (!json_path.empty()) write_storm_json(json_path, storms);
    if (telem.wanted()) {
      telem.finish("bench_reconfig",
                   {{"storm", std::to_string(storm_events)},
                    {"restore", std::to_string(restore)},
                    {"seed", std::to_string(seed)},
                    {"threads", std::to_string(threads)}});
    }
    return all_resync ? 0 : 1;
  }

  std::vector<std::vector<std::uint32_t>> sizes = {
      {3, 3, 3}, {4, 4, 4}, {5, 5, 5}, {6, 6, 6}, {7, 7, 7}};

  Table table({"torus", "events", "hitless", "drained", "incr med [ms]",
               "p99 [ms]", "full med [ms]", "speedup"});
  std::vector<TopoRecord> records;
  std::vector<double> all_speedups;
  for (const auto& dims : sizes) {
    const std::uint32_t nsw = dims[0] * dims[1] * dims[2];
    if (nsw > max_switches) break;
    TorusSpec spec{dims, terminals, 1};
    Network net = make_torus(spec);
    std::ostringstream gen;
    gen << "torus:" << dims[0] << "x" << dims[1] << "x" << dims[2] << ":"
        << terminals;

    // A torus has 3*nsw duplex switch-to-switch links; fail fault_pct% of
    // them, downs only (restore_fraction 0 = the fail-in-place regime).
    const auto want = static_cast<std::size_t>(
        std::ceil(fault_pct / 100.0 * 3.0 * nsw));
    const FaultTrace trace =
        draw_fault_trace(net, gen.str(), seed + nsw, want, 0.0);
    if (trace.events.size() < want) {
      std::cerr << "warning: only " << trace.events.size() << "/" << want
                << " failures drawable on " << gen.str() << "\n";
    }

    resilience::RepairPolicy policy;
    policy.engine = resilience::Engine::kNue;
    policy.vls = vls;
    policy.max_vls = std::max(vls, 8u);
    policy.seed = seed;
    policy.num_threads = threads;
    resilience::ResilienceManager mgr(std::move(net), policy);

    NueOptions full_opt;
    full_opt.num_vls = vls;
    full_opt.seed = seed;
    full_opt.num_threads = threads;

    TopoRecord rec;
    rec.torus = gen.str();
    // Per-phase attribution of the replay loop (resilience.event, ladder
    // rungs, validate.*) via telemetry span deltas.
    const telemetry::EnabledScope telem_on(true);
    const std::size_t mark = telemetry::Tracer::instance().collect();
    std::vector<double> incremental_ms, repair_ms, full_ms, speedups;
    for (const FaultEvent& e : trace.events) {
      const TransitionRecord tr = mgr.apply(e);
      ++rec.events;
      if (tr.committed_step == "noop") {
        ++rec.noops;
        continue;
      }
      repair_ms.push_back(tr.repair_ms);
      // Reference cost: a from-scratch recompute of the same degraded
      // fabric plus the full-table validation the ladder runs before any
      // commit — exactly what the drained path pays. repair_ms on the
      // incremental side likewise includes its (subset) validation and
      // the union-CDG gate, so the two sides measure the same
      // event-to-committed-table latency.
      Timer t;
      const RoutingResult fresh =
          route_nue(mgr.net(), mgr.net().terminals(), full_opt);
      NUE_CHECK(validate_routing(mgr.net(), fresh).ok());
      const double f_ms = t.millis();
      full_ms.push_back(f_ms);
      if (tr.hitless) {
        ++rec.hitless;
        incremental_ms.push_back(tr.repair_ms);
        speedups.push_back(f_ms / tr.repair_ms);
        all_speedups.push_back(f_ms / tr.repair_ms);
      } else if (tr.drained) {
        ++rec.drained;
      }
    }
    rec.median_incremental_ms = quantile(incremental_ms, 0.5);
    rec.p99_repair_ms = quantile(repair_ms, 0.99);
    rec.median_full_ms = quantile(full_ms, 0.5);
    rec.speedup_median = quantile(speedups, 0.5);
    for (const auto& [span_name, agg] :
         telemetry::Tracer::instance().aggregate_since(mark)) {
      rec.phases.push_back(
          {span_name, agg.count, static_cast<double>(agg.total_ns) / 1e6});
    }
    records.push_back(rec);
    table.row() << rec.torus << rec.events << rec.hitless << rec.drained
                << rec.median_incremental_ms << rec.p99_repair_ms
                << rec.median_full_ms << rec.speedup_median;
  }
  const double overall = quantile(all_speedups, 0.5);
  table.print(std::cout);
  std::cout << "overall median speedup (hitless incremental vs full "
               "recompute): "
            << overall << "x\n";
  if (!csv.empty()) table.write_csv(csv);
  if (!json_path.empty()) write_json(json_path, records, overall);
  if (telem.wanted()) {
    telem.finish("bench_reconfig", {{"fault_pct", std::to_string(fault_pct)},
                                    {"vls", std::to_string(vls)},
                                    {"seed", std::to_string(seed)},
                                    {"threads", std::to_string(threads)}});
  }
  return 0;
}
