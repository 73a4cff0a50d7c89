// Shared helpers for the figure/table reproduction harnesses.
#pragma once

#include <functional>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "graph/network.hpp"
#include "routing/routing.hpp"
#include "routing/validate.hpp"
#include "sim/flit_sim.hpp"
#include "telemetry/telemetry.hpp"
#include "util/json.hpp"
#include "util/rss.hpp"
#include "util/timer.hpp"

namespace nue::bench {

/// Aggregated telemetry spans of one engine run (e.g. nue.partition,
/// nue.layer, validate.routing) — the per-phase breakdown the BENCH_*.json
/// records carry next to the end-to-end wall time.
struct PhaseTiming {
  std::string name;
  std::uint64_t count = 0;
  double total_ms = 0.0;
};

struct RoutingRun {
  std::string name;
  std::optional<RoutingResult> rr;  // empty = engine inapplicable
  std::string note;                 // failure reason / VL demand info
  double seconds = 0.0;
  std::uint32_t vls = 0;            // VLs used for deadlock freedom
  std::vector<PhaseTiming> phases;  // span aggregates of this run
};

/// Run a routing engine, catching RoutingFailure into an "inapplicable"
/// outcome (the blank bars / missing dots of the paper's figures).
/// Telemetry is enabled for the duration of the run so the engine's phase
/// spans land in `phases` (delta-aggregated: concurrent bench state is
/// not clobbered, earlier spans are not double-counted).
inline RoutingRun run_routing(const std::string& name,
                              const std::function<RoutingResult()>& fn) {
  RoutingRun run;
  run.name = name;
  const telemetry::EnabledScope telem(true);
  const std::size_t mark = telemetry::Tracer::instance().collect();
  Timer t;
  try {
    run.rr.emplace(fn());
    run.seconds = t.seconds();
    run.vls = run.rr->num_vls();
  } catch (const RoutingFailure& e) {
    run.seconds = t.seconds();
    run.note = e.what();
  }
  for (const auto& [span_name, agg] :
       telemetry::Tracer::instance().aggregate_since(mark)) {
    run.phases.push_back(
        {span_name, agg.count, static_cast<double>(agg.total_ns) / 1e6});
  }
  return run;
}

/// JSON array of a run's phase aggregates, for the BENCH_*.json writers.
inline Json phases_json(const std::vector<PhaseTiming>& phases) {
  Json out = Json::array();
  for (const PhaseTiming& p : phases) {
    out.push_back(Json::object()
                      .set("name", p.name)
                      .set("count", p.count)
                      .set("total_ms", p.total_ms));
  }
  return out;
}

/// Validate + simulate an all-to-all exchange; returns normalized
/// throughput (fraction of terminal line rate) or a failure marker.
inline std::string throughput_cell(const Network& net, const RoutingRun& run,
                                   std::uint32_t message_bytes,
                                   std::uint32_t shift_samples,
                                   double* value_out = nullptr) {
  if (!run.rr) return "n/a";
  const auto rep = validate_routing(net, *run.rr);
  if (!rep.ok()) return "INVALID(" + rep.detail + ")";
  SimConfig cfg;
  const auto msgs = alltoall_shift_messages(net, message_bytes, shift_samples);
  const auto res = simulate(net, *run.rr, msgs, cfg);
  if (res.deadlocked) return "DEADLOCK";
  if (!res.completed) return "TIMEOUT";
  if (value_out) *value_out = res.normalized_throughput;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4f", res.normalized_throughput);
  return buf;
}

}  // namespace nue::bench
