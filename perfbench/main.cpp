// Operator-path benchmark for the Nue routing stack (perfbench/README.md).
//
//   nue_perfbench --workload bringup|churn|alltoall --seed N --seconds S
//                 --trace 0|1 [--scratch DIR]
//
// The workload builds its inputs from the seed, measures for S seconds,
// checks every output, and prints two JSON lines on stdout: the
// workload's named record, then the result object (correct, attempted,
// failed, metrics). --trace 0 reports the end-to-end metrics with
// telemetry off; --trace 1 reports the per-layer metrics from a traced
// phase plus the tracing overhead against an untraced phase. The exit
// code is 0 only when every correctness gate held.
#include <cstdlib>
#include <exception>
#include <iomanip>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>

#include "common.hpp"
#include "service/json.hpp"

namespace perfbench {
namespace {

using nue::service::Json;

// Every span the per-layer self times are reported for: the library's own
// spans on the measured paths, then the benchmark's spans around each
// public call. Spans outside this list fold into self_ms.other.
const char* const kSpans[] = {
    "nue.route",          "nue.partition",         "nue.layer",
    "nue.escape_root",    "nue.escape_paths",      "nue.dest",
    "nue.reroute",        "nue.reroute_layer",     "validate.routing",
    "validate.columns",   "validate.union_gate",   "resilience.initial",
    "resilience.event",   "resilience.wave_chain", "resilience.wave_schedule",
    "sim.run",            "pool.task",             "pool.caller",
    "bench.route_nue",    "bench.validate_routing", "bench.compile_ib_tables",
    "bench.verify_compiled", "bench.ib_walk",      "bench.event_rpc",
    "bench.route_rpc",    "bench.metrics_rpc",     "bench.simulate",
    "bench.trace_route",
};

double per_op(double total, double ops) { return ops > 0 ? total / ops : 0.0; }
double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

std::vector<Metric> layer_metrics(const SpanLedger& ledger,
                                  const LayerContext& ctx) {
  const auto ms = [&](const char* span) {
    return per_op(ledger.get(span).total_ms, ctx.ops);
  };
  const auto count = [&](const char* name) {
    return per_op(counter_value(name), ctx.ops);
  };
  const double route_server_p50 =
      histogram_quantile("service.request_us.route", 0.5);
  const double omega_hits = counter_value("nue.omega_hits");
  const double omega_searches = counter_value("nue.omega_searches");
  const double transitions = counter_value("resilience.transitions");

  std::vector<Metric> m = {
      {"topology.generate_s", ctx.topology_generate_s, "s"},
      {"topology.faults_s", ctx.topology_faults_s, "s"},
      {"nue.route_s", ms("nue.route") / 1e3, "s"},
      {"nue.partition_ms", ms("nue.partition"), "ms"},
      {"nue.escape_root_ms", ms("nue.escape_root"), "ms"},
      {"nue.escape_paths_ms", ms("nue.escape_paths"), "ms"},
      {"nue.dest_ms", ms("nue.dest"), "ms"},
      {"nue.dest_count",
       per_op(static_cast<double>(ledger.get("nue.dest").count), ctx.ops),
       "count"},
      {"nue.layer_ms", ms("nue.layer"), "ms"},
      {"nue.parallel_eff",
       ratio(ledger.get("nue.layer").total_ms,
             ledger.get("nue.route").total_ms * ctx.nue_threads),
       "ratio"},
      {"nue.omega_hit_ratio", ratio(omega_hits, omega_hits + omega_searches),
       "ratio"},
      {"nue.backtracks", count("nue.backtracks"), "count"},
      {"nue.impasses", count("nue.impasses"), "count"},
      {"nue.escape_fallbacks", count("nue.escape_fallbacks"), "count"},
      {"nue.reroute_ms", ms("nue.reroute"), "ms"},
      {"validate.routing_s", ms("validate.routing") / 1e3, "s"},
      {"validate.columns_ms", ms("validate.columns"), "ms"},
      {"validate.union_gate_ms", ms("validate.union_gate"), "ms"},
      {"validate.union_gate_count",
       per_op(static_cast<double>(ledger.get("validate.union_gate").count),
              ctx.ops),
       "count"},
      {"ib.compile_s", ms("bench.compile_ib_tables") / 1e3, "s"},
      {"ib.verify_s", ms("bench.verify_compiled") / 1e3, "s"},
      {"resilience.event_ms", ms("resilience.event"), "ms"},
      {"resilience.rung_attempts_per_event",
       ratio(counter_value("resilience.ladder_rung"), transitions), "ratio"},
      {"resilience.hitless_ratio",
       ratio(counter_value("resilience.hitless"), transitions), "ratio"},
      {"resilience.wave_schedule_ms", ms("resilience.wave_schedule"), "ms"},
      {"resilience.waves", count("resilience.waves"), "count"},
      {"resilience.drains", count("resilience.drains"), "count"},
      {"service.route_server_p50_us", route_server_p50, "us"},
      {"service.route_server_p99_us",
       histogram_quantile("service.request_us.route", 0.99), "us"},
      {"service.transport_p50_us",
       ctx.client_route_p50_us > 0 ? ctx.client_route_p50_us - route_server_p50
                                   : 0.0,
       "us"},
      {"service.event_server_p50_us",
       histogram_quantile("service.request_us.event", 0.5), "us"},
      {"service.metrics_p50_us",
       histogram_quantile("service.request_us.metrics", 0.5), "us"},
      {"service.request_errors", counter_value("service.request_errors"),
       "count"},
      {"pool.task_ms", ms("pool.task"), "ms"},
      {"pool.caller_ms", ms("pool.caller"), "ms"},
      {"sim.run_s", ms("sim.run") / 1e3, "s"},
      {"sim.events_processed", ctx.sim_events, "count"},
      {"sim.queue_peak", ctx.sim_queue_peak, "count"},
      {"sim.cycles", ctx.sim_cycles, "count"},
      {"sim.delivered_bytes", ctx.sim_delivered_bytes, "bytes"},
      {"telemetry.overhead_frac", ctx.overhead_frac, "ratio"},
      {"telemetry.dropped_spans",
       static_cast<double>(nue::telemetry::Tracer::instance().dropped()),
       "count"},
      {"bench.ops", ctx.ops, "count"},
  };
  double other_ms = 0.0;
  for (const auto& [name, e] : ledger.entries()) {
    bool known = false;
    for (const char* s : kSpans) known = known || name == s;
    if (!known) other_ms += e.self_ms;
  }
  for (const char* s : kSpans) {
    m.push_back({std::string("self_ms.") + s,
                 per_op(ledger.get(s).self_ms, ctx.ops), "ms"});
  }
  m.push_back({"self_ms.other", per_op(other_ms, ctx.ops), "ms"});
  return m;
}

namespace {

Json metrics_object(const std::vector<Metric>& metrics) {
  Json obj = Json::object();
  for (const Metric& m : metrics) {
    Json v = Json::object();
    v.set("value", m.value);
    v.set("unit", m.unit);
    obj.set(m.name, std::move(v));
  }
  return obj;
}

/// One JSON line through service::Json, with every digit a double holds.
void print_line(const Json& j) {
  std::ostringstream os;
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  j.write(os);
  std::cout << os.str() << "\n";
}

bool parse_args(int argc, char** argv, Args& a) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::cerr << "missing value for " << flag << "\n";
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      a.trace = value == "1";
      if (value != "0" && value != "1") return false;
    } else if (flag == "--scratch") {
      a.scratch = value;
    } else {
      std::cerr << "unknown flag " << flag << "\n";
      return false;
    }
    if (end != nullptr && *end != '\0') {
      std::cerr << "malformed number for " << flag << ": " << value << "\n";
      return false;
    }
  }
  return have_workload && a.seconds > 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::cerr << "usage: nue_perfbench --workload bringup|churn|alltoall "
                 "--seed N --seconds S --trace 0|1 [--scratch DIR]\n";
    return 2;
  }
  Report rep;
  try {
    if (args.workload == "bringup") {
      rep = run_bringup(args);
    } else if (args.workload == "churn") {
      rep = run_churn(args);
    } else if (args.workload == "alltoall") {
      rep = run_alltoall(args);
    } else {
      std::cerr << "unknown workload '" << args.workload << "'\n";
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << args.workload << " aborted: " << e.what()
              << "\n";
    return 1;
  }
  for (const std::string& e : rep.errors) {
    std::cerr << "perfbench: correctness failure: " << e << "\n";
  }

  Json record = Json::object();
  record.set("workload", args.workload);
  record.set("seed", args.seed);
  record.set("record", metrics_object(rep.record));
  print_line(record);

  Json result = Json::object();
  result.set("correct", rep.correct());
  result.set("attempted", rep.attempted);
  result.set("failed", rep.failed);
  result.set("metrics",
             metrics_object(args.trace ? rep.per_layer : rep.end_to_end));
  print_line(result);
  return rep.correct() ? 0 : 1;
}
