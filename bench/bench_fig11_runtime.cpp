// Figure 11 reproduction: routing runtime and applicability on 3D tori of
// growing size (paper: 2x2x2 up to 10x10x10, 4 terminals per switch, 1%
// link failures, 8-VL cap).
//
// Expected shape (paper): Torus-2QoS fastest (~9x faster than Nue);
// Nue faster than DFSSSP; LASH slowest and, like DFSSSP, eventually
// inapplicable (VL demand > 8) — missing table entries; Torus-2QoS fails
// whenever the injected faults break a ring twice; Nue is applicable on
// 100% of the fabrics.
//
//   --max-switches N  largest torus (switch count) to run (default 343 =
//                     7x7x7; paper goes to 1000 = 10x10x10)
//   --fault-pct P     link failure percentage (default 1.0)
//   --threads LIST    comma-separated worker-thread counts to sweep
//                     (default "1"; e.g. 1,2,8 reports parallel speedups)
//   --csv FILE
//   --json FILE       per-(topology, engine, threads) wall-time records
//                     (default BENCH_runtime.json)
#include <cmath>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>

#include "bench_common.hpp"
#include "nue/nue_routing.hpp"
#include "routing/dfsssp.hpp"
#include "routing/lash.hpp"
#include "routing/torus_qos.hpp"
#include "routing/validate.hpp"
#include "telemetry/cli.hpp"
#include "topology/faults.hpp"
#include "topology/torus.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

namespace {

using nue::Json;

struct JsonRecord {
  std::string topology;
  std::string engine;
  std::uint32_t threads;
  double wall_ms;
  bool applicable;
  // Fault injection can fall short of the request (inject_link_failures
  // skips bridges and gives up after a bounded number of attempts); the
  // records carry the achieved count so the fault rate is never mislabeled.
  std::size_t faults_requested;
  std::size_t faults_achieved;
  std::vector<nue::bench::PhaseTiming> phases;  // telemetry span aggregates
  // Process VmHWM right after the run: the high-water mark is monotone
  // over the sweep, so the per-record value shows which fabric size first
  // pushed the footprint up (nullopt = unavailable on this platform; the
  // JSON key is omitted rather than written as a fake 0).
  std::optional<double> peak_rss_mb = nue::peak_rss_mb();
};

std::vector<std::uint32_t> parse_thread_list(const std::string& s) {
  std::vector<std::uint32_t> out;
  std::stringstream ss(s);
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    if (!tok.empty()) out.push_back(static_cast<std::uint32_t>(std::stoul(tok)));
  }
  if (out.empty()) out.push_back(1);
  return out;
}

void write_json(const std::string& path, const std::vector<JsonRecord>& recs) {
  Json out = Json::array();
  for (const auto& r : recs) {
    Json j = Json::object();
    j.set("topology", r.topology);
    j.set("engine", r.engine);
    j.set("threads", r.threads);
    j.set("wall_ms", r.wall_ms);
    j.set("applicable", r.applicable);
    j.set("faults_requested", r.faults_requested);
    j.set("faults_achieved", r.faults_achieved);
    if (r.peak_rss_mb) j.set("peak_rss_mb", *r.peak_rss_mb);
    j.set("phases", nue::bench::phases_json(r.phases));
    out.push_back(std::move(j));
  }
  std::ofstream(path) << out.dump() << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace nue;
  using namespace nue::bench;
  Flags flags(argc, argv);
  const auto max_switches = static_cast<std::uint32_t>(flags.get_int(
      "max-switches", 343, "largest torus size in switches (paper: 1000)"));
  const double fault_pct =
      flags.get_double("fault-pct", 1.0, "percentage of failed links");
  const auto seed =
      static_cast<std::uint64_t>(flags.get_int("seed", 11, "fault seed"));
  const std::string csv = flags.get_string("csv", "", "CSV output path");
  const auto thread_list = parse_thread_list(flags.get_string(
      "threads", "1", "comma-separated worker-thread counts to sweep"));
  const std::string json_path = flags.get_string(
      "json", "BENCH_runtime.json",
      "per-(topology, engine, threads) wall-time JSON ('' = skip)");
  telemetry::Cli telem;
  telem.register_flags(flags);
  if (!flags.finish()) return 1;

  // The paper's dimension sequence: 2x2x2, 2x2x3, 2x3x3, 3x3x3, ...
  std::vector<std::vector<std::uint32_t>> sizes;
  for (std::uint32_t base = 2; base <= 9; ++base) {
    sizes.push_back({base, base, base});
    sizes.push_back({base, base, base + 1});
    sizes.push_back({base, base + 1, base + 1});
  }
  sizes.push_back({10, 10, 10});  // the paper's 25th and largest torus

  Table table({"torus", "terminals", "faults", "torus-2qos [s]", "lash [s]",
               "dfsssp [s]", "nue-8 [s]"});
  std::vector<JsonRecord> records;
  for (const auto& dims : sizes) {
    const std::uint32_t nsw = dims[0] * dims[1] * dims[2];
    if (nsw > max_switches) break;
    TorusSpec spec{dims, 4, 1};
    Network net = make_torus(spec);
    Rng rng(seed + nsw);
    const auto faults_requested = static_cast<std::size_t>(
        std::ceil(fault_pct / 100.0 * 3.0 * nsw));
    const auto faults = inject_link_failures(net, faults_requested, rng);
    if (faults < faults_requested) {
      std::cerr << "warning: only " << faults << "/" << faults_requested
                << " link failures injectable on " << dims[0] << "x"
                << dims[1] << "x" << dims[2] << "\n";
    }
    const auto dests = net.terminals();

    auto cell = [&](const RoutingRun& run) -> std::string {
      if (!run.rr) return "fail";
      // Validate (cheap relative to routing) but report pure routing time,
      // matching the paper's measurement.
      const auto rep = validate_routing(net, *run.rr);
      if (!rep.ok()) return "INVALID";
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.3f", run.seconds);
      return buf;
    };

    const std::string label = std::to_string(dims[0]) + "x" +
                              std::to_string(dims[1]) + "x" +
                              std::to_string(dims[2]);

    // Torus-2QoS has no parallel phase: one serial run per fabric.
    const auto qos = run_routing(
        "qos", [&] { return route_torus_qos(net, spec, dests); });
    records.push_back({label, "torus-2qos", 1, qos.seconds * 1e3,
                       qos.rr.has_value(), faults_requested, faults,
                       qos.phases});

    // The threaded engines sweep every requested worker count; the table
    // shows the first entry (default 1 = the legacy serial measurement).
    RoutingRun lash, dfsssp, nue;
    for (std::size_t ti = 0; ti < thread_list.size(); ++ti) {
      const std::uint32_t t = thread_list[ti];
      const auto lash_t = run_routing("lash", [&] {
        return route_lash(net, dests, {.max_vls = 8, .num_threads = t});
      });
      const auto dfsssp_t = run_routing("dfsssp", [&] {
        return route_dfsssp(net, dests, {.max_vls = 8, .num_threads = t});
      });
      const auto nue_t = run_routing("nue", [&] {
        NueOptions opt;
        opt.num_vls = 8;
        opt.num_threads = t;
        return route_nue(net, dests, opt);
      });
      records.push_back({label, "lash", t, lash_t.seconds * 1e3,
                         lash_t.rr.has_value(), faults_requested, faults,
                         lash_t.phases});
      records.push_back({label, "dfsssp", t, dfsssp_t.seconds * 1e3,
                         dfsssp_t.rr.has_value(), faults_requested, faults,
                         dfsssp_t.phases});
      records.push_back({label, "nue", t, nue_t.seconds * 1e3,
                         nue_t.rr.has_value(), faults_requested, faults,
                         nue_t.phases});
      if (ti == 0) {
        lash = lash_t;
        dfsssp = dfsssp_t;
        nue = nue_t;
      } else if (nue_t.rr) {
        std::cerr << label << " nue threads=" << t << ": "
                  << nue_t.seconds * 1e3 << " ms ("
                  << (nue.seconds / nue_t.seconds) << "x vs threads="
                  << thread_list[0] << ")\n";
      }
    }

    table.row() << label << dests.size() << faults << cell(qos) << cell(lash)
                << cell(dfsssp) << cell(nue);
    std::cerr << label << " done\n";
  }
  table.print();
  if (!csv.empty()) table.write_csv(csv);
  if (!json_path.empty()) write_json(json_path, records);
  if (telem.wanted()) {
    telem.finish("bench_fig11_runtime",
                 {{"max_switches", std::to_string(max_switches)},
                  {"fault_pct", std::to_string(fault_pct)},
                  {"seed", std::to_string(seed)}});
  }
  std::cout << "\n('fail' = engine inapplicable: VL demand above 8 for "
               "LASH/DFSSSP, broken ring for Torus-2QoS —\n the paper's "
               "missing dots. Nue must never fail.)\n";
  return 0;
}
