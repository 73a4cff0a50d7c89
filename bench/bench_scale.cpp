// Scale sweep (docs/SCALING.md): wall time, peak RSS and per-phase span
// breakdown of Nue routing on tori and fat-trees from 10^3 to >= 10^5
// switches, with a million-switch torus gated behind --max-switches.
//
// Routing every terminal at 10^5+ switches is an O(dests x CDG) wall, so
// the sweep routes a deterministic evenly-spaced sample of the terminals
// (--dests; the full set whenever it is smaller) and selects escape roots
// with the pivot-sampled Brandes estimator (--pivots) — a single-core run
// covers the default sweep in minutes while still exercising every phase
// (partition, convex hull, escape tree, per-destination Dijkstra,
// balancing) at full fabric size.
//
//   --smoke           tiny fabrics (the tier-1 stage; finishes in seconds)
//   --max-switches N  largest fabric to run (default 150000; raise to
//                     1000000 to add the million-switch torus)
//   --dests N         destination sample size (default 0 = auto tier by
//                     fabric size: 64 -> 8 as switches grow; N >= the
//                     terminal count routes all of them)
//   --pivots N        Brandes pivots for escape roots (default 64;
//                     0 = exact Brandes — intractable at 10^5 switches)
//   --vls K           virtual lanes (default 4)
//   --threads N       routing worker threads (default 1, the CI machine)
//   --no-validate     skip the validation oracle (pure routing time only)
//   --json FILE       records (default BENCH_scale.json; '' = skip)
#include <fstream>
#include <functional>
#include <iostream>
#include <optional>

#include "bench_common.hpp"
#include "nue/nue_routing.hpp"
#include "routing/validate.hpp"
#include "telemetry/cli.hpp"
#include "topology/torus.hpp"
#include "topology/trees.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

namespace {

using nue::Json;
using nue::Network;

struct ScaleCase {
  std::string family;            // "torus" | "fattree"
  std::string label;             // e.g. "47x47x47", "24-ary-4-tree"
  std::uint64_t switches;        // for the --max-switches gate
  std::function<Network()> build;
};

ScaleCase torus_case(std::uint32_t x, std::uint32_t y, std::uint32_t z) {
  const std::string label = std::to_string(x) + "x" + std::to_string(y) +
                            "x" + std::to_string(z);
  return {"torus", label,
          static_cast<std::uint64_t>(x) * y * z,
          [=] {
            nue::TorusSpec spec{{x, y, z}, 1, 1};
            return make_torus(spec);
          }};
}

ScaleCase fattree_case(std::uint32_t k, std::uint32_t n) {
  const std::string label =
      std::to_string(k) + "-ary-" + std::to_string(n) + "-tree";
  std::uint64_t per_stage = 1;
  for (std::uint32_t i = 1; i < n; ++i) per_stage *= k;
  return {"fattree", label, per_stage * n,
          [=] {
            nue::FatTreeSpec spec{k, n, 1, 0};
            return make_kary_ntree(spec);
          }};
}

/// Default destination budget per fabric size. Nue's per-destination cost
/// grows with the restrictions accumulated by the layer's earlier
/// destinations (omega and the blocked-edge marks are layer-lived,
/// §4.6.1), so the budget shrinks as fabrics grow to keep a single-core
/// sweep in minutes; every reduction is logged, never silent.
std::size_t dest_budget(std::uint64_t switches) {
  if (switches <= 2000) return 64;
  if (switches <= 20000) return 32;
  if (switches <= 150000) return 16;
  return 8;
}

/// Deterministic destination sample: evenly spaced over the terminals in
/// ascending id order (the same spacing discipline as the Brandes pivots,
/// so repeated runs and different machines route identical tables).
std::vector<nue::NodeId> sample_dests(const Network& net, std::size_t want) {
  const auto terms = net.terminals();
  if (want == 0 || want >= terms.size()) return terms;
  std::vector<nue::NodeId> out;
  out.reserve(want);
  for (std::size_t i = 0; i < want; ++i) {
    out.push_back(terms[i * terms.size() / want]);
  }
  return out;
}

struct ScaleRecord {
  std::string family;
  std::string topology;
  std::uint64_t switches = 0;
  std::uint64_t terminals = 0;
  std::uint64_t channels = 0;
  std::uint64_t dests = 0;
  std::uint32_t vls = 0;
  std::uint32_t threads = 0;
  std::uint64_t pivots = 0;
  double build_ms = 0.0;
  double wall_ms = 0.0;
  bool valid = false;
  // VmHWM right after the run (monotone over the sweep, so the per-record
  // value shows which fabric first raised the footprint; nullopt =
  // unavailable, and the JSON key is omitted rather than written as 0).
  std::optional<double> peak_rss_mb;
  std::vector<nue::bench::PhaseTiming> phases;
};

void write_json(const std::string& path,
                const std::vector<ScaleRecord>& recs) {
  Json out = Json::object();
  out.set("schema_version", 1);
  out.set("tool", "bench_scale");
  if (const auto rss = nue::peak_rss_mb()) out.set("peak_rss_mb", *rss);
  Json records = Json::array();
  for (const auto& r : recs) {
    Json j = Json::object();
    j.set("family", r.family);
    j.set("topology", r.topology);
    j.set("switches", r.switches);
    j.set("terminals", r.terminals);
    j.set("channels", r.channels);
    j.set("dests", r.dests);
    j.set("vls", r.vls);
    j.set("threads", r.threads);
    j.set("pivots", r.pivots);
    j.set("build_ms", r.build_ms);
    j.set("wall_ms", r.wall_ms);
    j.set("valid", r.valid);
    if (r.peak_rss_mb) j.set("peak_rss_mb", *r.peak_rss_mb);
    j.set("phases", nue::bench::phases_json(r.phases));
    records.push_back(std::move(j));
  }
  out.set("records", std::move(records));
  std::ofstream(path) << out.dump() << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace nue;
  using namespace nue::bench;
  Flags flags(argc, argv);
  const bool smoke = flags.get_bool(
      "smoke", false, "tiny fabrics only (the tier-1 smoke stage)");
  const auto max_switches = static_cast<std::uint64_t>(flags.get_int(
      "max-switches", 150000,
      "largest fabric (switches); 1000000 adds the million-switch torus"));
  const auto min_switches = static_cast<std::uint64_t>(flags.get_int(
      "min-switches", 0, "skip fabrics smaller than this (resume big end)"));
  const auto want_dests = static_cast<std::size_t>(flags.get_int(
      "dests", 0,
      "destination sample size (0 = auto tier by fabric size; a value "
      ">= the terminal count routes all of them)"));
  const auto pivots = static_cast<std::size_t>(flags.get_int(
      "pivots", 64, "Brandes pivots for escape roots (0 = exact)"));
  const auto vls = static_cast<std::uint32_t>(
      flags.get_int("vls", 4, "virtual lanes"));
  const auto threads = static_cast<std::uint32_t>(
      flags.get_int("threads", 1, "routing worker threads"));
  const bool no_validate = flags.get_bool(
      "no-validate", false, "skip the validation oracle");
  const std::string json_path = flags.get_string(
      "json", "BENCH_scale.json", "records JSON ('' = skip)");
  telemetry::Cli telem;
  telem.register_flags(flags);
  if (!flags.finish()) return 1;

  // 10^3 -> 10^5 per family; the fat-tree tops out lower because its CDG
  // is denser (every extra port multiplies the per-channel fan-out), so
  // the >= 10^5 acceptance point is carried by the 47^3 torus.
  std::vector<ScaleCase> cases;
  if (smoke) {
    cases.push_back(torus_case(6, 6, 6));     // 216
    cases.push_back(fattree_case(8, 3));      // 192
  } else {
    cases.push_back(torus_case(10, 10, 10));  // 1,000
    cases.push_back(fattree_case(18, 3));     // 972
    cases.push_back(torus_case(22, 22, 22));  // 10,648
    cases.push_back(fattree_case(15, 4));     // 13,500
    cases.push_back(fattree_case(24, 4));     // 55,296
    cases.push_back(torus_case(47, 47, 47));  // 103,823
    cases.push_back(torus_case(100, 100, 100));  // 1,000,000 (gated)
  }

  Table table({"family", "topology", "switches", "channels", "dests",
               "wall [s]", "peak RSS [MB]", "valid"});
  std::vector<ScaleRecord> records;
  for (const auto& c : cases) {
    if (c.switches > max_switches || c.switches < min_switches) continue;
    Timer build_timer;
    const Network net = c.build();
    const double build_ms = build_timer.seconds() * 1e3;
    const std::size_t want =
        want_dests != 0 ? want_dests : dest_budget(c.switches);
    const auto dests = sample_dests(net, want);
    if (dests.size() < net.terminals().size()) {
      std::cerr << c.family << " " << c.label << ": routing "
                << dests.size() << " of " << net.terminals().size()
                << " terminals (evenly spaced sample)\n";
    }

    const auto run = run_routing("nue", [&] {
      NueOptions opt;
      opt.num_vls = vls;
      opt.num_threads = threads;
      opt.betweenness_pivots = pivots;
      return route_nue(net, dests, opt);
    });

    ScaleRecord rec;
    rec.family = c.family;
    rec.topology = c.label;
    rec.switches = c.switches;
    rec.terminals = net.num_alive_terminals();
    rec.channels = net.num_alive_channels();
    rec.dests = dests.size();
    rec.vls = vls;
    rec.threads = threads;
    rec.pivots = pivots;
    rec.build_ms = build_ms;
    rec.wall_ms = run.seconds * 1e3;
    rec.phases = run.phases;
    if (run.rr) {
      if (no_validate) {
        rec.valid = true;  // trusted; the smoke/CI stage always validates
      } else {
        rec.valid = validate_routing(net, *run.rr).ok();
      }
    }
    rec.peak_rss_mb = peak_rss_mb();
    records.push_back(rec);

    char wall[32], rss[32];
    std::snprintf(wall, sizeof(wall), "%.2f", run.seconds);
    if (rec.peak_rss_mb) {
      std::snprintf(rss, sizeof(rss), "%.1f", *rec.peak_rss_mb);
    } else {
      std::snprintf(rss, sizeof(rss), "n/a");
    }
    table.row() << rec.family << rec.topology << rec.switches
                << rec.channels << rec.dests << wall << rss
                << (rec.valid ? "yes" : "NO");
    std::cerr << c.family << " " << c.label << " done (" << wall << "s)\n";
    if (!run.rr) {
      std::cerr << "  routing failed: " << run.note << "\n";
    }
  }
  table.print();
  if (!json_path.empty()) write_json(json_path, records);
  if (telem.wanted()) {
    telem.finish("bench_scale",
                 {{"smoke", smoke ? "1" : "0"},
                  {"max_switches", std::to_string(max_switches)},
                  {"dests", std::to_string(want_dests)},
                  {"pivots", std::to_string(pivots)},
                  {"vls", std::to_string(vls)},
                  {"threads", std::to_string(threads)}});
  }
  // The acceptance gate: every attempted fabric must route and validate.
  for (const auto& r : records) {
    if (!r.valid) return 2;
  }
  return 0;
}
