// Differential routing fuzzer CLI (see docs/FUZZING.md).
//
// Modes:
//   --smoke            fixed-seed corpus over every generator x engine,
//                      plus an oracle self-test (deliberately broken
//                      tables must be caught, minimized, and replayed).
//                      Small and deterministic: the tier-1 CI gate.
//   --count N          random batch of N drawn scenarios (default mode).
//   --reconfig         draw reconfiguration scenarios instead: each drives
//                      a fault/repair trace through the live resilience
//                      manager and checks every epoch and swap (the smoke
//                      corpus always contains a few of these).
//   --nightly          alias for a large random batch (--count 2000).
//   --replay FILE      re-run one reproducer file.
//   --inject-bug M     self-test sweep: apply mutation M (vl-overflow or
//                      drop-entry) to every scenario; any table that
//                      slips through the oracle is reported.
//
// Every failing scenario is printed with its spec label (which alone
// replays it); with --repro-dir the failure is also shrunk by the greedy
// minimizer and written as a replayable .repro file.
//
// Exit code: 0 = no violations, 2 = violations found, 1 = usage error.
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "fuzz/fuzz.hpp"
#include "telemetry/cli.hpp"
#include "util/flags.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace {

using namespace nue;
using namespace nue::fuzz;

struct Totals {
  std::size_t scenarios = 0;
  std::size_t violations = 0;
  std::size_t inapplicable = 0;
  std::size_t sim_checked = 0;
  std::size_t sim_deadlocks = 0;       // observed (expected for minhop)
  std::size_t fault_shortfalls = 0;    // achieved < requested scenarios
  std::size_t reconfig_checked = 0;    // reconfiguration scenarios run
  std::size_t reconfig_transitions = 0;
  std::size_t reconfig_hitless = 0;
  std::size_t reconfig_drained = 0;
  std::size_t reconfig_waved = 0;         // wave chains (drains avoided)
  std::size_t reconfig_wave_commits = 0;  // epochs those chains committed
};

Totals summarize(const std::vector<ScenarioOutcome>& outcomes) {
  Totals t;
  t.scenarios = outcomes.size();
  for (const auto& o : outcomes) {
    if (!o.report.ok()) ++t.violations;
    if (!o.report.applicable) ++t.inapplicable;
    if (o.report.sim_checked) ++t.sim_checked;
    if (o.report.sim_deadlocked) ++t.sim_deadlocks;
    if (o.link_faults < o.spec.fail_links ||
        o.switch_faults < o.spec.fail_switches) {
      ++t.fault_shortfalls;
    }
    if (o.report.reconfig_checked) {
      ++t.reconfig_checked;
      t.reconfig_transitions += o.report.reconfig_transitions;
      t.reconfig_hitless += o.report.reconfig_hitless;
      t.reconfig_drained += o.report.reconfig_drained;
      t.reconfig_waved += o.report.reconfig_waved;
      t.reconfig_wave_commits += o.report.reconfig_wave_commits;
    }
  }
  return t;
}

void print_failures(const std::vector<ScenarioOutcome>& outcomes) {
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const auto& o = outcomes[i];
    if (o.report.ok()) continue;
    std::cout << "FAIL [" << i << "] " << o.spec.label() << "\n";
    for (const auto& v : o.report.violations) {
      std::cout << "    " << v << "\n";
    }
  }
}

void write_json(const std::string& path,
                const std::vector<ScenarioOutcome>& outcomes,
                const Totals& t) {
  Json j = Json::object();
  j.set("scenarios", t.scenarios);
  j.set("violations", t.violations);
  j.set("inapplicable", t.inapplicable);
  j.set("sim_checked", t.sim_checked);
  j.set("sim_deadlocks", t.sim_deadlocks);
  j.set("fault_shortfalls", t.fault_shortfalls);
  j.set("reconfig_checked", t.reconfig_checked);
  j.set("reconfig_transitions", t.reconfig_transitions);
  j.set("reconfig_hitless", t.reconfig_hitless);
  j.set("reconfig_drained", t.reconfig_drained);
  j.set("reconfig_waved", t.reconfig_waved);
  j.set("reconfig_wave_commits", t.reconfig_wave_commits);
  Json failures = Json::array();
  for (const auto& o : outcomes) {
    if (o.report.ok()) continue;
    failures.push_back(Json::object()
                           .set("label", o.spec.label())
                           .set("kind", violation_kind(o.report)));
  }
  j.set("failures", std::move(failures));
  std::ofstream(path) << j.dump() << "\n";
}

/// Re-run a minimized reproducer with telemetry on and write the span
/// trace + metrics snapshot next to it, so a failure ships with its own
/// diagnosis bundle (see docs/OBSERVABILITY.md). Resets the telemetry
/// sinks around the re-run; callers must export any batch-level trace
/// before dumping reproducers.
void dump_diagnosis(const Reproducer& r, const std::string& stem,
                    const OracleConfig& ocfg) {
  telemetry::reset_all();
  ReplayResult res;
  {
    telemetry::EnabledScope scope(true);
    res = replay(r, ocfg);
  }
  {
    std::ofstream os(stem + ".trace.json");
    telemetry::write_chrome_trace(os, "route_fuzz");
  }
  {
    std::ofstream os(stem + ".metrics.json");
    telemetry::write_run_report(
        os, "route_fuzz",
        {{"label", r.spec.label()},
         {"expect", r.expect},
         {"reproduced", res.reproduced ? "true" : "false"}});
  }
  telemetry::reset_all();
}

/// Minimize each failure and write a replayable reproducer next to it,
/// plus the telemetry snapshot of the minimized re-run.
void dump_reproducers(const std::vector<ScenarioOutcome>& outcomes,
                      const std::string& dir, const MinimizeConfig& mcfg) {
  std::filesystem::create_directories(dir);
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const auto& o = outcomes[i];
    if (o.report.ok()) continue;
    const Reproducer r = minimize_scenario(o.spec, mcfg);
    std::stringstream name;
    name << dir << "/repro-" << i << "-" << r.expect;
    save_reproducer_file(name.str() + ".repro", r);
    dump_diagnosis(r, name.str(), mcfg.oracle);
    std::cout << "    wrote " << name.str() << ".repro (" << r.removals.size()
              << " shrink removals) + .trace.json/.metrics.json\n";
  }
}

/// Smoke-mode oracle self-test: deliberately broken tables across all
/// three VL modes must be caught; one of them must survive the full
/// minimize -> serialize -> parse -> replay loop.
bool oracle_self_test(std::uint64_t base_seed, const OracleConfig& ocfg) {
  bool ok = true;
  std::vector<ScenarioSpec> mutated;
  for (Engine e : {Engine::kNue, Engine::kDfsssp, Engine::kTorusQos}) {
    for (Mutation m : {Mutation::kVlOverflow, Mutation::kDropEntry}) {
      for (const auto& s : smoke_corpus(base_seed)) {
        if (s.engine == e && s.fail_links == 0 && s.vls >= 2) {
          ScenarioSpec broken = s;
          broken.mutation = m;
          mutated.push_back(broken);
          break;
        }
      }
    }
  }
  for (const auto& spec : mutated) {
    const OracleReport rep = run_scenario(spec, {}, ocfg);
    const std::string kind = violation_kind(rep);
    if (rep.ok() || kind == "mutation-not-caught") {
      std::cout << "SELF-TEST FAIL: " << spec.label()
                << " slipped through the oracle\n";
      ok = false;
    }
  }
  if (!mutated.empty()) {
    MinimizeConfig mcfg;
    mcfg.oracle = ocfg;
    const Reproducer r = minimize_scenario(mutated.front(), mcfg);
    std::stringstream buf;
    write_reproducer(buf, r);
    const ReplayResult res = replay(read_reproducer(buf), ocfg);
    if (!res.reproduced || !res.fabric_matches) {
      std::cout << "SELF-TEST FAIL: minimized reproducer for "
                << mutated.front().label() << " did not replay (reproduced="
                << res.reproduced << " fabric=" << res.fabric_matches
                << ")\n";
      ok = false;
    }
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const bool smoke =
      flags.get_bool("smoke", false, "fixed-seed CI corpus + oracle self-test");
  const bool nightly =
      flags.get_bool("nightly", false, "large random batch (--count 2000)");
  const bool reconfig = flags.get_bool(
      "reconfig", false,
      "draw reconfiguration scenarios (live-manager fault/repair traces)");
  const auto count = static_cast<std::size_t>(flags.get_int(
      "count", nightly ? 2000 : 200, "random scenarios to draw"));
  const auto seed =
      static_cast<std::uint64_t>(flags.get_int("seed", 1, "base seed"));
  const auto threads = flags.get_threads();
  const auto max_sim_nodes = static_cast<std::size_t>(flags.get_int(
      "max-sim-nodes", 72, "differential-sim fabric size bound (0 = off)"));
  const std::string inject =
      flags.get_string("inject-bug", "", "mutate every scenario (self-test)");
  const std::string repro_dir = flags.get_string(
      "repro-dir", "", "minimize failures and write .repro files here");
  const std::string replay_path =
      flags.get_string("replay", "", "replay one reproducer file");
  const std::string json_path =
      flags.get_string("json", "", "summary JSON output path");
  const auto minimize_trials = static_cast<std::size_t>(flags.get_int(
      "minimize-trials", 400, "scenario re-runs the minimizer may spend"));
  telemetry::Cli telem;
  telem.register_flags(flags);
  if (!flags.finish()) return 1;
  set_default_threads(threads);

  OracleConfig ocfg;
  ocfg.max_sim_nodes = max_sim_nodes;

  if (!replay_path.empty()) {
    const Reproducer r = load_reproducer_file(replay_path);
    const ReplayResult res = replay(r, ocfg);
    std::cout << "replay " << replay_path << ": " << r.spec.label() << "\n";
    std::cout << "  expect " << r.expect << ", got '"
              << violation_kind(res.report) << "', fabric "
              << (res.fabric_matches ? "matches" : "MISMATCH") << "\n";
    for (const auto& v : res.report.violations) std::cout << "  " << v << "\n";
    const bool ok = res.reproduced && res.fabric_matches;
    std::cout << (ok ? "reproduced\n" : "NOT reproduced\n");
    if (telem.wanted()) {
      telem.finish("route_fuzz",
                   {{"mode", "replay"},
                    {"replay", replay_path},
                    {"label", r.spec.label()},
                    {"expect", r.expect},
                    {"reproduced", res.reproduced ? "true" : "false"}});
    }
    return ok ? 0 : 2;
  }

  Mutation mutation = Mutation::kNone;
  if (!inject.empty()) {
    const auto m = mutation_from_name(inject);
    if (!m.has_value() || *m == Mutation::kNone) {
      std::cerr << "unknown --inject-bug '" << inject
                << "' (use vl-overflow or drop-entry)\n";
      return 1;
    }
    mutation = *m;
  }

  std::vector<ScenarioSpec> specs;
  if (smoke) {
    specs = smoke_corpus(seed);
  } else {
    specs.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      specs.push_back(reconfig ? draw_reconfig_scenario(seed, i)
                               : draw_scenario(seed, i));
    }
  }
  for (auto& s : specs) {
    if (mutation != Mutation::kNone) s.mutation = mutation;
  }

  FuzzConfig cfg;
  cfg.threads = threads;
  cfg.oracle = ocfg;
  Timer timer;
  const auto outcomes = run_batch(specs, cfg);
  const double seconds = timer.seconds();

  const Totals t = summarize(outcomes);
  print_failures(outcomes);
  // Export the batch-level trace before any reproducer dumps: diagnosis
  // re-runs reset the telemetry sinks per failure.
  if (telem.wanted()) {
    telem.finish("route_fuzz",
                 {{"mode", smoke ? "smoke" : reconfig ? "reconfig" : "random"},
                  {"count", std::to_string(specs.size())},
                  {"seed", std::to_string(seed)},
                  {"threads", std::to_string(threads)}});
  }
  if (!repro_dir.empty() && t.violations > 0) {
    MinimizeConfig mcfg;
    mcfg.max_trials = minimize_trials;
    mcfg.oracle = ocfg;
    dump_reproducers(outcomes, repro_dir, mcfg);
  }
  if (!json_path.empty()) write_json(json_path, outcomes, t);

  bool self_test_ok = true;
  if (smoke && mutation == Mutation::kNone) {
    self_test_ok = oracle_self_test(seed, ocfg);
  }

  std::cout << t.scenarios << " scenarios in " << seconds << " s: "
            << t.violations << " violations, " << t.inapplicable
            << " inapplicable, " << t.sim_checked << " sim-checked ("
            << t.sim_deadlocks << " deadlocked), " << t.fault_shortfalls
            << " with fault shortfall\n";
  if (t.reconfig_checked > 0) {
    std::cout << "reconfig: " << t.reconfig_checked << " scenarios, "
              << t.reconfig_transitions << " transitions ("
              << t.reconfig_hitless << " hitless, " << t.reconfig_drained
              << " drained, " << t.reconfig_waved << " waved across "
              << t.reconfig_wave_commits << " wave epochs)\n";
  }
  if (mutation != Mutation::kNone) {
    // Self-test sweep: violations are the expected outcome; the failure
    // mode is a mutated-but-applicable scenario the oracle missed.
    std::size_t missed = 0;
    for (const auto& o : outcomes) {
      if (o.report.applicable &&
          violation_kind(o.report) == "mutation-not-caught") {
        ++missed;
      }
    }
    std::cout << "inject-bug sweep: " << missed
              << " mutated tables slipped through\n";
    return missed == 0 ? 0 : 2;
  }
  if (!self_test_ok) return 2;
  return t.violations == 0 ? 0 : 2;
}
