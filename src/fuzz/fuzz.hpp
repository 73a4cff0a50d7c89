// Differential routing fuzzer and invariant oracle (see docs/FUZZING.md).
//
// A ScenarioSpec is a tiny, fully serializable description of one fuzz
// case: a topology generator spec string, a fault budget, a routing
// engine, a VL budget, and an optional deliberate table breakage
// (mutation) used to self-test the oracle. Everything a scenario does —
// topology construction, fault injection, engine options, the mutation —
// is a pure function of the spec, so a spec alone replays a failure
// bit-for-bit on any machine and at any thread count.
//
// The oracle checks every invariant the engines promise, reading the
// promises from the engine catalogue (nue/engines.hpp):
//   * reachability among alive terminals (validate_routing: connected,
//     no node revisited),
//   * VL sanity (vl_in_range, table VL count within the spec's budget),
//   * CDG acyclicity (Theorem 1) where the row promises deadlock freedom,
//   * per-hop minimality against a BFS lower bound where it promises it,
//   * differentially, on small instances: a routing whose CDG the static
//     validator calls acyclic must not deadlock the flit simulator.
//
// Failures shrink through a greedy minimizer into a Reproducer — the spec
// plus an ordered list of extra link/switch removals and an embedded
// fabric dump for cross-checking — replayable via replay() and the
// route_fuzz CLI.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "graph/network.hpp"
#include "nue/engines.hpp"
#include "routing/routing.hpp"
#include "routing/validate.hpp"
#include "sim/flit_sim.hpp"
#include "topology/generate.hpp"

namespace nue::fuzz {

/// Deliberate table breakage for oracle self-tests: both mutations are
/// constructed so a sound oracle MUST flag them (the broken entry is
/// always on a validated source->destination walk).
enum class Mutation : std::uint8_t { kNone, kVlOverflow, kDropEntry };

const char* mutation_name(Mutation m);
std::optional<Mutation> mutation_from_name(const std::string& s);

struct ScenarioSpec {
  std::uint64_t seed = 1;   // drives fault injection, Nue, and the mutation
  /// Topology generator spec, e.g. "torus:3x3:2" — see build_scenario.
  std::string generate;
  Engine engine = Engine::kNue;
  std::uint32_t vls = 1;          // VL budget handed to the engine
  std::size_t fail_links = 0;     // requested; achieved count is reported
  std::size_t fail_switches = 0;  // requested; achieved count is reported
  Mutation mutation = Mutation::kNone;
  /// > 0 selects the reconfiguration family: after building (and possibly
  /// degrading) the fabric, a fault/repair trace of this many events is
  /// drawn from the seed and driven through the live resilience manager;
  /// the oracle checks every committed epoch and swap instead of a single
  /// static table (see run_reconfig_scenario).
  std::size_t reconfig_events = 0;

  std::string label() const;
};

/// One extra element removed on top of the seeded fault injection (the
/// minimizer's shrink steps), in original network id space.
struct Removal {
  bool is_switch = false;
  std::uint32_t id = 0;  // NodeId for switches, even ChannelId for links
};

/// The generated fabric (net plus the torus/fattree geometry, see
/// generate_topology) after faults and removals.
struct ScenarioBuild : GeneratedTopology {
  std::size_t link_faults = 0;         // achieved (can be < requested)
  std::size_t switch_faults = 0;       // achieved (can be < requested)
  bool degraded = false;               // any fault or removal applied
};

/// Deterministically instantiate the spec's topology, inject its faults
/// (Rng derived from spec.seed), then apply `removals` in order. Throws
/// std::logic_error on a malformed generator spec or on a removal that is
/// unsafe (dead element, terminal access link, disconnection, or fewer
/// than 2 terminals / 1 switch left) — the minimizer relies on that to
/// reject candidates.
ScenarioBuild build_scenario(const ScenarioSpec& spec,
                             const std::vector<Removal>& removals = {});

struct EngineOutcome {
  std::optional<RoutingResult> rr;
  std::string error;     // exception text when !rr
  bool crashed = false;  // threw something other than RoutingFailure
};

/// Run the spec's engine on the built fabric (all alive terminals as
/// destinations). RoutingFailure is reported as inapplicable, any other
/// exception as crashed; neither propagates.
EngineOutcome run_engine(const ScenarioSpec& spec, const ScenarioBuild& build);

/// Apply the spec's deliberate breakage to the tables (no-op for kNone).
void apply_mutation(const ScenarioSpec& spec, const ScenarioBuild& build,
                    RoutingResult& rr);

struct OracleConfig {
  /// Run the differential flit-sim check on fabrics up to this many nodes
  /// (0 disables it). The sim only runs when the static checks pass
  /// (connected, cycle-free, VLs in range), so it can never crash on a
  /// broken table — its one job is catching an acyclicity verdict the
  /// hardware model disagrees with.
  std::size_t max_sim_nodes = 72;
  /// When the flit-sim check runs, also replay the same traffic through
  /// the cycle-based engine and demand matching verdicts and (on
  /// completion) identical delivered totals — a differential oracle over
  /// the two simulator implementations themselves
  /// (sim-engine-divergence; see sim_engine_divergence for the one
  /// verdict pair a cyclic table may show).
  bool cross_check_engines = true;
};

struct OracleReport {
  /// False when the engine declined the instance (RoutingFailure: VL
  /// demand above budget, broken ring, ...) — a legal outcome for every
  /// engine except Nue, whose paper contract is to never fail.
  bool applicable = true;
  std::string engine_error;
  ValidationReport validation;
  bool minimality_checked = false;
  std::size_t nonminimal_paths = 0;
  bool sim_checked = false;
  bool sim_deadlocked = false;
  bool sim_completed = false;
  bool engines_cross_checked = false;  // event vs cycle engine replay ran
  bool reconfig_checked = false;          // reconfiguration family ran
  std::size_t reconfig_transitions = 0;   // non-noop epoch swaps driven
  std::size_t reconfig_hitless = 0;
  std::size_t reconfig_drained = 0;
  std::size_t reconfig_waved = 0;         // wave chains (drains avoided)
  std::size_t reconfig_wave_commits = 0;  // epochs those chains committed
  /// "<kind>: detail" strings; empty = scenario passed every invariant.
  std::vector<std::string> violations;

  bool ok() const { return violations.empty(); }
};

/// The two simulators' verdicts on one run of the same traffic: "" when
/// they agree, else the sim-engine-divergence detail. A verdict differs,
/// or both completed with different delivered totals. One direction is
/// no divergence on a table whose CDG is cyclic (`deadlock_free` false):
/// event engine completed, cycle engine deadlocked. There the order of
/// same-cycle moves decides whether the cyclic wait closes, and the two
/// engines order them differently. A missed wake can only fake an
/// event-engine deadlock, never a completion, so the opposite direction
/// stays a divergence on every table.
std::string sim_engine_divergence(const SimResult& event,
                                  const SimResult& cycle, bool deadlock_free);

/// Stable kind token of the first violation ("" if none). Kinds:
/// engine-exception, nue-routing-failure, unreachable, path-revisits-node,
/// vl-overflow, vl-budget-exceeded, cdg-cycle, non-minimal-path,
/// sim-deadlock, sim-engine-divergence, mutation-not-caught — and, from
/// the reconfiguration
/// family: reconfig-invalid-table, reconfig-union-cycle,
/// reconfig-event-crash.
std::string violation_kind(const OracleReport& rep);

OracleReport check_scenario(const ScenarioSpec& spec,
                            const ScenarioBuild& build,
                            const EngineOutcome& engine,
                            const OracleConfig& cfg = {});

/// build + route + mutate + check in one call — a pure function of
/// (spec, removals). `build_out` optionally receives the built fabric.
/// Specs with reconfig_events > 0 dispatch to run_reconfig_scenario.
OracleReport run_scenario(const ScenarioSpec& spec,
                          const std::vector<Removal>& removals = {},
                          const OracleConfig& cfg = {},
                          ScenarioBuild* build_out = nullptr);

/// Reconfiguration-family check: drive a fault/repair trace (drawn
/// deterministically from spec.seed, spec.reconfig_events events) through
/// a live ResilienceManager running the spec's engine. The oracle hooks
/// every commit: each committed epoch must pass the full static validation
/// and cover every alive terminal (reconfig-invalid-table), and every
/// transition the manager calls hitless must pass an INDEPENDENT pairwise
/// union-CDG re-check (reconfig-union-cycle) — differential against the
/// manager's own column-based gate. Intermediate epochs of a migration-
/// wave chain (src/resilience/waves.hpp) are exempt from full validation
/// (bounded staleness is their design) but every one must pass the
/// pairwise union re-check against its predecessor. An event the manager
/// cannot survive is reconfig-event-crash. Engines whose catalogue row
/// cannot repair report as inapplicable. `build_out` receives the
/// pre-trace fabric, so reproducer dumps stay comparable.
OracleReport run_reconfig_scenario(const ScenarioSpec& spec,
                                   const std::vector<Removal>& removals = {},
                                   const OracleConfig& cfg = {},
                                   ScenarioBuild* build_out = nullptr);

// --- reproducers -----------------------------------------------------------

struct Reproducer {
  ScenarioSpec spec;
  std::vector<Removal> removals;  // minimizer's shrink steps, in order
  std::string expect;             // violation kind that must reproduce
  /// write_fabric() dump of the fully degraded fabric, embedded in the
  /// file as a human-readable cross-check (replay() compares it against
  /// the regenerated network). Empty = skip the comparison.
  std::string fabric_dump;
};

struct MinimizeConfig {
  std::size_t max_trials = 400;  // scenario re-runs the shrink may spend
  OracleConfig oracle;
};

/// Greedy shrink: repeatedly try removing alive switches and links,
/// keeping a removal whenever the scenario still fails with the same
/// violation kind. Requires the unshrunk scenario to fail.
Reproducer minimize_scenario(const ScenarioSpec& spec,
                             const MinimizeConfig& cfg = {});

void write_reproducer(std::ostream& os, const Reproducer& r);
Reproducer read_reproducer(std::istream& is);
Reproducer load_reproducer_file(const std::string& path);
void save_reproducer_file(const std::string& path, const Reproducer& r);

struct ReplayResult {
  OracleReport report;
  bool fabric_matches = true;  // embedded dump == regenerated fabric
  bool reproduced = false;     // expected violation kind fired again
};

ReplayResult replay(const Reproducer& r, const OracleConfig& cfg = {});

// --- batches ---------------------------------------------------------------

struct FuzzConfig {
  std::uint32_t threads = 0;  // 0 = process default (see thread_pool.hpp)
  OracleConfig oracle;
};

struct ScenarioOutcome {
  ScenarioSpec spec;
  std::size_t link_faults = 0;    // achieved
  std::size_t switch_faults = 0;  // achieved
  OracleReport report;
};

/// Random scenario from the cross product of all topology generators x
/// compatible engines x VL budgets {1,2,4,8} x fault settings — a pure
/// function of (base_seed, index), so batches are resumable and
/// distributable by index range.
ScenarioSpec draw_scenario(std::uint64_t base_seed, std::uint64_t index);

/// Random reconfiguration scenario: same topology/fault cross product as
/// draw_scenario, engine restricted to the repair engines, 3-8 trace
/// events. Pure function of (base_seed, index).
ScenarioSpec draw_reconfig_scenario(std::uint64_t base_seed,
                                    std::uint64_t index);

/// Fixed-seed smoke corpus: every topology generator x every engine its
/// wiring admits x VL budgets {min_vls,4} x {pristine, 2 link faults}.
/// Small fabrics; the whole corpus runs in seconds.
std::vector<ScenarioSpec> smoke_corpus(std::uint64_t base_seed);

/// Run scenarios concurrently on the shared thread pool, one independent
/// RNG stream per scenario; outcome i belongs to specs[i] regardless of
/// thread count (scenarios are pure functions of their spec).
std::vector<ScenarioOutcome> run_batch(const std::vector<ScenarioSpec>& specs,
                                       const FuzzConfig& cfg = {});

}  // namespace nue::fuzz
