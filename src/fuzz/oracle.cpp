// The invariant oracle: static validation, engine-promise checks
// (minimality, deadlock freedom), and the differential flit-sim check.
#include "fuzz/fuzz.hpp"

#include <algorithm>
#include <sstream>

#include "graph/algorithms.hpp"
#include "sim/flit_sim.hpp"
#include "util/error.hpp"

namespace nue::fuzz {

namespace {

void add_violation(OracleReport& rep, const std::string& kind,
                   const std::string& detail) {
  rep.violations.push_back(kind + ": " + detail);
}

/// Count source->destination paths longer than the BFS lower bound.
/// Only called once the table is known connected and cycle-free, so
/// every route reaches its destination and has a hop depth.
void check_minimality(const Network& net, const RoutingResult& rr,
                      OracleReport& rep) {
  rep.minimality_checked = true;
  const auto sources = net.terminals();
  ColumnPass pass(net, rr);
  for (std::size_t di = 0; di < rr.destinations().size(); ++di) {
    const NodeId d = rr.destinations()[di];
    if (!net.node_alive(d)) continue;
    const auto dist = bfs_distances(net, d);
    pass.run(static_cast<std::uint32_t>(di), sources);
    for (NodeId s : sources) {
      if (s == d) continue;
      NUE_DCHECK(pass.end(s) == ColumnPass::End::kReached);
      const std::uint32_t hops = pass.depth(s);
      if (hops > dist[s]) {
        if (rep.nonminimal_paths == 0) {
          std::stringstream ss;
          ss << "route " << s << " -> " << d << " takes " << hops
             << " hops, BFS lower bound is " << dist[s];
          add_violation(rep, "non-minimal-path", ss.str());
        }
        ++rep.nonminimal_paths;
      }
    }
  }
}

}  // namespace

std::string violation_kind(const OracleReport& rep) {
  if (rep.violations.empty()) return "";
  const std::string& v = rep.violations.front();
  const auto colon = v.find(':');
  return colon == std::string::npos ? v : v.substr(0, colon);
}

std::string sim_engine_divergence(const SimResult& event,
                                  const SimResult& cycle, bool deadlock_free) {
  std::stringstream ss;
  if (cycle.completed != event.completed ||
      cycle.deadlocked != event.deadlocked) {
    if (!deadlock_free && event.completed && cycle.deadlocked) return "";
    ss << "event engine (completed=" << event.completed
       << ", deadlocked=" << event.deadlocked << ") vs cycle engine ("
       << "completed=" << cycle.completed
       << ", deadlocked=" << cycle.deadlocked << ")";
  } else if (cycle.completed &&
             (cycle.delivered_bytes != event.delivered_bytes ||
              cycle.delivered_packets != event.delivered_packets)) {
    ss << "both engines completed but delivered " << event.delivered_bytes
       << " vs " << cycle.delivered_bytes << " bytes ("
       << event.delivered_packets << " vs " << cycle.delivered_packets
       << " packets)";
  }
  return ss.str();
}

OracleReport check_scenario(const ScenarioSpec& spec,
                            const ScenarioBuild& build,
                            const EngineOutcome& engine,
                            const OracleConfig& cfg) {
  OracleReport rep;
  const Network& net = build.net;

  if (engine.crashed) {
    add_violation(rep, "engine-exception", engine.error);
    return rep;
  }
  if (!engine.rr.has_value()) {
    rep.applicable = false;
    rep.engine_error = engine.error;
    if (spec.engine == Engine::kNue) {
      // Nue's contract (paper Theorem 2 + §4.4): always applicable on a
      // connected fabric, for any VL count.
      add_violation(rep, "nue-routing-failure", engine.error);
    }
    return rep;
  }
  const RoutingResult& rr = *engine.rr;

  rep.validation = validate_routing(net, rr);
  if (!rep.validation.connected) {
    add_violation(rep, "unreachable", rep.validation.detail);
  }
  if (!rep.validation.cycle_free) {
    add_violation(rep, "path-revisits-node", rep.validation.detail);
  }
  if (!rep.validation.vl_in_range) {
    add_violation(rep, "vl-overflow",
                  "table assigns a VL >= num_vls (" +
                      std::to_string(rr.num_vls()) + ")");
  }
  // Torus-2QoS takes its 2 dateline VLs whatever the budget.
  const EngineInfo& promises = engine_info(spec.engine);
  const std::uint32_t budget = std::max(spec.vls, promises.min_vls);
  if (rr.num_vls() > budget) {
    std::stringstream ss;
    ss << "table uses " << rr.num_vls() << " VLs, budget is " << budget;
    add_violation(rep, "vl-budget-exceeded", ss.str());
  }
  if (!rep.validation.deadlock_free && promises.deadlock_free) {
    add_violation(rep, "cdg-cycle", rep.validation.detail);
  }

  if (promises.minimal(build.degraded) &&
      rep.validation.connected && rep.validation.cycle_free) {
    check_minimality(net, rr, rep);
  }

  // Differential check: the static acyclicity verdict vs the hardware
  // model. Only the "statically safe but deadlocks anyway" direction is
  // an invariant — a cyclic CDG need not deadlock under one finite
  // traffic pattern. Skipped on tables the static checks already
  // rejected: the simulator indexes queues by (channel, VL) and follows
  // next() pointers, so holes or out-of-range VLs would be undefined
  // behaviour, not a verdict.
  if (cfg.max_sim_nodes > 0 && net.num_alive_nodes() <= cfg.max_sim_nodes &&
      net.num_alive_terminals() >= 2 && rep.validation.connected &&
      rep.validation.cycle_free && rep.validation.vl_in_range) {
    rep.sim_checked = true;
    SimConfig scfg;
    scfg.max_cycles = 5'000'000;
    scfg.deadlock_cycles = 10'000;
    const auto msgs = alltoall_shift_messages(net, 256, 4);
    const SimResult res = simulate(net, rr, msgs, scfg);
    rep.sim_deadlocked = res.deadlocked;
    rep.sim_completed = res.completed;
    if (rep.validation.deadlock_free && res.deadlocked) {
      add_violation(rep, "sim-deadlock",
                    "CDG is acyclic but the event-driven flit simulator "
                    "drained its event queue with packets outstanding at "
                    "cycle " +
                        std::to_string(res.cycles));
    }
    // Second differential axis: the same traffic through the cycle-based
    // engine. The two implementations share the hardware model but almost
    // no code, so verdict or delivery disagreement means one of them is
    // wrong — a free oracle for the event engine's wake discipline (a
    // missed wake-up shows up here as a false event-engine deadlock).
    if (cfg.cross_check_engines) {
      rep.engines_cross_checked = true;
      const SimResult base = simulate_cycle(net, rr, msgs, scfg);
      const std::string detail =
          sim_engine_divergence(res, base, rep.validation.deadlock_free);
      if (!detail.empty()) add_violation(rep, "sim-engine-divergence", detail);
    }
  }

  // Oracle self-test: a deliberately broken table that sails through every
  // check above means the oracle has a blind spot — report it as such.
  if (spec.mutation != Mutation::kNone && rep.violations.empty()) {
    add_violation(rep, "mutation-not-caught",
                  std::string("mutation '") + mutation_name(spec.mutation) +
                      "' produced no violation");
  }
  return rep;
}

OracleReport run_scenario(const ScenarioSpec& spec,
                          const std::vector<Removal>& removals,
                          const OracleConfig& cfg, ScenarioBuild* build_out) {
  if (spec.reconfig_events > 0) {
    return run_reconfig_scenario(spec, removals, cfg, build_out);
  }
  ScenarioBuild build = build_scenario(spec, removals);
  EngineOutcome engine = run_engine(spec, build);
  if (engine.rr.has_value()) apply_mutation(spec, build, *engine.rr);
  OracleReport rep = check_scenario(spec, build, engine, cfg);
  if (build_out != nullptr) *build_out = std::move(build);
  return rep;
}

}  // namespace nue::fuzz
