// The reconfiguration scenario family: drive a drawn fault/repair trace
// through the live resilience manager and check every committed epoch and
// every claimed-hitless swap, the latter differentially — the oracle's
// union-CDG re-check walks (source, destination) pairs, independent of the
// manager's column-based accumulation, so a dependency the fast path
// drops shows up here as reconfig-union-cycle.
#include "fuzz/fuzz.hpp"

#include <algorithm>
#include <sstream>
#include <unordered_set>

#include "resilience/resilience.hpp"
#include "topology/faults.hpp"
#include "util/rng.hpp"

namespace nue::fuzz {

namespace {

// Independent stream for the trace draw (and the reconfig spec draw) so
// reconfig scenarios do not replay the fault injector's choices.
constexpr std::uint64_t kReconfigSalt = 0x7EC04F16C0DEULL;

void add_violation(OracleReport& rep, const std::string& kind,
                   const std::string& detail) {
  rep.violations.push_back(kind + ": " + detail);
}

/// Union-CDG acyclicity by exact per-(source, destination) walks over both
/// tables, stale-tolerant (a walk stops at a hole or dead channel, its
/// prefix dependencies stay). Deliberately NOT union_cdg_acyclic: that is
/// the code under test.
bool pairwise_union_acyclic(const Network& net, const RoutingResult& a,
                            const RoutingResult& b) {
  const std::uint32_t stride = std::max(a.num_vls(), b.num_vls()) + 1;
  std::vector<std::vector<std::uint32_t>> adj(net.num_channels() * stride);
  std::unordered_set<std::uint64_t> seen;
  for (const RoutingResult* rr : {&a, &b}) {
    const auto& dests = rr->destinations();
    for (std::size_t di = 0; di < dests.size(); ++di) {
      const NodeId d = dests[di];
      const auto di32 = static_cast<std::uint32_t>(di);
      for (NodeId s : net.terminals()) {
        if (s == d) continue;
        NodeId at = s;
        std::size_t hops = 0;
        auto prev = static_cast<std::uint32_t>(-1);
        while (at != d && hops++ <= net.num_nodes()) {
          const ChannelId c = rr->next(at, di32);
          if (c == kInvalidChannel || net.src(c) != at ||
              !net.channel_alive(c)) {
            break;
          }
          const std::uint8_t vl = rr->vl(at, s, di32);
          const std::uint32_t slot = vl < rr->num_vls() ? vl : stride - 1;
          const std::uint32_t cur = c * stride + slot;
          if (prev != static_cast<std::uint32_t>(-1)) {
            const std::uint64_t key =
                (static_cast<std::uint64_t>(prev) << 32) | cur;
            if (seen.insert(key).second) adj[prev].push_back(cur);
          }
          prev = cur;
          at = net.dst(c);
        }
      }
    }
  }
  return is_acyclic(adj);
}

}  // namespace

OracleReport run_reconfig_scenario(const ScenarioSpec& spec,
                                   const std::vector<Removal>& removals,
                                   const OracleConfig& cfg,
                                   ScenarioBuild* build_out) {
  (void)cfg;  // the flit-sim differential check stays with the static family
  OracleReport rep;
  ScenarioBuild build = build_scenario(spec, removals);
  if (!engine_info(spec.engine).repairs) {
    rep.applicable = false;
    rep.engine_error = std::string(engine_name(spec.engine)) +
                       " has no live repair mode";
    if (build_out != nullptr) *build_out = std::move(build);
    return rep;
  }
  const FaultTrace trace =
      draw_fault_trace(build.net, spec.generate, spec.seed ^ kReconfigSalt,
                       spec.reconfig_events);

  resilience::RepairPolicy policy;
  policy.engine = spec.engine;
  policy.vls = spec.vls;
  policy.max_vls = std::max(spec.vls, 8u);
  policy.seed = spec.seed;
  policy.num_threads = 1;  // scenarios parallelize across, not within

  rep.reconfig_checked = true;
  try {
    resilience::ResilienceManager mgr(build.net, policy);
    mgr.set_commit_hook([&](const Network& net, const RoutingResult* old,
                            const RoutingResult& fresh,
                            const TransitionRecord& rec) {
      std::ostringstream where;
      where << "epoch " << rec.epoch << " after " << rec.event;
      const bool intermediate =
          rec.wave_count > 0 && rec.wave_index < rec.wave_count;
      if (intermediate) {
        // Intermediate wave epochs are gated on pairwise union acyclicity
        // ONLY: they may legitimately carry broken/stale columns (a
        // fault-affected destination scheduled into a later wave keeps
        // serving its pre-fault column — the bounded-staleness window) or
        // holes (a joined destination not yet migrated), so full
        // validation and terminal coverage apply to the chain's final
        // epoch, not here. The union check is the whole safety claim of
        // a wave, so every one is re-proved differentially.
        where << " (wave " << rec.wave_index << "/" << rec.wave_count << ")";
        if (old == nullptr) {
          add_violation(rep, "reconfig-union-cycle",
                        where.str() + ": wave epoch committed with no "
                                      "predecessor table");
        } else if (!pairwise_union_acyclic(net, *old, fresh)) {
          add_violation(rep, "reconfig-union-cycle",
                        where.str() +
                            ": intermediate wave epoch's pairwise union "
                            "CDG has a cycle");
        }
        return;
      }
      const ValidationReport v = validate_routing(net, fresh);
      if (!v.ok()) {
        add_violation(rep, "reconfig-invalid-table",
                      where.str() + ": " + v.detail);
      }
      for (NodeId t : net.terminals()) {
        if (!fresh.is_destination(t)) {
          std::ostringstream os;
          os << where.str() << ": alive terminal " << t
             << " is not a destination";
          add_violation(rep, "reconfig-invalid-table", os.str());
          break;
        }
      }
      if (rec.hitless && old != nullptr &&
          !pairwise_union_acyclic(net, *old, fresh)) {
        add_violation(rep, "reconfig-union-cycle",
                      where.str() +
                          ": swap claimed hitless but the pairwise "
                          "old+new union CDG has a cycle");
      }
    });
    const std::vector<TransitionRecord> records = mgr.replay(trace);
    for (const TransitionRecord& r : records) {
      if (r.committed_step == "noop") continue;
      ++rep.reconfig_transitions;
      if (r.hitless) ++rep.reconfig_hitless;
      if (r.drained) ++rep.reconfig_drained;
      if (r.wave_count > 0) {
        ++rep.reconfig_waved;
        rep.reconfig_wave_commits += r.wave_count;
      }
    }
    rep.validation = validate_routing(mgr.net(), *mgr.table());

    // Oracle self-test: break the final epoch's table and report what the
    // validator sees, under the same violation kinds as the static family
    // (so inject-bug reproducers minimize and replay identically); a
    // mutation nothing catches is a blind spot in the reconfig oracle too.
    if (spec.mutation != Mutation::kNone) {
      RoutingResult mutated = *mgr.table();
      ScenarioBuild final_build;
      final_build.net = mgr.net();
      apply_mutation(spec, final_build, mutated);
      const ValidationReport mv = validate_routing(final_build.net, mutated);
      if (!mv.connected) add_violation(rep, "unreachable", mv.detail);
      if (!mv.cycle_free) add_violation(rep, "path-revisits-node", mv.detail);
      if (!mv.vl_in_range) {
        add_violation(rep, "vl-overflow",
                      "mutated final epoch assigns a VL >= num_vls (" +
                          std::to_string(mutated.num_vls()) + ")");
      }
      if (mv.ok()) {
        add_violation(rep, "mutation-not-caught",
                      std::string("mutation '") +
                          mutation_name(spec.mutation) +
                          "' on the final epoch produced no violation");
      }
    }
  } catch (const std::exception& e) {
    add_violation(rep, "reconfig-event-crash", e.what());
  }
  if (build_out != nullptr) *build_out = std::move(build);
  return rep;
}

ScenarioSpec draw_reconfig_scenario(std::uint64_t base_seed,
                                    std::uint64_t index) {
  ScenarioSpec s = draw_scenario(base_seed, index);
  Rng rng(base_seed ^ kReconfigSalt ^ ((index + 1) * 0x9E3779B97F4A7C15ULL));
  std::vector<Engine> engines;
  for (std::size_t i = 0; i < kNumEngines; ++i) {
    if (kEngines[i].repairs) engines.push_back(static_cast<Engine>(i));
  }
  s.engine = engines[rng.next_below(engines.size())];
  s.mutation = Mutation::kNone;
  s.reconfig_events = 3 + rng.next_below(6);
  return s;
}

}  // namespace nue::fuzz
