#include "resilience/resilience.hpp"

#include <sstream>
#include <string_view>

#include "nue/nue_routing.hpp"
#include "resilience/waves.hpp"
#include "routing/sssp_engine.hpp"
#include "routing/validate.hpp"
#include "telemetry/telemetry.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace nue::resilience {

namespace {

/// Stable span label per ladder rung (span names must outlive the scope,
/// so they are mapped to literals rather than composed at runtime).
const char* rung_span_name(const char* rung) {
  const std::string_view r(rung);
  if (r == "incremental") return "resilience.rung.incremental";
  if (r == "full-recompute") return "resilience.rung.full_recompute";
  if (r == "more-vls") return "resilience.rung.more_vls";
  if (r == "nue-fallback") return "resilience.rung.nue_fallback";
  return "resilience.rung";
}

/// The record of intermediate epoch `index` of `chain`'s migration chain
/// (whose wave_count is set): a hitless "wave" step of the same event.
TransitionRecord wave_record(const TransitionRecord& chain, std::size_t index,
                             std::size_t affected, std::string verdict,
                             const Timer& timer) {
  TransitionRecord w;
  w.event = chain.event;
  w.total_dests = chain.total_dests;
  w.affected_dests = affected;
  w.committed_step = "wave";
  w.union_gate_checked = true;
  w.hitless = true;
  w.wave_index = static_cast<std::uint32_t>(index);
  w.wave_count = chain.wave_count;
  w.verdicts.push_back(std::move(verdict));
  w.repair_ms = timer.millis();
  return w;
}

}  // namespace

ResilienceManager::ResilienceManager(Network net, RepairPolicy policy)
    : net_(std::move(net)), policy_(policy) {
  NUE_CHECK_MSG(engine_info(policy_.engine).repairs,
                "unknown repair engine '" << engine_name(policy_.engine) << "'");
  NUE_CHECK_MSG(policy_.vls >= 1, "resilience: need at least one VL");
  NUE_CHECK_MSG(policy_.max_vls >= policy_.vls,
                "resilience: max_vls below the base VL budget");
  log_.set_max_records(policy_.log_max_records);
  TELEM_SPAN("resilience.initial");
  Timer timer;
  TransitionRecord rec;
  rec.event = "initial";
  rec.total_dests = net_.terminals().size();
  rec.affected_dests = rec.total_dests;
  Candidate cand = run_ladder(nullptr, /*incremental=*/false, rec.verdicts);
  rec.committed_step = cand.step;
  rec.repair_ms = timer.millis();
  commit(std::move(*cand.rr), rec);
}

std::shared_ptr<const RoutingResult> ResilienceManager::table() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return table_;
}

std::uint64_t ResilienceManager::epoch() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return epoch_;
}

TransitionRecord ResilienceManager::apply(const FaultEvent& e) {
  TELEM_SPAN("resilience.event");
  apply_fault_event(net_, e);
  Timer timer;
  TransitionRecord rec;
  rec.event = e.label();
  const std::shared_ptr<const RoutingResult> old = table();

  // Table diff: broken/dropped columns plus destinations that joined the
  // fabric with a restored switch.
  std::size_t joined = 0;
  for (NodeId t : net_.terminals()) {
    if (!old->is_destination(t)) ++joined;
  }
  rec.affected_dests = affected_destinations(net_, *old).size() + joined;
  rec.total_dests = net_.terminals().size();
  if (rec.affected_dests == 0) {
    // Every column still routes over alive elements (e.g. a restored link
    // no route was using): the active epoch stays valid as-is.
    rec.committed_step = "noop";
    rec.epoch = epoch();
    rec.repair_ms = timer.millis();
    log_.add(rec);
    return rec;
  }

  Candidate cand = run_ladder(old.get(), /*incremental=*/true, rec.verdicts);
  return gate_and_commit(old, std::move(cand), std::move(rec), timer);
}

TransitionRecord ResilienceManager::resync() {
  TELEM_SPAN("resilience.resync");
  Timer timer;
  TransitionRecord rec;
  rec.event = "resync";
  rec.total_dests = net_.terminals().size();
  rec.affected_dests = rec.total_dests;
  const std::shared_ptr<const RoutingResult> old = table();
  Candidate cand = run_ladder(old.get(), /*incremental=*/false, rec.verdicts);
  return gate_and_commit(old, std::move(cand), std::move(rec), timer);
}

TransitionRecord ResilienceManager::gate_and_commit(
    const std::shared_ptr<const RoutingResult>& old, Candidate cand,
    TransitionRecord rec, Timer& timer) {
  rec.union_gate_checked = true;
  Timer gate_timer;
  const bool gate_ok = union_cdg_acyclic(net_, *old, *cand.rr);
  const double gate_ms = gate_timer.millis();
  if (gate_ok) {
    rec.hitless = true;
    std::ostringstream os;
    os << "union-gate: acyclic, hitless swap [" << gate_ms << "ms]";
    rec.verdicts.push_back(os.str());
    rec.committed_step = cand.step;
    rec.repair_ms = timer.millis();
    commit(std::move(*cand.rr), rec);
    return rec;
  }
  if (policy_.enable_waves) {
    // Old and new dependencies together would close a cycle, but the
    // cycle is a property of the whole pair: try to stage the changed
    // columns into migration waves whose every intermediate union stays
    // acyclic (waves.hpp) — a chain of hitless swaps instead of a drain.
    TELEM_SPAN("resilience.wave_chain");
    Timer plan_timer;
    const WavePlan plan = schedule_waves(net_, *old, *cand.rr, kMaxWaves);
    if (plan.ok()) {
      rec.hitless = true;
      rec.wave_count = static_cast<std::uint32_t>(plan.waves.size());
      rec.wave_index = rec.wave_count;
      std::ostringstream os;
      os << "union-gate: cycle, wave schedule: " << plan.waves.size()
         << " waves over " << plan.changed_dests
         << " changed columns (staleness bound " << plan.max_affected_wave
         << ") [" << plan_timer.millis() << "ms]";
      rec.verdicts.push_back(os.str());
      std::vector<std::uint8_t> take_new(cand.rr->destinations().size(), 0);
      for (std::size_t w = 0; w + 1 < plan.waves.size(); ++w) {
        for (NodeId d : plan.waves[w]) {
          take_new[cand.rr->dest_index(d)] = 1;
        }
        std::ostringstream wos;
        wos << "wave " << w + 1 << "/" << plan.waves.size() << ": migrated "
            << plan.waves[w].size() << " columns, union acyclic by schedule";
        TransitionRecord wrec =
            wave_record(rec, w + 1, plan.waves[w].size(), wos.str(), timer);
        commit(blend_tables(net_, *old, *cand.rr, take_new), wrec);
      }
      // The chain's last epoch commits the candidate itself (not a
      // blend), so the wave path and the direct-gate path install
      // byte-identical final tables.
      rec.committed_step = cand.step;
      rec.repair_ms = timer.millis();
      commit(std::move(*cand.rr), rec);
      return rec;
    }
    rec.verdicts.push_back("wave-scheduler: " + plan.failure);
    // Per-column waves are stuck — typical when the committed rung is a
    // full recompute and nearly every column changed, so wave 1 has to
    // beat the entire old dependency graph. Escape through lane
    // headroom: the candidate shifted into the unused upper lanes shares
    // no (channel, VL) vertex with the old epoch, so both unions of the
    // 2-epoch chain old -> shifted -> candidate are acyclic by
    // construction (union_cdg_acyclic's vertex space is max(old, new)
    // lanes wide). This is what keeps sustained storms drain-free even
    // when the greedy scheduler cannot stage the pair.
    const std::uint32_t shift = old->num_vls();
    if (shift + cand.rr->num_vls() <= policy_.max_vls) {
      rec.hitless = true;
      rec.wave_count = 2;
      rec.wave_index = 2;
      std::ostringstream os;
      os << "vl-shift chain: 2 epochs through lanes [" << shift << ", "
         << shift + cand.rr->num_vls() << ")";
      rec.verdicts.push_back(os.str());
      TransitionRecord wrec = wave_record(
          rec, 1, rec.total_dests,  // every column changes lanes
          "wave 1/2: vl-shifted candidate, union vertex-disjoint", timer);
      commit(shift_vls(*cand.rr, shift), wrec);
      rec.committed_step = cand.step;
      rec.repair_ms = timer.millis();
      commit(std::move(*cand.rr), rec);
      return rec;
    }
    std::ostringstream nos;
    nos << "vl-shift: no lane headroom (" << shift << " + "
        << cand.rr->num_vls() << " > " << policy_.max_vls << ")";
    rec.verdicts.push_back(nos.str());
  }
  // No wave schedule (or waves disabled): the two routing functions must
  // never coexist in the fabric — drain, then install a fresh full
  // recompute (Theorem 1 applies to it alone).
  rec.drained = true;
  rec.verdicts.push_back("union-gate: cycle, drained full recompute");
  if (cand.step == "incremental") {
    cand = run_ladder(old.get(), /*incremental=*/false, rec.verdicts);
  }
  rec.committed_step = cand.step;
  rec.repair_ms = timer.millis();
  commit(std::move(*cand.rr), rec);
  return rec;
}

std::vector<TransitionRecord> ResilienceManager::replay(
    const FaultTrace& trace) {
  std::vector<TransitionRecord> records;
  records.reserve(trace.events.size());
  for (const FaultEvent& e : trace.events) records.push_back(apply(e));
  return records;
}

ResilienceManager::Candidate ResilienceManager::run_ladder(
    const RoutingResult* old, bool incremental,
    std::vector<std::string>& verdicts) {
  struct Rung {
    const char* name;
    std::function<RoutingResult()> produce;
  };
  std::vector<Rung> rungs;
  std::string incremental_note;
  // Set by the reroute path below: its candidate only needs the affected
  // columns re-walked (incremental_error); every other producer goes
  // through the full validate_routing.
  bool subset_validation = false;
  if (incremental && old != nullptr) {
    rungs.push_back({"incremental", [&]() -> RoutingResult {
                       bool joined = false;
                       for (NodeId t : net_.terminals()) {
                         if (!old->is_destination(t)) {
                           joined = true;
                           break;
                         }
                       }
                       if (policy_.engine == Engine::kNue &&
                           old->vl_mode() == VlMode::kPerDest && !joined) {
                         NueOptions opt;
                         opt.num_vls = old->num_vls();
                         opt.seed = policy_.seed;
                         opt.num_threads = policy_.num_threads;
                         opt.escape_root_hints = escape_roots_;
                         RerouteStats rrs;
                         NueStats nst;
                         RoutingResult rr =
                             reroute_nue(net_, *old, opt, &rrs, &nst);
                         remember_roots(nst.roots);
                         subset_validation = true;
                         std::ostringstream os;
                         os << " (kept " << rrs.dests_kept << ", rerouted "
                            << rrs.dests_rerouted << " of which patched "
                            << rrs.dests_patched << ", demoted "
                            << rrs.dests_demoted << ", stale marks skipped "
                            << rrs.stale_marks_skipped << ")";
                         incremental_note = os.str();
                         return rr;
                       }
                       return splice_incremental(*old);
                     }});
  }
  const auto full = [&](Engine e, std::uint32_t vls) {
    EngineStats st;
    RoutingResult rr = route_engine(
        e, net_, net_.terminals(),
        {.vls = vls, .seed = policy_.seed, .threads = policy_.num_threads},
        &st);
    remember_roots(st.roots);
    return rr;
  };
  rungs.push_back({"full-recompute",
                   [&] { return full(policy_.engine, policy_.vls); }});
  if (policy_.max_vls > policy_.vls) {
    rungs.push_back({"more-vls",
                     [&] { return full(policy_.engine, policy_.max_vls); }});
  }
  if (policy_.engine != Engine::kNue) {
    rungs.push_back({"nue-fallback",
                     [&] { return full(Engine::kNue, policy_.vls); }});
  }

  for (std::size_t i = 0; i < rungs.size(); ++i) {
    TELEM_SPAN(rung_span_name(rungs[i].name));
    telemetry::counter("resilience.ladder_rung").add(1);
    Timer t;
    std::optional<RoutingResult> rr;
    try {
      rr.emplace(rungs[i].produce());
    } catch (const RoutingFailure& ex) {
      verdicts.push_back(std::string(rungs[i].name) +
                         ": engine declined: " + ex.what());
      continue;
    }
    const double ms = t.millis();
    const std::string err = (i == 0 && subset_validation)
                                ? incremental_error(*rr, *old)
                                : candidate_error(*rr);
    if (!err.empty()) {
      verdicts.push_back(std::string(rungs[i].name) + ": invalid table: " +
                         err);
      continue;
    }
    std::ostringstream okv;
    okv << rungs[i].name << ": ok"
        << (i == 0 && incremental ? incremental_note : "") << " ["
        << ms << "ms + validate " << t.millis() - ms << "ms]";
    verdicts.push_back(okv.str());
    return {std::move(rr), rungs[i].name};
  }
  NUE_CHECK_MSG(false,
                "repair ladder exhausted without a valid table (Nue's "
                "contract should make this unreachable)");
  return {};
}

RoutingResult ResilienceManager::splice_incremental(const RoutingResult& old) {
  const auto dests = net_.terminals();
  RoutingResult rr(net_.num_nodes(), dests, old.num_vls(), old.vl_mode());
  std::vector<std::uint8_t> broken(net_.num_nodes(), 0);
  for (NodeId d : affected_destinations(net_, old)) broken[d] = 1;
  const std::vector<double> uniform(net_.num_channels(), 1.0);
  for (std::size_t i = 0; i < dests.size(); ++i) {
    const NodeId d = dests[i];
    const auto di = static_cast<std::uint32_t>(i);
    const std::uint32_t old_di = old.dest_index(d);
    const bool has_old = old_di != RoutingResult::kNoDest;
    // VL assignments are inherited wherever the old table has them (new
    // destinations start on layer 0); whether the guess holds on the
    // repaired paths is the validator's and the union gate's call.
    if (has_old) rr.copy_lanes(di, old, old_di);
    // Next pointers at alive nodes only: a restored switch comes back as
    // a hole, which affected_destinations flags (blend_tables copies
    // verbatim, and says why).
    if (has_old && !broken[d]) {
      for (NodeId v = 0; v < net_.num_nodes(); ++v) {
        if (v == d || !net_.node_alive(v)) continue;
        rr.set_next(v, di, old.next(v, old_di));
      }
    } else {
      const DestTree tree = dest_tree(net_, d, uniform);
      for (NodeId v = 0; v < net_.num_nodes(); ++v) {
        if (v == d || !net_.node_alive(v)) continue;
        rr.set_next(v, di, tree.next[v]);
      }
    }
  }
  return rr;
}

std::string ResilienceManager::candidate_error(const RoutingResult& rr) const {
  for (NodeId t : net_.terminals()) {
    if (!rr.is_destination(t)) {
      std::ostringstream os;
      os << "alive terminal " << t << " is not a destination";
      return os.str();
    }
  }
  const ValidationReport rep = validate_routing(net_, rr);
  if (!rep.ok()) {
    return rep.detail.empty() ? std::string("validation failed") : rep.detail;
  }
  return "";
}

std::string ResilienceManager::incremental_error(
    const RoutingResult& rr, const RoutingResult& old) const {
  for (NodeId t : net_.terminals()) {
    if (!rr.is_destination(t)) {
      std::ostringstream os;
      os << "alive terminal " << t << " is not a destination";
      return os.str();
    }
  }
  std::vector<NodeId> dests;
  for (NodeId d : affected_destinations(net_, old)) {
    if (net_.node_alive(d)) dests.push_back(d);  // dead dests were dropped
  }
  const ValidationReport rep = validate_columns(net_, rr, dests);
  if (!rep.ok()) {
    return rep.detail.empty() ? std::string("validation failed") : rep.detail;
  }
  return "";
}

void ResilienceManager::remember_roots(const std::vector<NodeId>& roots) {
  if (escape_roots_.size() < roots.size()) {
    escape_roots_.resize(roots.size(), kInvalidNode);
  }
  for (std::size_t l = 0; l < roots.size(); ++l) {
    if (roots[l] != kInvalidNode) escape_roots_[l] = roots[l];
  }
}

void ResilienceManager::commit(RoutingResult rr, TransitionRecord& rec) {
  auto fresh = std::make_shared<const RoutingResult>(std::move(rr));
  std::shared_ptr<const RoutingResult> old;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    old = table_;
    table_ = fresh;
    rec.epoch = ++epoch_;
  }
  log_.add(rec);
  if (hook_) hook_(net_, old.get(), *fresh, rec);
}

}  // namespace nue::resilience
