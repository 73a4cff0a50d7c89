// Live resilience manager: keeps a validated, deadlock-free routing
// function up while the fabric degrades and heals underneath it
// (docs/RESILIENCE.md).
//
// The manager consumes a stream of runtime fault/repair events (link down,
// switch down, link restore, switch restore — topology/faults.hpp). On
// each event it
//
//   1. extracts the table diff: only destinations whose forwarding column
//      touches a dead element (affected_destinations) — or that joined the
//      fabric with a restored switch — need new routes; everything else is
//      spliced verbatim into a double-buffered successor table,
//   2. climbs a bounded repair ladder until a candidate passes the full
//      validation oracle (reachability, no revisits, VL sanity, CDG
//      acyclicity, and coverage of every alive terminal):
//        incremental -> full recompute -> same engine with more VLs ->
//        Nue fallback (which, per the paper's Lemma 3, cannot fail for any
//        k >= 1 on a connected fabric),
//   3. runs the transition-safety gate before the atomic epoch swap: the
//      union CDG of the old and new tables must be acyclic (UPR
//      compatibility), because in-flight packets hold resources per the
//      old table while new injections follow the new one. When the direct
//      gate fails, the wave scheduler (waves.hpp) tries to partition the
//      changed columns into migration waves whose intermediate tables
//      keep every adjacent union acyclic — the transition then commits as
//      a multi-epoch chain of hitless swaps instead of draining. Only
//      when no schedule exists does the manager fall back to a drained
//      full recompute — correct by Theorem 1 because old and new traffic
//      never coexist — recorded with the scheduler's verdict, never
//      silently skipped.
//
// Every transition's verdicts land in a metrics::ReconfigLog
// (src/metrics/reconfig_log.hpp); bench_reconfig and `nue_route
// --fault-trace` serialize it as BENCH_reconfig.json.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "graph/network.hpp"
#include "metrics/reconfig_log.hpp"
#include "nue/engines.hpp"
#include "routing/routing.hpp"
#include "topology/faults.hpp"
#include "util/timer.hpp"

namespace nue::resilience {

/// A catalogue engine (nue/engines.hpp); the manager rejects any whose
/// row cannot repair (only nue, updown, dfsssp and lash can).
using Engine = nue::Engine;

/// Upper bound on the epochs of one wave chain; a schedule that needs
/// more drains instead (bounded staleness: a fault-affected column is
/// stale for at most kMaxWaves epochs).
inline constexpr std::size_t kMaxWaves = 8;

struct RepairPolicy {
  Engine engine = Engine::kNue;
  std::uint32_t vls = 4;      // base VL budget for every rung but more-vls
  std::uint32_t max_vls = 8;  // the more-vls rung's escalated budget
  std::uint64_t seed = 1;     // forwarded to Nue
  /// Worker threads for the routing engines (0 = process default).
  std::uint32_t num_threads = 1;
  /// Attempt a migration-wave schedule (waves.hpp) when the direct union
  /// gate fails, before falling back to the drained recompute. Off turns
  /// every gate failure back into a drain (the pre-wave behavior; the
  /// bench's baseline mode).
  bool enable_waves = true;
  /// Retained ReconfigLog window (0 = unbounded, the one-shot CLI
  /// default). A resident manager processing an unbounded event stream
  /// must cap this or the verdict trail grows monotonically; summary
  /// counts stay exact across eviction (metrics/reconfig_log.hpp).
  std::size_t log_max_records = 0;
};

/// Thread-safety contract (the fabric-manager daemon's shard model,
/// docs/SERVICE.md): table() and epoch() are safe to call concurrently
/// with apply() and with each other — readers keep routing on their
/// snapshot while apply() swaps in the successor epoch. apply()/replay()
/// mutate the fabric and must be externally serialized (one event
/// applier per manager, e.g. the shard's event mutex); net() and log()
/// are only stable between apply() calls and follow the same rule.
/// A single manager instance is built to survive unbounded event
/// streams: every per-event structure is either reset per apply() or
/// explicitly bounded (escape_roots_ by the VL budget, the verdict log
/// by RepairPolicy::log_max_records, the fabric's adjacency pool by its
/// compaction bound) — test_resilience_churn.cpp holds it to that.
class ResilienceManager {
 public:
  /// Takes ownership of the fabric and routes the initial table through
  /// the ladder's full-recompute rungs (epoch 1). Throws RoutingFailure
  /// only if even the Nue fallback cannot route (i.e. never on a
  /// connected fabric).
  ResilienceManager(Network net, RepairPolicy policy);

  const Network& net() const { return net_; }
  const RepairPolicy& policy() const { return policy_; }

  /// Snapshot of the active routing table. The shared_ptr is the double
  /// buffer: readers keep routing on their snapshot while apply() swaps
  /// in the successor epoch.
  std::shared_ptr<const RoutingResult> table() const;
  std::uint64_t epoch() const;

  /// Every transition's verdict trail, in order (epoch 1 = initial table).
  const ReconfigLog& log() const { return log_; }

  /// Observer invoked after every commit with (fabric, previous table or
  /// nullptr, committed table, record) — the fuzzer's reconfiguration
  /// oracle re-validates each epoch and re-checks the union gate through
  /// this hook.
  using CommitHook = std::function<void(
      const Network&, const RoutingResult*, const RoutingResult&,
      const TransitionRecord&)>;
  void set_commit_hook(CommitHook hook) { hook_ = std::move(hook); }

  /// Apply one runtime event: mutate the fabric, repair, gate, swap.
  /// Throws std::logic_error on an event that is illegal on the current
  /// fabric (apply_fault_event's contract) — the fabric is unchanged in
  /// that case. A transition whose direct gate fails but that the wave
  /// scheduler can stage commits several epochs (each through the same
  /// atomic swap, each logged); the returned record is the chain's final
  /// one (wave_index == wave_count > 0 identifies it).
  TransitionRecord apply(const FaultEvent& e);

  /// Recompute the table from scratch on the current fabric and commit it
  /// through the same gate -> waves -> drain tail as apply() (event
  /// "resync", every column counted affected). Deterministic engines make
  /// the committed table byte-identical to a fresh manager built on an
  /// identically mutated fabric — the convergence anchor for long churn
  /// streams (bench_reconfig's storm mode ends with one).
  TransitionRecord resync();

  /// Apply a whole trace (events only; the caller instantiated the
  /// fabric from trace.generate before constructing the manager).
  std::vector<TransitionRecord> replay(const FaultTrace& trace);

 private:
  struct Candidate {
    std::optional<RoutingResult> rr;
    std::string step;  // ladder rung name that produced it
  };

  /// Climb the ladder; `incremental` enables rung 1 (event repairs only —
  /// the initial table and drained recomputes start at rung 2).
  Candidate run_ladder(const RoutingResult* old, bool incremental,
                       std::vector<std::string>& verdicts);
  RoutingResult splice_incremental(const RoutingResult& old);
  /// validate_routing + alive-terminal coverage; returns "" when valid,
  /// else the failure detail for the verdict trail.
  std::string candidate_error(const RoutingResult& rr) const;
  /// Validation for candidates from the Nue reroute path: only the
  /// columns the event actually touched (affected_destinations of the old
  /// table) are walked — the kept columns were validated verbatim at
  /// their own commit and re-checked for liveness by the reroute's intact
  /// classification, and table-wide CDG acyclicity is covered by the
  /// union gate (the new dependency set is a subset of the old+new union;
  /// a gate failure drains into a fully validated recompute). This keeps
  /// per-event validation proportional to the damage, not the fabric.
  std::string incremental_error(const RoutingResult& rr,
                                const RoutingResult& old) const;
  void commit(RoutingResult rr, TransitionRecord& record);
  /// The shared transition tail of apply()/resync(): union gate, wave
  /// scheduling on gate failure, drained-recompute fallback, commit(s).
  /// `rec` carries the ladder verdicts in; the chain's final record comes
  /// back. `timer` spans the whole event for per-record repair_ms.
  TransitionRecord gate_and_commit(
      const std::shared_ptr<const RoutingResult>& old, Candidate cand,
      TransitionRecord rec, Timer& timer);
  /// Fold a run's layer-indexed escape roots into escape_roots_ (entries
  /// of kInvalidNode mean "layer untouched" and keep the remembered root).
  void remember_roots(const std::vector<NodeId>& roots);

  Network net_;
  RepairPolicy policy_;
  ReconfigLog log_;
  CommitHook hook_;
  mutable std::mutex mutex_;          // guards table_/epoch_ swap + reads
  std::shared_ptr<const RoutingResult> table_;
  std::uint64_t epoch_ = 0;
  /// Escape root per virtual layer of the last Nue run, fed back to
  /// reroute_nue as hints: the previous tree's root is the candidate most
  /// likely to admit a hitless (union-acyclic) repair on the first try.
  std::vector<NodeId> escape_roots_;
};

}  // namespace nue::resilience
