// Reconfiguration verdict log: every repair transition the live resilience
// manager performs (src/resilience) is recorded here — which event fired,
// how much of the routing function it touched, which rung of the retry
// ladder produced the committed table, whether the union-CDG gate allowed
// a hitless swap or forced a drained recompute, and how long the repair
// took. to_json() is the log's one JSON form: nue_route --reconfig-json,
// the run report's `reconfig` / `reconfig.<fabric>` sections and the
// daemon's `reconfig-log` op all serve it.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "util/bounded_log.hpp"
#include "util/json.hpp"

namespace nue {

struct TransitionRecord {
  std::uint64_t epoch = 0;       // epoch this transition installed
  std::string event;             // triggering event label ("link-down 42")
  std::size_t affected_dests = 0;  // columns that had to be recomputed
  std::size_t total_dests = 0;     // destinations in the committed table
  /// Rung of the repair ladder that produced the committed table:
  /// "incremental", "full-recompute", "more-vls", "nue-fallback" — or
  /// "noop" when the event left every column intact (epoch unchanged), or
  /// "wave" for the intermediate epochs of a migration-wave chain (the
  /// chain's final record carries the producing rung).
  std::string committed_step;
  bool union_gate_checked = false;  // false for noops / the initial table
  bool hitless = false;     // union-CDG gate passed: swapped without drain
  bool drained = false;     // gate failed: drained full recompute installed
  /// Migration-wave chain linkage (src/resilience/waves.hpp): a
  /// transition whose direct union gate failed but that scheduled into
  /// dependency-safe waves commits wave_count epochs — wave_count - 1
  /// intermediate records (committed_step "wave", affected_dests = the
  /// columns that wave migrated) then the final record. 0/0 = ordinary
  /// single-epoch transition.
  std::uint32_t wave_index = 0;  // 1-based position within the chain
  std::uint32_t wave_count = 0;  // epochs in the chain (0 = not a chain)
  double repair_ms = 0.0;   // event applied -> table committed
  /// One line per ladder attempt, in order ("incremental: ok", "more-vls:
  /// engine declined: ...", "incremental: invalid table: ...").
  std::vector<std::string> verdicts;
};

/// The one per-shard transition log: the `reconfig-log` op, the run
/// report's `reconfig` sections and the daemon's journal entries are all
/// views of these records, and add() mirrors each one onto the
/// `resilience.*` telemetry counters.
class ReconfigLog {
 public:
  struct Summary {
    std::size_t transitions = 0;  // records excluding noops (exact)
    std::size_t noops = 0;        // exact
    std::size_t hitless = 0;      // exact
    std::size_t drained = 0;      // exact
    std::size_t waved = 0;        // wave chains completed: drains avoided
                                  // by the wave scheduler (exact)
    std::size_t wave_commits = 0;  // epochs committed as part of a wave
                                   // chain, intermediates + finals (exact)
    std::size_t evicted = 0;      // records dropped from the window
    /// Committed-step -> record count, "noop" and "wave" included — the
    /// per-rung ladder statistics, exact across eviction like every other
    /// count here (a bounded resident manager must not lose its drain/
    /// rung breakdown when the window trims).
    std::map<std::string, std::size_t> by_step;
    double median_repair_ms = 0.0;  // over the retained window
    double p99_repair_ms = 0.0;     // over the retained window
    double max_repair_ms = 0.0;     // exact across eviction

    /// Fold one record in: the one place that classifies a record as noop,
    /// transition, hitless, drained, wave commit or chain final.
    void add(const TransitionRecord& r);
  };

  /// Append a record, fold it into the exact totals and, with telemetry
  /// on, into the `resilience.*` counters and the repair-time histogram.
  void add(TransitionRecord r);

  /// The retained record window, oldest first (see set_max_records).
  const std::deque<TransitionRecord>& records() const { return log_.items(); }

  /// Keep exactly the newest `n` records (0 = unbounded, the one-shot CLI
  /// default). The resident daemon caps it so a shard's log cannot grow
  /// over an unbounded event stream; every Summary count and the repair
  /// maximum stay exact across eviction, median/p99 cover the window.
  void set_max_records(std::size_t n) { log_.set_capacity(n); }

  /// Records ever added (retained + evicted).
  std::size_t total_records() const { return log_.total(); }
  std::size_t evicted_records() const { return log_.evicted(); }

  Summary summarize() const;

  /// Summary counts plus the retained records, oldest first.
  Json to_json() const;

 private:
  BoundedLog<TransitionRecord> log_;
  Summary totals_;  // every record ever added; window fields unset
};

}  // namespace nue
