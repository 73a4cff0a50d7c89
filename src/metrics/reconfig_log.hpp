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
#include <map>
#include <string>
#include <vector>

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
  /// engine declined: ...", "incremental: over budget (12.3ms > 5ms)").
  std::vector<std::string> verdicts;
};

class ReconfigLog {
 public:
  void add(TransitionRecord r) {
    absorb_into_totals(r);
    records_.push_back(std::move(r));
    trim();
  }

  /// The retained record window, oldest first. With a retention cap this
  /// is a suffix of the full trail (see set_max_records).
  const std::vector<TransitionRecord>& records() const { return records_; }

  /// Cap the retained record window at `n` (0 = unbounded, the one-shot
  /// CLI default — replays want the full trail). The resident daemon sets
  /// a cap so a shard's log cannot grow monotonically over an unbounded
  /// event stream: once the window overflows, the oldest records are
  /// dropped in amortized-O(1) batches. Every Summary count and the
  /// repair-time maximum stay exact across eviction; median/p99 are
  /// computed over the retained window only.
  void set_max_records(std::size_t n) {
    max_records_ = n;
    trim();
  }
  std::size_t max_records() const { return max_records_; }

  /// Records ever added (retained + evicted).
  std::size_t total_records() const { return total_records_; }
  std::size_t evicted_records() const { return total_records_ - records_.size(); }

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
  };
  Summary summarize() const;

  /// Summary counts plus the retained records, oldest first.
  Json to_json() const;

 private:
  void absorb_into_totals(const TransitionRecord& r) {
    ++total_records_;
    ++total_by_step_[r.committed_step];
    if (r.wave_count > 0) {
      ++total_wave_commits_;
      if (r.wave_index == r.wave_count) ++total_waved_;
    }
    if (r.committed_step == "noop") {
      ++total_noops_;
    } else {
      ++total_transitions_;
      if (r.hitless) ++total_hitless_;
      if (r.drained) ++total_drained_;
      if (r.repair_ms > max_repair_ms_) max_repair_ms_ = r.repair_ms;
    }
  }

  /// Drop the oldest records down to half the cap once the window
  /// overflows — halving batches make the vector erase amortized O(1)
  /// per add. The totals above were folded in at add() time, so nothing
  /// is lost but the per-record detail.
  void trim() {
    if (max_records_ == 0 || records_.size() <= max_records_) return;
    const std::size_t keep = max_records_ - max_records_ / 2;
    records_.erase(records_.begin(),
                   records_.end() - static_cast<std::ptrdiff_t>(keep));
  }

  std::vector<TransitionRecord> records_;
  std::size_t max_records_ = 0;
  // Running aggregates over every record ever added, so summarize() stays
  // exact after eviction.
  std::size_t total_records_ = 0;
  std::size_t total_transitions_ = 0;
  std::size_t total_noops_ = 0;
  std::size_t total_hitless_ = 0;
  std::size_t total_drained_ = 0;
  std::size_t total_waved_ = 0;
  std::size_t total_wave_commits_ = 0;
  std::map<std::string, std::size_t> total_by_step_;
  double max_repair_ms_ = 0.0;
};

}  // namespace nue
