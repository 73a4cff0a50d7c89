#include "metrics/reconfig_log.hpp"

#include <algorithm>
#include <utility>

#include "telemetry/telemetry.hpp"
#include "util/stats.hpp"

namespace nue {

void ReconfigLog::Summary::add(const TransitionRecord& r) {
  ++by_step[r.committed_step];
  if (r.wave_count > 0) {
    ++wave_commits;
    if (r.wave_index == r.wave_count) ++waved;
  }
  if (r.committed_step == "noop") {
    ++noops;
    return;
  }
  ++transitions;
  if (r.hitless) ++hitless;
  if (r.drained) ++drained;
  max_repair_ms = std::max(max_repair_ms, r.repair_ms);
}

void ReconfigLog::add(TransitionRecord r) {
  const std::size_t hitless = totals_.hitless, drained = totals_.drained,
                    waves = totals_.wave_commits, saves = totals_.waved;
  totals_.add(r);
  if (telemetry::enabled()) {
    // Every record counts, noops and wave intermediates included. The gate
    // counters are touched with 0 too, so they exist in the run report of
    // a storm that never drained (the tier-1 smoke asserts them --zero).
    using telemetry::counter;
    counter("resilience.transitions").add_always(1);
    if (totals_.hitless > hitless) counter("resilience.hitless").add_always(1);
    counter("resilience.drains").add_always(totals_.drained - drained);
    counter("resilience.waves").add_always(totals_.wave_commits - waves);
    counter("resilience.zero_drain_saves").add_always(totals_.waved - saves);
    telemetry::histogram("resilience.repair_us")
        .record_always(static_cast<std::uint64_t>(r.repair_ms * 1000.0));
  }
  log_.push(std::move(r));
}

ReconfigLog::Summary ReconfigLog::summarize() const {
  Summary s = totals_;
  s.evicted = evicted_records();
  std::vector<double> repair;
  for (const TransitionRecord& r : records()) {
    if (r.committed_step != "noop") repair.push_back(r.repair_ms);
  }
  if (!repair.empty()) {
    s.median_repair_ms = percentile(repair, 50.0);
    s.p99_repair_ms = percentile(repair, 99.0);
  }
  return s;
}

Json ReconfigLog::to_json() const {
  const Summary s = summarize();
  Json j = Json::object();
  j.set("transitions", s.transitions);
  j.set("noops", s.noops);
  j.set("hitless", s.hitless);
  j.set("drained", s.drained);
  j.set("waved", s.waved);
  j.set("wave_commits", s.wave_commits);
  j.set("evicted", s.evicted);
  Json by_step = Json::object();
  for (const auto& [step, count] : s.by_step) by_step.set(step, count);
  j.set("by_step", std::move(by_step));
  j.set("median_repair_ms", s.median_repair_ms);
  j.set("p99_repair_ms", s.p99_repair_ms);
  j.set("max_repair_ms", s.max_repair_ms);
  Json records = Json::array();
  for (const TransitionRecord& r : log_.items()) {
    Json rec = Json::object();
    rec.set("epoch", r.epoch);
    rec.set("event", r.event);
    rec.set("affected_dests", r.affected_dests);
    rec.set("total_dests", r.total_dests);
    rec.set("step", r.committed_step);
    rec.set("hitless", r.hitless);
    rec.set("drained", r.drained);
    if (r.wave_count > 0) {
      rec.set("wave_index", r.wave_index);
      rec.set("wave_count", r.wave_count);
    }
    rec.set("repair_ms", r.repair_ms);
    Json verdicts = Json::array();
    for (const std::string& v : r.verdicts) verdicts.push_back(v);
    rec.set("verdicts", std::move(verdicts));
    records.push_back(std::move(rec));
  }
  j.set("records", std::move(records));
  return j;
}

}  // namespace nue
