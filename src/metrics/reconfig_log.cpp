#include "metrics/reconfig_log.hpp"

#include "util/stats.hpp"

namespace nue {

ReconfigLog::Summary ReconfigLog::summarize() const {
  Summary s;
  s.transitions = total_transitions_;
  s.noops = total_noops_;
  s.hitless = total_hitless_;
  s.drained = total_drained_;
  s.waved = total_waved_;
  s.wave_commits = total_wave_commits_;
  s.by_step = total_by_step_;
  s.evicted = evicted_records();
  s.max_repair_ms = max_repair_ms_;
  std::vector<double> repair;
  for (const TransitionRecord& r : records_) {
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
  for (const TransitionRecord& r : records_) {
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
