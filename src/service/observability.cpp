#include "service/observability.hpp"

#include <algorithm>
#include <filesystem>
#include <utility>

#include "telemetry/telemetry.hpp"
#include "util/error.hpp"

namespace nue::service {

// --- JournalEntry -----------------------------------------------------------

Json JournalEntry::to_json() const {
  Json j = Json::object();
  j.set("seq", seq);
  j.set("t_ms", Json(t_ms));
  j.set("fabric", fabric);
  j.set("kind", kind);
  j.set("event", rec.event);
  j.set("epoch", rec.epoch);
  j.set("step", rec.committed_step);
  j.set("hitless", rec.hitless);
  j.set("drained", rec.drained);
  j.set("wave_index", rec.wave_index);
  j.set("wave_count", rec.wave_count);
  j.set("repair_ms", Json(rec.repair_ms));
  j.set("verdict", verdict);
  return j;
}

// --- EventJournal -----------------------------------------------------------

EventJournal::EventJournal(std::size_t capacity)
    : ring_(capacity == 0 ? 1 : capacity) {}

void EventJournal::open_file(const std::string& path, std::size_t max_bytes) {
  std::lock_guard<std::mutex> lk(mu_);
  file_.open(path, std::ios::app);
  NUE_CHECK_MSG(file_.good(), "cannot open journal file '" << path << "'");
  file_path_ = path;
  max_bytes_ = max_bytes;
  file_bytes_ = static_cast<std::size_t>(file_.tellp());
}

std::uint64_t EventJournal::append(JournalEntry e) {
  std::lock_guard<std::mutex> lk(mu_);
  e.seq = ring_.total() + 1;
  e.t_ms = static_cast<double>(telemetry::now_ns()) / 1e6;
  const std::uint64_t seq = e.seq;
  if (file_.is_open()) {
    const std::string line = e.to_json().dump();
    if (max_bytes_ > 0 && file_bytes_ > 0 &&
        file_bytes_ + line.size() + 1 > max_bytes_) {
      // Rotate FILE -> FILE.1 (one generation is enough: the journal is
      // a recent-history mirror, not an archive).
      file_.close();
      std::error_code ec;  // rotation failure must not drop the append
      std::filesystem::rename(file_path_, file_path_ + ".1", ec);
      file_.open(file_path_, std::ios::trunc);
      file_bytes_ = 0;
      ++rotations_;
    }
    if (file_.good()) {
      file_ << line << "\n";
      file_.flush();
      file_bytes_ += line.size() + 1;
    }
  }
  ring_.push(std::move(e));
  return seq;
}

std::vector<JournalEntry> EventJournal::tail(std::size_t n,
                                             const std::string& fabric) const {
  std::lock_guard<std::mutex> lk(mu_);
  const auto& items = ring_.items();
  std::vector<JournalEntry> out;
  out.reserve(std::min(n, items.size()));
  for (auto it = items.rbegin(); it != items.rend() && out.size() < n; ++it) {
    if (!fabric.empty() && it->fabric != fabric) continue;
    out.push_back(*it);
  }
  std::reverse(out.begin(), out.end());
  return out;
}

std::uint64_t EventJournal::total() const {
  std::lock_guard<std::mutex> lk(mu_);
  return ring_.total();
}

std::uint64_t EventJournal::evicted() const {
  std::lock_guard<std::mutex> lk(mu_);
  return ring_.evicted();
}

std::uint64_t EventJournal::rotations() const {
  std::lock_guard<std::mutex> lk(mu_);
  return rotations_;
}

// --- FlightRecorder ---------------------------------------------------------

FlightRecorder::FlightRecorder(const ObservabilityOptions& opts)
    : dir_(opts.flightrec_dir), max_bundles_(opts.flightrec_max_bundles) {
  if (!dir_.empty()) {
    std::error_code ec;  // unwritable dir degrades to no bundles, below
    std::filesystem::create_directories(dir_, ec);
  }
}

std::string FlightRecorder::trigger(const EventJournal& journal,
                                    const JournalEntry& cause) {
  if (!enabled()) return "";
  std::lock_guard<std::mutex> lk(mu_);
  if (bundles_ >= max_bundles_) {
    ++suppressed_;
    telemetry::counter("service.flightrec_suppressed").add_always(1);
    return "";
  }

  Json bundle = Json::object();
  bundle.set("schema_version", 1);
  bundle.set("fabric", cause.fabric);
  bundle.set("epoch", cause.rec.epoch);
  bundle.set("reason", cause.kind);
  bundle.set("cause", cause.to_json());
  Json entries = Json::array();
  for (const JournalEntry& e : journal.tail(kJournalTail)) {
    entries.push_back(e.to_json());
  }
  bundle.set("journal", std::move(entries));
  Json spans = Json::array();
  for (const auto& s : telemetry::Tracer::instance().recent_spans(kSpans)) {
    Json sj = Json::object();
    sj.set("name", std::string(s.name));
    sj.set("tid", s.tid);
    sj.set("depth", s.depth);
    sj.set("start_us", Json(static_cast<double>(s.start_ns) / 1e3));
    sj.set("dur_us", Json(static_cast<double>(s.dur_ns) / 1e3));
    spans.push_back(std::move(sj));
  }
  bundle.set("spans", std::move(spans));
  Json counters = Json::object();
  for (const auto& [name, value] :
       telemetry::Registry::instance().counter_snapshot()) {
    counters.set(name, value);
  }
  bundle.set("counters", std::move(counters));

  std::string path = dir_ + "/flightrec-" + cause.fabric + "-" +
                     std::to_string(cause.rec.epoch) + ".json";
  std::ofstream os(path);
  if (!os) return "";  // unwritable dir: degrade silently, keep serving
  os << bundle.dump() << "\n";
  ++bundles_;
  telemetry::counter("service.flightrec_bundles").add_always(1);
  return path;
}

std::uint64_t FlightRecorder::bundles() const {
  std::lock_guard<std::mutex> lk(mu_);
  return bundles_;
}

std::uint64_t FlightRecorder::suppressed() const {
  std::lock_guard<std::mutex> lk(mu_);
  return suppressed_;
}

}  // namespace nue::service
