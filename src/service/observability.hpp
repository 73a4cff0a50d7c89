// The daemon's live observability plane (docs/OBSERVABILITY.md, "live
// plane"): a bounded structured event journal and a gate-failure flight
// recorder. (The `metrics` op serves telemetry::metrics_report, the same
// builder behind --metrics-out.)
//
//   * EventJournal — an append-only ring of structured entries (one per
//     fault/repair/wave/drain/gate-failure, plus load/unload), each with
//     a monotone sequence number, epoch, committed step, and verdict.
//     Served by the `journal` op; optionally mirrored to a JSONL file
//     with byte-size rotation (`nue_managerd --journal FILE`).
//   * FlightRecorder — on a gate failure (a transition that had to wave
//     or drain), snapshots the journal tail, the tracer's recent spans,
//     and the counter registry into a flightrec-<fabric>-<epoch>.json
//     bundle, so every anomaly ships with the trace of the run that
//     produced it (the daemon-side analogue of route_fuzz's diagnosis
//     bundles).
//
// Everything here is readable while routing threads are hot: the journal
// takes one short mutex per append/read, the registry snapshots are
// relaxed-atomic reads, and the tracer drain is the same short-lock merge
// the exporters already use. None of it influences routing decisions.
#pragma once

#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

#include "metrics/reconfig_log.hpp"
#include "service/json.hpp"
#include "util/bounded_log.hpp"

namespace nue::service {

/// One journal record: a view of one TransitionRecord plus what the
/// journal adds to it. `kind` is the taxonomy the journal schema fixes:
///   load / unload        — shard lifecycle
///   transition           — a committed repair epoch (chain finals too)
///   wave                 — an intermediate epoch of a migration chain
///   noop                 — an event that left every column intact
///   gate-failure         — a transition whose direct union gate failed
///                          (it waved or drained; `verdict` says which)
///   drain                — the drained-recompute fallback actually fired
struct JournalEntry {
  std::uint64_t seq = 0;   // assigned by EventJournal::append, monotone
  double t_ms = 0.0;       // telemetry::now_ns() at append, in ms
  std::string fabric;
  std::string kind;
  /// The transition's own fields, its `verdicts` left empty (the one
  /// line the entry shows is `verdict`). Load and unload entries set
  /// only `event` (load: the generator spec) and `epoch`.
  TransitionRecord rec;
  std::string verdict;     // gate/scheduler verdict line

  Json to_json() const;
};

/// Thread-safe journal ring keeping exactly the newest `capacity` entries
/// (a BoundedLog). Appends assign monotone sequence numbers; total/evicted
/// counts stay exact across eviction. With a file attached, every entry
/// is also written as one JSONL line, rotating FILE -> FILE.1 when the
/// byte budget is hit.
class EventJournal {
 public:
  explicit EventJournal(std::size_t capacity = 4096);

  /// Attach a JSONL mirror (throws std::runtime_error if unwritable).
  /// max_bytes 0 = never rotate.
  void open_file(const std::string& path, std::size_t max_bytes);

  /// Stamp (seq, t_ms) and append; returns the assigned seq.
  std::uint64_t append(JournalEntry e);

  /// Newest `n` entries in sequence order, optionally filtered by fabric
  /// (filter applies before the tail cut: the newest n *matching*).
  std::vector<JournalEntry> tail(std::size_t n,
                                 const std::string& fabric = "") const;

  std::uint64_t total() const;     // entries ever appended
  std::uint64_t evicted() const;   // entries dropped from the ring
  std::uint64_t rotations() const; // file rotations performed

 private:
  mutable std::mutex mu_;
  BoundedLog<JournalEntry> ring_;
  std::uint64_t rotations_ = 0;
  std::string file_path_;
  std::ofstream file_;
  std::size_t file_bytes_ = 0;
  std::size_t max_bytes_ = 0;
};

/// Where the live plane writes and how much it retains. Defaults are the
/// in-process test configuration; nue_managerd maps its flags onto this.
struct ObservabilityOptions {
  std::size_t journal_capacity = 4096;
  std::string journal_file;            // "" = no JSONL mirror
  std::size_t journal_max_bytes = 8u << 20;
  std::string flightrec_dir;           // "" = flight recorder off
  std::size_t flightrec_max_bundles = 16;
};

/// Gate-failure flight recorder: trigger() writes one bundle per
/// anomaly, capped at `max_bundles` per process (further triggers are
/// counted, not written — an anomaly storm must not fill the disk).
class FlightRecorder {
 public:
  static constexpr std::size_t kJournalTail = 64;  // entries per bundle
  static constexpr std::size_t kSpans = 512;       // recent spans per bundle

  explicit FlightRecorder(const ObservabilityOptions& opts);

  bool enabled() const { return !dir_.empty(); }

  /// Snapshot journal tail + recent spans + counters into
  /// <dir>/flightrec-<fabric>-<epoch>.json. Returns the path written
  /// ("" when disabled, suppressed by the cap, or unwritable — the
  /// recorder must never take the serving path down).
  std::string trigger(const EventJournal& journal,
                      const JournalEntry& cause);

  std::uint64_t bundles() const;
  std::uint64_t suppressed() const;

 private:
  const std::string dir_;
  const std::size_t max_bundles_;
  mutable std::mutex mu_;
  std::uint64_t bundles_ = 0;
  std::uint64_t suppressed_ = 0;
};

}  // namespace nue::service
