// nue_managerd's core: fabric shards and the request dispatcher
// (docs/SERVICE.md). A shard is one fabric under management — its live
// resilience manager (src/resilience), the epoch-swapped routing-table
// pair inside it, and per-shard telemetry counters. The service maps
// fabric names to shards and turns protocol requests (service/json.hpp
// values, already parsed off the wire by service/server.*) into
// responses.
//
// Concurrency model (the whole point of the shard split):
//
//   * route queries never take the shard's event lock. They grab the
//     manager's table() snapshot (shared_ptr double buffer) and walk the
//     forwarding table via RoutingResult::trace, which reads only the
//     table's own arrays plus the fabric's immutable channel-endpoint
//     arrays — safe concurrently with fault events mutating liveness and
//     adjacency on the same shard. Every response therefore comes from a
//     fully validated, already-committed epoch, never a half-repaired
//     table. That bound is why SocketServer answers `route` on its poll
//     loop thread and hands every other op to the worker pool
//     (service/server.hpp): handle() must stay cheap for `route`.
//   * fault/repair events, table dumps, status and log reads serialize
//     on the shard's event mutex (ResilienceManager::apply's contract).
//   * shard map changes (load/unload) take the service's map mutex;
//     requests against different shards proceed independently.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "resilience/resilience.hpp"
#include "service/json.hpp"
#include "service/observability.hpp"
#include "telemetry/export.hpp"
#include "topology/faults.hpp"

namespace nue::service {

/// Largest `vls` (and `max_vls`) a `load` request may ask for: the
/// 64-lane hard cap DFSSSP and LASH use when allowed to exceed their
/// budget. A larger request gets the error envelope before any shard is
/// built, instead of routing that many virtual layers.
inline constexpr std::uint32_t kMaxLoadVls = 64;

/// One managed fabric: resilience manager + request counters. With a
/// journal attached, every commit (chain intermediates included) is
/// journaled via the manager's commit hook, gate failures get a
/// dedicated entry, and the flight recorder fires on them.
class FabricShard {
 public:
  /// Builds the fabric from the generator spec and routes the initial
  /// table (resilience::ResilienceManager's constructor — the heavy
  /// part of `load`). Throws on a bad spec or unroutable fabric.
  /// journal/flightrec may be null (offline/test shards) and must
  /// outlive the shard otherwise.
  FabricShard(std::string name, std::string generate,
              resilience::RepairPolicy policy,
              EventJournal* journal = nullptr,
              FlightRecorder* flightrec = nullptr);

  const std::string& name() const { return name_; }
  const std::string& generate() const { return generate_; }
  std::uint64_t epoch() const { return mgr_.epoch(); }

  /// Route src -> dst on the current epoch; lock-free w.r.t. events.
  Json route(std::uint32_t src, std::uint32_t dst);
  /// Apply one fault/repair event through the repair ladder.
  Json apply_event(const FaultEvent& e);
  /// Draw `count` random events server-side and apply them all.
  Json storm(std::size_t count, std::uint64_t seed, double restore_fraction);
  /// Deterministic forwarding-table dump (routing/dump.hpp) + its epoch.
  Json tables();
  Json status();
  /// The shard's ReconfigLog (metrics/reconfig_log.hpp, to_json()).
  Json reconfig_log();

 private:
  /// Journal the non-commit observations of one applied event (noop,
  /// gate-failure, drain) and pull the flight-recorder trigger. The
  /// commit hook already journaled the committed epochs themselves.
  void observe_transition(const TransitionRecord& rec);
  JournalEntry make_entry(const TransitionRecord& rec,
                          const std::string& kind) const;

  std::string name_;
  std::string generate_;
  EventJournal* journal_ = nullptr;      // not owned; may be null
  FlightRecorder* flightrec_ = nullptr;  // not owned; may be null
  resilience::ResilienceManager mgr_;
  std::mutex event_mu_;  // serializes apply/dump/log on this shard
  std::atomic<std::uint64_t> queries_{0};
  std::atomic<std::uint64_t> events_{0};
  std::atomic<std::uint64_t> route_errors_{0};
  std::atomic<std::int64_t> last_commit_ns_{0};  // epoch-age gauge source
};

class ManagerService {
 public:
  /// The default options journal to an in-memory ring only (no file, no
  /// flight recorder) — the live plane's data structures are always on,
  /// its disk sinks opt-in.
  explicit ManagerService(const ObservabilityOptions& obs = {});

  /// Load a fabric as a new shard (also the CLI --load path). Throws on
  /// duplicate names, bad specs, or unroutable fabrics.
  void load(const std::string& name, const std::string& generate,
            resilience::RepairPolicy policy);

  /// Dispatch one request. Never throws: every failure becomes an
  /// {"ok": false, "error": ...} response. A "req_id" member is echoed
  /// verbatim so clients can pipeline.
  Json handle(const Json& req);

  /// Set once a `shutdown` request has been acknowledged; the server's
  /// accept loop polls this to wind down.
  bool shutdown_requested() const {
    return shutdown_.load(std::memory_order_acquire);
  }

  /// Per-shard reconfiguration logs as extra sections for the telemetry
  /// run report flushed at shutdown ("reconfig.<fabric>").
  std::vector<telemetry::ExtraSection> report_sections();

  const EventJournal& journal() const { return journal_; }
  const FlightRecorder& flight_recorder() const { return flightrec_; }

 private:
  std::shared_ptr<FabricShard> find(const std::string& name);
  Json op_status();
  Json op_load(const Json& req);
  Json op_unload(const Json& req);
  Json op_metrics(const Json& req);
  Json op_journal(const Json& req);

  // Declared before shards_: shards hold raw pointers into both, so the
  // sinks must outlive every shard on destruction.
  EventJournal journal_;
  FlightRecorder flightrec_;
  std::mutex mu_;  // guards shards_ (the map, not the shards)
  std::vector<std::shared_ptr<FabricShard>> shards_;
  std::atomic<bool> shutdown_{false};
};

/// Parse the wire form of an event ({"kind": "link-down", "id": 42}).
/// Throws std::logic_error on an unknown kind.
FaultEvent parse_fault_event(const Json& req);

}  // namespace nue::service
