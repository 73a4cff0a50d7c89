#include "service/service.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <iterator>
#include <limits>
#include <sstream>
#include <string_view>
#include <utility>

#include "routing/dump.hpp"
#include "telemetry/export.hpp"
#include "telemetry/telemetry.hpp"
#include "topology/generate.hpp"
#include "util/error.hpp"

namespace nue::service {

namespace {

/// Success/failure envelope shared by every op, so managerd.schema.json
/// can describe any response without oneOf (scripts/validate_json.py has
/// no union support): "ok" and "op" always, "error" only on failure,
/// op-specific members only on success.
Json ok_response(const std::string& op) {
  Json r = Json::object();
  r.set("ok", true);
  r.set("op", op);
  return r;
}

Json error_response(const std::string& op, const std::string& what) {
  Json r = Json::object();
  r.set("ok", false);
  r.set("op", op);
  r.set("error", what);
  return r;
}

/// A request's non-negative integer member, `def` when absent. A value
/// that is not a number, negative, fractional, too large for T or above
/// `max` throws — dispatch answers with the error envelope — instead of
/// reaching a cast whose result would be undefined.
template <typename T>
T uint_member(const Json& req, const std::string& key, T def,
              T max = std::numeric_limits<T>::max()) {
  const Json* v = req.find(key);
  if (v == nullptr) return def;
  const double x = v->is_number() ? v->as_number() : -1.0;
  NUE_CHECK_MSG(x >= 0 && x == std::floor(x) &&
                    x < std::ldexp(1.0, std::numeric_limits<T>::digits) &&
                    static_cast<T>(x) <= max,
                "\"" << key << "\" must be an integer in [0, " << max << "]");
  return static_cast<T>(x);
}

/// Per-op request-latency histogram. Known ops get their own series
/// (the `service.request_us.<op>` SLO family); anything else shares one
/// series so a hostile client can't grow the registry unboundedly. Each
/// handle is looked up once, on the op's first request, so a series
/// appears in the registry only once its op has been seen.
telemetry::Histogram& request_us_series(const std::string& op) {
  static constexpr std::string_view kOps[] = {
      "status", "load",         "unload",  "route",   "tables",   "event",
      "storm",  "reconfig-log", "metrics", "journal", "shutdown", "other"};
  constexpr std::size_t kOther = std::size(kOps) - 1;
  static std::atomic<telemetry::Histogram*> series[std::size(kOps)] = {};
  std::size_t i = 0;
  while (i < kOther && kOps[i] != op) ++i;
  telemetry::Histogram* h = series[i].load(std::memory_order_acquire);
  if (h == nullptr) {
    h = &telemetry::histogram("service.request_us." + std::string(kOps[i]));
    series[i].store(h, std::memory_order_release);
  }
  return *h;
}

/// The verdict line that explains a failed direct union gate: the gate's
/// own cycle verdict when present, else the wave scheduler's stuck
/// verdict (the VL-shift/drain paths record that one first).
std::string gate_failure_verdict(const TransitionRecord& rec) {
  for (const std::string& v : rec.verdicts) {
    if (v.rfind("union-gate: cycle", 0) == 0) return v;
  }
  for (const std::string& v : rec.verdicts) {
    if (v.rfind("wave-scheduler:", 0) == 0) return v;
  }
  return rec.verdicts.empty() ? "" : rec.verdicts.back();
}

/// Fabric names become part of file names (the flight recorder's
/// flightrec-<fabric>-<epoch>.json), so they are restricted to
/// [A-Za-z0-9._-]{1,64}, minus the path components "." and "..".
bool valid_fabric_name(const std::string& name) {
  if (name.empty() || name.size() > 64 || name == "." || name == "..") {
    return false;
  }
  return std::all_of(name.begin(), name.end(), [](char c) {
    return (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
           (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
  });
}

}  // namespace

FaultEvent parse_fault_event(const Json& req) {
  const std::string kind = req.str("kind");
  FaultEvent e;
  if (kind == "link-down") {
    e.kind = FaultEventKind::kLinkDown;
  } else if (kind == "switch-down") {
    e.kind = FaultEventKind::kSwitchDown;
  } else if (kind == "link-restore") {
    e.kind = FaultEventKind::kLinkRestore;
  } else if (kind == "switch-restore") {
    e.kind = FaultEventKind::kSwitchRestore;
  } else {
    NUE_CHECK_MSG(false, "unknown event kind '" << kind
                         << "' (want link-down|switch-down|link-restore|"
                            "switch-restore)");
  }
  NUE_CHECK_MSG(req.has("id"), "event needs an \"id\" member");
  e.id = uint_member<std::uint32_t>(req, "id", 0);
  return e;
}

// --- FabricShard ------------------------------------------------------------

FabricShard::FabricShard(std::string name, std::string generate,
                         resilience::RepairPolicy policy,
                         EventJournal* journal, FlightRecorder* flightrec)
    : name_(std::move(name)),
      generate_(std::move(generate)),
      journal_(journal),
      flightrec_(flightrec),
      mgr_(generate_topology(generate_).net, std::move(policy)) {
  last_commit_ns_.store(telemetry::now_ns(), std::memory_order_relaxed);
  // Fires after every committed epoch, wave intermediates included. The
  // initial table committed during mgr_'s construction above, before the
  // hook existed — ManagerService::load journals that as a "load" entry.
  mgr_.set_commit_hook([this](const Network&, const RoutingResult*,
                              const RoutingResult&,
                              const TransitionRecord& rec) {
    last_commit_ns_.store(telemetry::now_ns(), std::memory_order_relaxed);
    if (journal_ == nullptr) return;
    journal_->append(make_entry(
        rec, rec.committed_step == "wave" ? "wave" : "transition"));
  });
}

JournalEntry FabricShard::make_entry(const TransitionRecord& rec,
                                     const std::string& kind) const {
  JournalEntry e{.fabric = name_, .kind = kind, .rec = rec,
                 .verdict = rec.verdicts.empty() ? "" : rec.verdicts.back()};
  e.rec.verdicts = std::vector<std::string>();  // the entry keeps one line
  return e;
}

void FabricShard::observe_transition(const TransitionRecord& rec) {
  if (journal_ == nullptr) return;
  if (rec.committed_step == "noop") {
    journal_->append(make_entry(rec, "noop"));
    return;
  }
  // A transition that waved or drained is one whose direct union gate
  // failed — the anomaly the journal flags and the flight recorder
  // snapshots (commit entries for the epochs themselves already landed
  // via the hook).
  if (rec.wave_count == 0 && !rec.drained) return;
  JournalEntry gate = make_entry(rec, "gate-failure");
  gate.verdict = gate_failure_verdict(rec);
  journal_->append(gate);
  if (rec.drained) {
    journal_->append(make_entry(rec, "drain"));
  }
  if (flightrec_ != nullptr) flightrec_->trigger(*journal_, gate);
}

Json FabricShard::route(std::uint32_t src, std::uint32_t dst) {
  queries_.fetch_add(1, std::memory_order_relaxed);
  static auto& route_queries = telemetry::counter("service.route_queries");
  route_queries.add();
  // Snapshot first: everything below reads this epoch's table plus the
  // fabric's immutable channel-endpoint arrays, so a concurrent event on
  // this shard cannot tear the walk (see the header's concurrency notes).
  const std::shared_ptr<const RoutingResult> rr = mgr_.table();
  const std::uint64_t epoch = mgr_.epoch();
  const Network& net = mgr_.net();
  try {
    NUE_CHECK_MSG(src < net.num_nodes() && dst < net.num_nodes(),
                  "node id out of range (fabric has " << net.num_nodes()
                                                      << " nodes)");
    const std::vector<ChannelId> path = rr->trace(net, src, dst);
    const std::uint32_t di = rr->dest_index(dst);
    Json hops = Json::array();
    Json vls = Json::array();
    Json nodes = Json::array();
    nodes.push_back(src);
    for (const ChannelId c : path) {
      hops.push_back(c);
      vls.push_back(static_cast<std::uint32_t>(rr->vl(net.src(c), src, di)));
      nodes.push_back(net.dst(c));
    }
    Json r = ok_response("route");
    r.set("fabric", name_);
    r.set("epoch", epoch);
    r.set("src", src);
    r.set("dst", dst);
    r.set("hops", path.size());
    r.set("channels", std::move(hops));
    r.set("nodes", std::move(nodes));
    r.set("vls", std::move(vls));
    return r;
  } catch (const std::exception& e) {
    route_errors_.fetch_add(1, std::memory_order_relaxed);
    Json r = error_response("route", e.what());
    r.set("fabric", name_);
    r.set("epoch", epoch);
    return r;
  }
}

Json FabricShard::apply_event(const FaultEvent& e) {
  std::lock_guard<std::mutex> lock(event_mu_);
  events_.fetch_add(1, std::memory_order_relaxed);
  telemetry::counter("service.fault_events").add();
  const TransitionRecord rec = mgr_.apply(e);
  observe_transition(rec);
  Json r = ok_response("event");
  r.set("fabric", name_);
  r.set("event", rec.event);
  r.set("epoch", rec.epoch);
  r.set("step", rec.committed_step);
  r.set("hitless", rec.hitless);
  r.set("drained", rec.drained);
  r.set("waves", rec.wave_count);
  r.set("affected_dests", rec.affected_dests);
  r.set("repair_ms", Json(rec.repair_ms));
  return r;
}

Json FabricShard::storm(std::size_t count, std::uint64_t seed,
                        double restore_fraction) {
  std::lock_guard<std::mutex> lock(event_mu_);
  const FaultTrace trace =
      draw_fault_trace(mgr_.net(), generate_, seed, count, restore_fraction);
  // Tallies the records apply() returns: one per event, chain finals
  // standing for their whole migration chain.
  ReconfigLog::Summary sum;
  for (const FaultEvent& e : trace.events) {
    events_.fetch_add(1, std::memory_order_relaxed);
    telemetry::counter("service.fault_events").add();
    const TransitionRecord rec = mgr_.apply(e);
    observe_transition(rec);
    sum.add(rec);
  }
  Json r = ok_response("storm");
  r.set("fabric", name_);
  r.set("events", trace.events.size());
  r.set("transitions", sum.transitions);
  r.set("noops", sum.noops);
  // Counts, not the event response's booleans — distinct names keep the
  // one-envelope schema (managerd.schema.json) free of union types.
  r.set("hitless_swaps", sum.hitless);
  r.set("drains", sum.drained);
  r.set("waved", sum.waved);
  r.set("epoch", mgr_.epoch());
  return r;
}

Json FabricShard::tables() {
  // Dumps read the fabric's liveness bitsets next to the table, so they
  // serialize with events — unlike route(), which only needs the
  // snapshot (and the dump must be of exactly one epoch anyway).
  std::lock_guard<std::mutex> lock(event_mu_);
  std::ostringstream os;
  write_forwarding_tables(os, mgr_.net(), *mgr_.table());
  Json r = ok_response("tables");
  r.set("fabric", name_);
  r.set("epoch", mgr_.epoch());
  r.set("dump", os.str());
  return r;
}

Json FabricShard::status() {
  std::lock_guard<std::mutex> lock(event_mu_);
  const auto sum = mgr_.log().summarize();
  Json r = Json::object();
  r.set("fabric", name_);
  r.set("generate", generate_);
  r.set("engine", engine_name(mgr_.policy().engine));
  r.set("epoch", mgr_.epoch());
  r.set("switches", mgr_.net().num_alive_switches());
  r.set("terminals", mgr_.net().num_alive_terminals());
  r.set("queries", queries_.load(std::memory_order_relaxed));
  r.set("events", events_.load(std::memory_order_relaxed));
  r.set("route_errors", route_errors_.load(std::memory_order_relaxed));
  r.set("transitions", sum.transitions);
  r.set("hitless", sum.hitless);
  r.set("drained", sum.drained);
  r.set("waves", sum.wave_commits);
  r.set("zero_drain_saves", sum.waved);
  r.set("noops", sum.noops);
  // Per-rung ladder outcomes (exact across log eviction) so an operator
  // can see from `nue_routectl status` alone whether a shard has ever
  // drained, waved, or climbed past the incremental rung.
  Json rungs = Json::object();
  for (const auto& [step, count] : sum.by_step) rungs.set(step, count);
  r.set("rungs", rungs);
  r.set("log_records", mgr_.log().records().size());
  r.set("log_evicted", mgr_.log().evicted_records());
  // Live SLO gauges: repair-latency quantiles over the retained log
  // window plus the age of the committed epoch — what `routectl watch`
  // renders per shard.
  r.set("p50_repair_ms", Json(sum.median_repair_ms));
  r.set("p99_repair_ms", Json(sum.p99_repair_ms));
  r.set("max_repair_ms", Json(sum.max_repair_ms));
  const double age_ms =
      static_cast<double>(telemetry::now_ns() -
                          last_commit_ns_.load(std::memory_order_relaxed)) /
      1e6;
  r.set("epoch_age_ms", Json(age_ms < 0 ? 0.0 : age_ms));
  return r;
}

Json FabricShard::reconfig_log() {
  std::lock_guard<std::mutex> lock(event_mu_);
  return mgr_.log().to_json();
}

// --- ManagerService ---------------------------------------------------------

ManagerService::ManagerService(const ObservabilityOptions& obs)
    : journal_(obs.journal_capacity), flightrec_(obs) {
  if (!obs.journal_file.empty()) {
    journal_.open_file(obs.journal_file, obs.journal_max_bytes);
  }
}

void ManagerService::load(const std::string& name, const std::string& generate,
                          resilience::RepairPolicy policy) {
  NUE_CHECK_MSG(valid_fabric_name(name),
                "fabric name '" << name
                                << "' must match [A-Za-z0-9._-]{1,64} and "
                                   "not be '.' or '..'");
  // Build outside the map lock: loads are the slow path (full initial
  // route) and must not stall queries against existing shards.
  auto shard = std::make_shared<FabricShard>(name, generate, std::move(policy),
                                             &journal_, &flightrec_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& s : shards_) {
      NUE_CHECK_MSG(s->name() != name,
                    "fabric '" << name << "' already loaded");
    }
    shards_.push_back(shard);
  }
  // The initial table committed inside the shard's constructor, before
  // its commit hook existed — journal the lifecycle event here instead.
  JournalEntry e;
  e.fabric = name;
  e.kind = "load";
  e.rec.event = generate;
  e.rec.epoch = shard->epoch();
  journal_.append(std::move(e));
}

std::shared_ptr<FabricShard> ManagerService::find(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& s : shards_) {
    if (s->name() == name) return s;
  }
  return nullptr;
}

Json ManagerService::op_status() {
  std::vector<std::shared_ptr<FabricShard>> snapshot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    snapshot = shards_;
  }
  Json fabrics = Json::array();
  for (const auto& s : snapshot) fabrics.push_back(s->status());
  Json r = ok_response("status");
  r.set("fabrics", std::move(fabrics));
  return r;
}

Json ManagerService::op_load(const Json& req) {
  const std::string name = req.str("fabric");
  const std::string generate = req.str("generate");
  NUE_CHECK_MSG(!generate.empty(), "load needs a \"generate\" spec");
  resilience::RepairPolicy policy;
  const std::string engine = req.str("engine", "nue");
  const auto parsed = engine_from_name(engine);
  NUE_CHECK_MSG(parsed.has_value() && engine_info(*parsed).repairs,
                "unknown repair engine '" << engine << "'");
  policy.engine = *parsed;
  policy.vls = uint_member<std::uint32_t>(req, "vls", 2, kMaxLoadVls);
  policy.max_vls = uint_member<std::uint32_t>(
      req, "max_vls", std::max<std::uint32_t>(policy.vls, 8), kMaxLoadVls);
  policy.seed = uint_member<std::uint64_t>(req, "seed", 1);
  policy.num_threads = uint_member<std::uint32_t>(req, "threads", 1);
  policy.log_max_records =
      uint_member<std::size_t>(req, "log_max_records", 512);
  load(name, generate, policy);
  Json r = ok_response("load");
  r.set("fabric", name);
  r.set("generate", generate);
  return r;
}

Json ManagerService::op_unload(const Json& req) {
  const std::string name = req.str("fabric");
  std::unique_lock<std::mutex> lock(mu_);
  for (auto it = shards_.begin(); it != shards_.end(); ++it) {
    if ((*it)->name() == name) {
      const std::uint64_t epoch = (*it)->epoch();
      shards_.erase(it);  // in-flight ops keep their shared_ptr alive
      lock.unlock();
      JournalEntry e;
      e.fabric = name;
      e.kind = "unload";
      e.rec.epoch = epoch;
      journal_.append(std::move(e));
      Json r = ok_response("unload");
      r.set("fabric", name);
      return r;
    }
  }
  NUE_CHECK_MSG(false, "fabric '" << name << "' is not loaded");
  return Json();  // unreachable: the check above throws
}

Json ManagerService::op_metrics(const Json& req) {
  const std::string format = req.str("format", "json");
  Json r = ok_response("metrics");
  if (format == "prom") {
    std::ostringstream os;
    telemetry::write_prometheus_text(os);
    r.set("text", os.str());
    return r;
  }
  NUE_CHECK_MSG(format == "json",
                "unknown metrics format '" << format << "' (want json|prom)");
  r.set("report", telemetry::metrics_report());
  return r;
}

Json ManagerService::op_journal(const Json& req) {
  const auto n = uint_member<std::size_t>(req, "n", 64);
  const std::string fabric = req.str("fabric", "");
  Json entries = Json::array();
  for (const JournalEntry& e : journal_.tail(n, fabric)) {
    entries.push_back(e.to_json());
  }
  Json r = ok_response("journal");
  r.set("entries", std::move(entries));
  r.set("total", journal_.total());
  r.set("evicted", journal_.evicted());
  return r;
}

Json ManagerService::handle(const Json& req) {
  static auto& requests = telemetry::counter("service.requests");
  static auto& request_us = telemetry::histogram("service.request_us");
  requests.add();
  const std::string op = req.is_object() ? req.str("op") : "";
  const std::int64_t t0 = telemetry::now_ns();
  Json resp;
  try {
    NUE_CHECK_MSG(req.is_object(), "request must be a JSON object");
    NUE_CHECK_MSG(!op.empty(), "request needs an \"op\" member");
    if (op == "status") {
      resp = op_status();
    } else if (op == "load") {
      resp = op_load(req);
    } else if (op == "unload") {
      resp = op_unload(req);
    } else if (op == "metrics") {
      resp = op_metrics(req);
    } else if (op == "journal") {
      resp = op_journal(req);
    } else if (op == "shutdown") {
      shutdown_.store(true, std::memory_order_release);
      resp = ok_response("shutdown");
    } else if (op == "route" || op == "tables" || op == "event" ||
               op == "storm" || op == "reconfig-log") {
      const std::string name = req.str("fabric");
      auto shard = find(name);
      NUE_CHECK_MSG(shard != nullptr,
                    "fabric '" << name << "' is not loaded");
      if (op == "route") {
        NUE_CHECK_MSG(req.has("src") && req.has("dst"),
                      "route needs \"src\" and \"dst\"");
        resp = shard->route(uint_member<std::uint32_t>(req, "src", 0),
                            uint_member<std::uint32_t>(req, "dst", 0));
      } else if (op == "tables") {
        resp = shard->tables();
      } else if (op == "event") {
        resp = shard->apply_event(parse_fault_event(req));
      } else if (op == "storm") {
        resp = shard->storm(uint_member<std::size_t>(req, "events", 16),
                            uint_member<std::uint64_t>(req, "seed", 1),
                            req.num("restore_fraction", 0.3));
      } else {
        Json r = ok_response("reconfig-log");
        r.set("fabric", name);
        r.set("log", shard->reconfig_log().dump());
        resp = r;
      }
    } else {
      NUE_CHECK_MSG(false, "unknown op '" << op << "'");
    }
  } catch (const std::exception& e) {
    telemetry::counter("service.request_errors").add();
    resp = error_response(op, e.what());
  }
  // Request-latency SLO series: overall and per op (errors included —
  // a failing request still costs the client its latency).
  const auto us =
      static_cast<std::uint64_t>((telemetry::now_ns() - t0) / 1000);
  request_us.record(us);
  request_us_series(op).record(us);
  // Correlation id for pipelining clients ("req_id", echoed verbatim —
  // plain "id" is taken by the event op's element id).
  if (const Json* id = req.find("req_id")) resp.set("req_id", *id);
  return resp;
}

std::vector<telemetry::ExtraSection> ManagerService::report_sections() {
  std::vector<std::shared_ptr<FabricShard>> snapshot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    snapshot = shards_;
  }
  std::vector<telemetry::ExtraSection> out;
  out.reserve(snapshot.size());
  for (const auto& s : snapshot) {
    out.emplace_back("reconfig." + s->name(), s->reconfig_log());
  }
  return out;
}

}  // namespace nue::service
