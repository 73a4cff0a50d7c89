// nue_routectl — command-line client for nue_managerd (docs/SERVICE.md).
// Builds one protocol request from flags (or sends --request verbatim)
// and renders the response for humans; --json prints the daemon's raw
// JSON response line instead, for scripts. Exit code: 0 on {"ok": true},
// 2 when the daemon answered with an error envelope (the error lands on
// stderr either way), 1 on transport/usage failures.
//
//   nue_routectl --socket /tmp/nue.sock --op status
//   nue_routectl --socket /tmp/nue.sock --op route --fabric a --src 16 --dst 17
//   nue_routectl --socket /tmp/nue.sock --op metrics --json
//   nue_routectl --socket /tmp/nue.sock --op metrics --format prom
//   nue_routectl --socket /tmp/nue.sock --op journal --fabric a --tail 20
//   nue_routectl --socket /tmp/nue.sock --op watch --interval-ms 1000
//   nue_routectl --socket /tmp/nue.sock --op shutdown
//
// `watch` is client-side: it polls `status` + `metrics` every
// --interval-ms and renders a refreshing per-shard live view (epoch and
// its age, drains/waves, p50/p99 repair and request latency) until
// interrupted (or for --iterations ticks).
#include <unistd.h>

#include <chrono>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "service/client.hpp"
#include "telemetry/telemetry.hpp"
#include "util/flags.hpp"
#include "util/json.hpp"

namespace {

using nue::service::Client;
using nue::Json;

/// (le, count) pairs of one histogram in a live metrics report, for
/// telemetry::quantile_from_buckets.
std::vector<std::pair<std::uint64_t, std::uint64_t>> histogram_buckets(
    const Json& report, const std::string& name) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  const Json* hists = report.find("histograms");
  const Json* h = hists != nullptr ? hists->find(name) : nullptr;
  const Json* buckets = h != nullptr ? h->find("buckets") : nullptr;
  if (buckets == nullptr) return out;
  for (const Json& b : buckets->items()) {
    out.emplace_back(static_cast<std::uint64_t>(b.num("le")),
                     static_cast<std::uint64_t>(b.num("count")));
  }
  return out;
}

void render_status(std::ostream& os, const Json& resp) {
  const Json* fabrics = resp.find("fabrics");
  if (fabrics == nullptr || fabrics->items().empty()) {
    os << "no fabrics loaded\n";
    return;
  }
  const auto i64 = [](double v) { return static_cast<long long>(v); };
  for (const Json& f : fabrics->items()) {
    os << f.str("fabric") << ": " << f.str("generate") << " @ "
       << f.str("engine") << "  epoch " << i64(f.num("epoch")) << " (age "
       << i64(f.num("epoch_age_ms")) << " ms)\n"
       << "  switches " << i64(f.num("switches")) << "  terminals "
       << i64(f.num("terminals")) << "  queries " << i64(f.num("queries"))
       << "  events " << i64(f.num("events")) << "  route_errors "
       << i64(f.num("route_errors")) << "\n"
       << "  transitions " << i64(f.num("transitions")) << " (hitless "
       << i64(f.num("hitless")) << ", drained " << i64(f.num("drained"))
       << ", waves " << i64(f.num("waves")) << ", saves "
       << i64(f.num("zero_drain_saves")) << ", noops "
       << i64(f.num("noops")) << ")\n"
       << "  repair_ms p50 " << std::fixed << std::setprecision(2)
       << f.num("p50_repair_ms") << "  p99 " << f.num("p99_repair_ms")
       << "  max " << f.num("max_repair_ms") << std::defaultfloat << "\n";
  }
}

void render_route(std::ostream& os, const Json& resp) {
  os << resp.str("fabric") << " epoch " << resp.num("epoch") << ": "
     << resp.num("src") << " -> " << resp.num("dst") << " in "
     << resp.num("hops") << " hops; nodes";
  const Json* nodes = resp.find("nodes");
  if (nodes != nullptr) {
    for (const Json& n : nodes->items()) os << " " << n.as_number();
  }
  os << "; vls";
  const Json* vls = resp.find("vls");
  if (vls != nullptr) {
    for (const Json& v : vls->items()) os << " " << v.as_number();
  }
  os << "\n";
}

void render_event(std::ostream& os, const Json& resp) {
  os << resp.str("fabric") << " epoch " << resp.num("epoch") << ": "
     << resp.str("event") << " -> " << resp.str("step")
     << (resp.boolean("hitless") ? " (hitless" : " (not hitless")
     << (resp.boolean("drained") ? ", drained" : "");
  if (resp.num("waves") > 0) os << ", " << resp.num("waves") << " waves";
  os << ") repair " << std::fixed << std::setprecision(2)
     << resp.num("repair_ms") << " ms\n";
}

void render_storm(std::ostream& os, const Json& resp) {
  os << resp.str("fabric") << ": " << resp.num("events") << " events -> "
     << resp.num("transitions") << " transitions ("
     << resp.num("hitless_swaps") << " hitless, " << resp.num("drains")
     << " drains, " << resp.num("waved") << " waved, " << resp.num("noops")
     << " noops), final epoch " << resp.num("epoch") << "\n";
}

void render_journal(std::ostream& os, const Json& resp) {
  const Json* entries = resp.find("entries");
  if (entries != nullptr) {
    for (const Json& e : entries->items()) {
      os << "[" << std::setw(6) << static_cast<long long>(e.num("seq"))
         << "] " << std::fixed << std::setprecision(1) << std::setw(10)
         << e.num("t_ms") << "ms " << std::defaultfloat << e.str("fabric")
         << " " << std::left << std::setw(12) << e.str("kind") << std::right
         << " epoch " << static_cast<long long>(e.num("epoch"));
      if (!e.str("event").empty()) os << " " << e.str("event");
      if (!e.str("step").empty()) os << " [" << e.str("step") << "]";
      if (e.num("wave_count") > 0) {
        os << " wave " << static_cast<long long>(e.num("wave_index")) << "/"
           << static_cast<long long>(e.num("wave_count"));
      }
      if (!e.str("verdict").empty()) os << " — " << e.str("verdict");
      os << "\n";
    }
  }
  os << static_cast<long long>(resp.num("total")) << " entries total, "
     << static_cast<long long>(resp.num("evicted"))
     << " evicted from the ring\n";
}

void render_metrics(std::ostream& os, const Json& resp) {
  if (resp.has("text")) {  // format=prom passes the exposition through
    os << resp.str("text");
    return;
  }
  const Json* report = resp.find("report");
  if (report == nullptr) return;
  const Json* counters = report->find("counters");
  if (counters != nullptr) {
    for (const auto& [name, value] : counters->members()) {
      os << name << " " << value.as_number() << "\n";
    }
  }
  const Json* hists = report->find("histograms");
  if (hists != nullptr) {
    for (const auto& [name, h] : hists->members()) {
      const auto buckets = histogram_buckets(*report, name);
      os << name << " count " << h.num("count") << " sum " << h.num("sum")
         << " p50 " << std::fixed << std::setprecision(1)
         << nue::telemetry::quantile_from_buckets(buckets, 0.5) << " p99 "
         << nue::telemetry::quantile_from_buckets(buckets, 0.99) << "\n";
    }
  }
}

/// One refreshing live view tick: per-shard status gauges plus the
/// request-latency SLO from the live histogram registry.
void render_watch_tick(std::ostream& os, const Json& status,
                       const Json& metrics) {
  os << "fabric            epoch     age[ms]  events  drains   waves   "
        "saves  rep p50/p99[ms]\n";
  const Json* fabrics = status.find("fabrics");
  if (fabrics != nullptr) {
    for (const Json& f : fabrics->items()) {
      std::ostringstream rep;
      rep << std::fixed << std::setprecision(1) << f.num("p50_repair_ms")
          << "/" << f.num("p99_repair_ms");
      os << std::left << std::setw(14) << f.str("fabric") << std::right
         << std::setw(8) << f.num("epoch") << std::setw(12) << std::fixed
         << std::setprecision(0) << f.num("epoch_age_ms") << std::setw(8)
         << f.num("events") << std::setw(8) << f.num("drained")
         << std::setw(8) << f.num("waves") << std::setw(8)
         << f.num("zero_drain_saves") << std::setw(18) << rep.str() << "\n";
    }
  }
  const Json* report = metrics.find("report");
  if (report != nullptr) {
    const auto req_us = histogram_buckets(*report, "service.request_us");
    os << "requests p50 "
       << nue::telemetry::quantile_from_buckets(req_us, 0.5) << " us, p99 "
       << nue::telemetry::quantile_from_buckets(req_us, 0.99) << " us";
    const Json* counters = report->find("counters");
    if (counters != nullptr) {
      os << "  (served " << counters->num("service.requests", 0)
         << ", errors " << counters->num("service.request_errors", 0)
         << ")";
    }
    os << "\n";
  }
}

int watch(const std::string& socket_path, const std::string& fabric,
          int interval_ms, int iterations) {
  for (int i = 0; iterations <= 0 || i < iterations; ++i) {
    Client client(socket_path);
    Json status_req = Json::object();
    status_req.set("op", "status");
    const Json status = client.request(status_req);
    Json metrics_req = Json::object();
    metrics_req.set("op", "metrics");
    const Json metrics = client.request(metrics_req);
    if (!status.boolean("ok") || !metrics.boolean("ok")) {
      std::cerr << "nue_routectl: watch: "
                << (status.boolean("ok") ? metrics.str("error")
                                         : status.str("error"))
                << "\n";
      return 2;
    }
    std::ostringstream frame;
    render_watch_tick(frame, status, metrics);
    if (isatty(STDOUT_FILENO) != 0) std::cout << "\033[H\033[2J";
    std::cout << frame.str();
    (void)fabric;
    std::cout.flush();
    if (iterations <= 0 || i + 1 < iterations) {
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  nue::Flags flags(argc, argv);
  const std::string socket_path =
      flags.get_string("socket", "", "nue_managerd socket path (required)");
  const std::string raw = flags.get_string(
      "request", "", "send this raw JSON request instead of building one");
  const std::string op = flags.get_string(
      "op", "status",
      "status|load|unload|route|tables|event|storm|reconfig-log|metrics|"
      "journal|watch|shutdown");
  const std::string fabric =
      flags.get_string("fabric", "", "target fabric name");
  const std::string generate =
      flags.get_string("generate", "", "load: generator spec");
  const std::string engine =
      flags.get_string("engine", "nue", "load: repair engine");
  const int vls = flags.get_int("vls", 2, "load: base VL budget");
  const int src = flags.get_int("src", -1, "route: source node id");
  const int dst = flags.get_int("dst", -1, "route: destination node id");
  const std::string kind = flags.get_string(
      "kind", "", "event: link-down|switch-down|link-restore|switch-restore");
  const int id = flags.get_int("id", -1, "event: channel/node id");
  const int events = flags.get_int("events", 16, "storm: event count");
  const int seed = flags.get_int("seed", 1, "load/storm: seed");
  const bool json_out = flags.get_bool(
      "json", false, "print the raw JSON response line (for scripts)");
  const std::string format = flags.get_string(
      "format", "json", "metrics: json|prom");
  const int tail = flags.get_int("tail", 20, "journal: newest N entries");
  const int interval_ms =
      flags.get_int("interval-ms", 1000, "watch: refresh interval");
  const int iterations = flags.get_int(
      "iterations", 0, "watch: stop after N ticks (0 = until interrupted)");
  if (!flags.finish()) return 1;
  if (socket_path.empty()) {
    std::cerr << "nue_routectl: --socket PATH is required\n";
    return 1;
  }

  try {
    if (raw.empty() && op == "watch") {
      return watch(socket_path, fabric, interval_ms, iterations);
    }
    Json req;
    if (!raw.empty()) {
      req = Json::parse(raw);
    } else {
      req = Json::object();
      req.set("op", op);
      if (!fabric.empty()) req.set("fabric", fabric);
      if (op == "load") {
        req.set("generate", generate);
        req.set("engine", engine);
        req.set("vls", vls);
        req.set("seed", seed);
      } else if (op == "route") {
        req.set("src", src);
        req.set("dst", dst);
      } else if (op == "event") {
        req.set("kind", kind);
        req.set("id", id);
      } else if (op == "storm") {
        req.set("events", events);
        req.set("seed", seed);
      } else if (op == "metrics") {
        req.set("format", format);
      } else if (op == "journal") {
        req.set("n", tail);
      }
    }
    Client client(socket_path);
    const Json resp = client.request(req);
    if (json_out) {
      std::cout << resp.dump() << "\n";
      return resp.boolean("ok") ? 0 : 2;
    }
    if (!resp.boolean("ok")) {
      // Enveloped daemon error: message to stderr, distinct exit code so
      // scripts can tell "daemon said no" from "couldn't reach daemon".
      std::cerr << "nue_routectl: " << resp.str("op", "request") << ": "
                << resp.str("error", "request failed") << "\n";
      return 2;
    }
    const std::string resp_op = resp.str("op");
    if (resp_op == "status") {
      render_status(std::cout, resp);
    } else if (resp_op == "route") {
      render_route(std::cout, resp);
    } else if (resp_op == "event") {
      render_event(std::cout, resp);
    } else if (resp_op == "storm") {
      render_storm(std::cout, resp);
    } else if (resp_op == "journal") {
      render_journal(std::cout, resp);
    } else if (resp_op == "metrics") {
      render_metrics(std::cout, resp);
    } else if (resp_op == "tables") {
      std::cout << resp.str("dump");
    } else if (resp_op == "reconfig-log") {
      std::cout << resp.str("log") << "\n";
    } else {
      // load/unload/shutdown and anything new: the envelope is the story.
      std::cout << resp.dump() << "\n";
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "nue_routectl: " << e.what() << "\n";
    return 1;
  }
}
