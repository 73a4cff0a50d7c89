// Workload `churn`: the fabric-manager daemon's writes beside its reads.
// An in-process ManagerService sits behind a SocketServer on a Unix
// socket, serving torus:4x4x4:1 shards (Nue, vls=2, max_vls=4,
// log_max_records=256, one repair thread). Two closed-loop connections
// share it:
//
//   A  replays seeded draw_fault_trace storms (restore fraction 0.5) as
//      `event` requests, with a `metrics` scrape every 16 events. The
//      storm comes in segments of kSegmentEvents events, each on a fresh
//      shard that A loads over the socket first, so every run samples
//      several storms from a pristine fabric instead of one random walk;
//   B  sends `route` queries between seeded terminal pairs to the shard A
//      is working on, until A is done. A pair is redrawn unless both
//      terminals stay attached to a live switch for the next
//      kQueryWindow events, so every query must succeed.
//
// Both clients read every reply before closing, and the server stops only
// after both connections have closed. Each segment's final `tables` dump
// must be byte-identical to an offline ResilienceManager replay of the
// events applied to it.
#include <atomic>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include <unistd.h>

#include "common.hpp"
#include "resilience/resilience.hpp"
#include "routing/dump.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "service/service.hpp"
#include "topology/faults.hpp"
#include "topology/generate.hpp"
#include "util/rss.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using nue::service::Client;
using nue::service::Json;
using nue::service::ManagerService;
using nue::service::SocketServer;

constexpr const char* kSpec = "torus:4x4x4:1";
constexpr std::size_t kSegmentEvents = 256;
constexpr std::size_t kSegments = 96;
constexpr double kRestoreFraction = 0.5;
constexpr std::uint64_t kScrapeEvery = 16;
constexpr std::uint64_t kDrainEvery = 64;
constexpr std::uint32_t kVls = 2;
constexpr std::uint32_t kMaxVls = 4;
constexpr std::uint32_t kRepairThreads = 1;
constexpr std::size_t kLogMaxRecords = 256;

nue::resilience::RepairPolicy repair_policy(std::uint64_t seed) {
  nue::resilience::RepairPolicy p;
  p.engine = nue::resilience::Engine::kNue;
  p.vls = kVls;
  p.max_vls = kMaxVls;
  p.log_max_records = kLogMaxRecords;
  p.seed = seed;
  p.num_threads = kRepairThreads;
  return p;
}

/// One storm segment: its events, the shard it runs on, and which
/// switches are up after each prefix of it.
struct Segment {
  std::string fabric;
  nue::FaultTrace storm;
  /// switch_alive[j * num_nodes + v]: switch v is up after events [0, j).
  std::vector<std::uint8_t> switch_alive;
};

/// The generated inputs: the storm segments and the terminal -> switch
/// map route queries are filtered with.
struct Inputs {
  std::vector<Segment> segments;
  std::vector<nue::NodeId> terminals;
  std::vector<nue::NodeId> terminal_switch;  // by terminal node id
  std::size_t num_nodes = 0;
  double generate_s = 0;
  double faults_s = 0;

  /// True when `t`'s switch is up after every prefix [0, j) of segment
  /// `seg`, j in [lo, hi].
  bool attached(const Segment& seg, nue::NodeId t, std::size_t lo,
                std::size_t hi) const {
    hi = std::min(hi, seg.storm.events.size());
    for (std::size_t j = lo; j <= hi; ++j) {
      if (!seg.switch_alive[j * num_nodes + terminal_switch[t]]) return false;
    }
    return true;
  }
};

Inputs draw_inputs(std::uint64_t seed) {
  Inputs in;
  double t0 = now_s();
  const nue::Network net = nue::generate_topology(kSpec).net;
  in.generate_s = now_s() - t0;
  in.terminals = net.terminals();
  in.num_nodes = net.num_nodes();
  in.terminal_switch.assign(in.num_nodes, nue::kInvalidNode);
  for (const nue::NodeId t : in.terminals) {
    in.terminal_switch[t] = net.terminal_switch(t);
  }
  t0 = now_s();
  nue::Rng seeds(seed);
  for (std::size_t k = 0; k < kSegments; ++k) {
    Segment seg;
    seg.fabric = "storm-" + std::to_string(k);
    seg.storm = nue::draw_fault_trace(net, kSpec, seeds.next_u64(),
                                      kSegmentEvents, kRestoreFraction);
    std::vector<std::uint8_t> alive(in.num_nodes, 1);
    seg.switch_alive = alive;
    for (const nue::FaultEvent& e : seg.storm.events) {
      if (e.kind == nue::FaultEventKind::kSwitchDown) alive[e.id] = 0;
      if (e.kind == nue::FaultEventKind::kSwitchRestore) alive[e.id] = 1;
      seg.switch_alive.insert(seg.switch_alive.end(), alive.begin(),
                              alive.end());
    }
    in.segments.push_back(std::move(seg));
  }
  in.faults_s = now_s() - t0;
  return in;
}

/// The in-process daemon: serve() on its own thread; the destructor stops
/// the server and joins the thread (~SocketServer removes the socket
/// file). A serve() failure lands in `error` once the Daemon is gone.
class Daemon {
 public:
  Daemon(const std::string& path, ManagerService& svc, std::string& error)
      : server_(path, svc) {
    thread_ = std::thread([this, &error] {
      try {
        server_.serve();
      } catch (const std::exception& e) {
        error = e.what();
      }
    });
  }
  ~Daemon() {
    server_.stop();
    thread_.join();
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

 private:
  SocketServer server_;
  std::thread thread_;
};

std::string socket_path(const std::string& dir) {
  static int counter = 0;
  return dir + "/perfbench-" + std::to_string(::getpid()) + "-" +
         std::to_string(counter++) + ".sock";
}

Json request(const char* op, const std::string& fabric) {
  Json req = Json::object();
  req.set("op", op);
  req.set("fabric", fabric);
  return req;
}

/// Where connection A is: segment index in the high half, the index of
/// the next event to commit in the low half (one atomic, so B never sees
/// an event index of another segment).
std::uint64_t position(std::size_t segment, std::size_t event) {
  return (static_cast<std::uint64_t>(segment) << 32) | event;
}

/// Connection B's closed loop; runs until `done` is set, then returns
/// (closing its connection after the last reply has been read).
struct QueryLoop {
  static constexpr std::size_t kQueryWindow = 16;

  Samples us;
  Report outcome;  // attempted/failed queries, merged after join

  void run(const std::string& path, const Inputs& in, std::uint64_t seed,
           const std::atomic<std::uint64_t>& at, const std::atomic<bool>& done) {
    try {
      Client b(path);
      nue::Rng rng(seed ^ 0x9E3779B97F4A7C15ULL);
      const auto draw = [&] {
        return in.terminals[rng.next_below(in.terminals.size())];
      };
      std::string fabric;
      std::uint64_t last_epoch = 0;
      std::size_t last_segment = 0;
      while (!done.load(std::memory_order_acquire)) {
        const std::uint64_t pos = at.load(std::memory_order_acquire);
        const std::size_t k = pos >> 32;
        const std::size_t lo = pos & 0xFFFFFFFFu;
        const Segment& seg = in.segments[k];
        if (k != last_segment) last_epoch = 0;  // a fresh shard
        last_segment = k;
        nue::NodeId src = draw(), dst = draw();
        for (int tries = 0;
             src == dst || !in.attached(seg, src, lo, lo + kQueryWindow) ||
             !in.attached(seg, dst, lo, lo + kQueryWindow);
             ++tries) {
          if (tries == 100000) {
            throw std::runtime_error("no attached terminal pair in " +
                                     seg.fabric);
          }
          src = draw();
          dst = draw();
        }
        Json req = request("route", seg.fabric);
        req.set("src", src);
        req.set("dst", dst);
        const double t0 = now_s();
        const Json resp =
            traced_call("bench.route_rpc", [&] { return b.request(req); });
        const double dt_us = (now_s() - t0) * 1e6;
        ++outcome.attempted;
        const auto epoch = static_cast<std::uint64_t>(resp.num("epoch"));
        const Json* nodes = resp.find("nodes");
        if (!resp.boolean("ok")) {
          outcome.fail("route " + std::to_string(src) + "->" +
                       std::to_string(dst) + " on " + seg.fabric + ": " +
                       resp.str("error"));
        } else if (epoch < last_epoch) {
          outcome.fail("route epoch went backward: " + std::to_string(epoch) +
                       " < " + std::to_string(last_epoch));
        } else if (nodes == nullptr || nodes->items().empty() ||
                   nodes->items().front().as_number() != src ||
                   nodes->items().back().as_number() != dst) {
          outcome.fail("malformed route reply: " + resp.dump());
        } else {
          us.add(dt_us);
        }
        last_epoch = std::max(last_epoch, epoch);
      }
    } catch (const std::exception& e) {
      ++outcome.attempted;
      outcome.fail(std::string("query connection: ") + e.what());
    }
  }
};

/// What connection A saw on one segment.
struct SegmentRun {
  std::size_t applied = 0;
  std::string dump;
  std::uint64_t epoch = 0;
};

struct StormOutcome {
  std::vector<SegmentRun> segments;
  std::uint64_t applied = 0;
  std::uint64_t transitions = 0;
  std::uint64_t drains = 0;
  std::uint64_t waved = 0;
  Samples metrics_us;
  double storm_s = 0;
  Quality quality;  // of the last segment's final tables
};

Json load_request(const Segment& seg, std::uint64_t seed) {
  Json req = request("load", seg.fabric);
  req.set("generate", kSpec);
  req.set("engine", "nue");
  req.set("vls", kVls);
  req.set("max_vls", kMaxVls);
  req.set("seed", seed);
  req.set("threads", kRepairThreads);
  req.set("log_max_records", static_cast<std::uint64_t>(kLogMaxRecords));
  return req;
}

/// Connection A's closed loop over the storm segments until `seconds`
/// have passed; event round trips go to ph.op_ms.
void replay_storms(Client& a, const Inputs& in, std::uint64_t seed,
                   double seconds, std::atomic<std::uint64_t>& at,
                   SpanLedger* ledger, Report& rep, Phase& ph,
                   StormOutcome& out) {
  const double t_end = now_s() + seconds;
  for (std::size_t k = 0; k < in.segments.size() && now_s() < t_end; ++k) {
    const Segment& seg = in.segments[k];
    if (k > 0) {  // segment 0's shard was loaded before the daemon started
      const Json loaded = a.request(load_request(seg, seed));
      ++rep.attempted;
      if (!loaded.boolean("ok")) {
        rep.fail("load " + seg.fabric + ": " + loaded.str("error"));
        return;
      }
      at.store(position(k, 0), std::memory_order_release);
    }
    SegmentRun run;
    std::uint64_t last_epoch = 1;
    const double t_seg = now_s();
    for (const nue::FaultEvent& e : seg.storm.events) {
      if (now_s() >= t_end) break;
      at.store(position(k, run.applied), std::memory_order_release);
      Json req = request("event", seg.fabric);
      req.set("kind", nue::fault_event_name(e.kind));
      req.set("id", e.id);
      const double t0 = now_s();
      const Json resp =
          traced_call("bench.event_rpc", [&] { return a.request(req); });
      const double dt_ms = (now_s() - t0) * 1e3;
      ++rep.attempted;
      ++run.applied;
      ++out.applied;
      const auto epoch = static_cast<std::uint64_t>(resp.num("epoch"));
      if (!resp.boolean("ok")) {
        rep.fail("event " + e.label() + " on " + seg.fabric + ": " +
                 resp.str("error"));
      } else if (epoch < last_epoch) {
        rep.fail("event epoch went backward: " + resp.dump());
      } else {
        ph.op_ms.add(dt_ms);
        if (resp.str("step") != "noop") ++out.transitions;
        if (resp.boolean("drained")) ++out.drains;
        if (resp.num("waves") > 0) ++out.waved;
      }
      last_epoch = std::max(last_epoch, epoch);
      if (out.applied % kScrapeEvery == 0) {
        Json scrape = Json::object();
        scrape.set("op", "metrics");
        const double s0 = now_s();
        const Json m =
            traced_call("bench.metrics_rpc", [&] { return a.request(scrape); });
        const double s_us = (now_s() - s0) * 1e6;
        ++rep.attempted;
        if (!m.boolean("ok")) {
          rep.fail("metrics scrape: " + m.str("error"));
        } else {
          out.metrics_us.add(s_us);
        }
      }
      if (ledger != nullptr && out.applied % kDrainEvery == 0) ledger->drain();
    }
    ph.busy_s += now_s() - t_seg;

    const Json tables = a.request(request("tables", seg.fabric));
    ++rep.attempted;
    if (!tables.boolean("ok")) {
      rep.fail("tables " + seg.fabric + ": " + tables.str("error"));
    }
    run.dump = tables.str("dump");
    run.epoch = static_cast<std::uint64_t>(tables.num("epoch"));
    out.segments.push_back(std::move(run));
  }
}

}  // namespace

Report run_churn(const Args& args) {
  Report rep;
  Samples setup_s, generate_s, faults_s;
  Inputs in;
  const nue::resilience::RepairPolicy policy = repair_policy(args.seed);
  run_setup(setup_s, [&] {
    in = draw_inputs(args.seed);
    generate_s.add(in.generate_s);
    faults_s.add(in.faults_s);
    ManagerService svc;
    svc.load(in.segments[0].fabric, kSpec, policy);
  });

  StormOutcome last;
  const auto loop = [&](double seconds, SpanLedger* ledger) {
    Phase ph;
    StormOutcome out;
    ManagerService svc;
    {
      nue::telemetry::EnabledScope off(false);
      svc.load(in.segments[0].fabric, kSpec, policy);
    }
    const std::string path = socket_path(args.scratch);
    std::string server_error;
    {
      Daemon daemon(path, svc, server_error);
      std::atomic<bool> storm_done{false};
      std::atomic<std::uint64_t> at{position(0, 0)};
      QueryLoop reads;
      reads.us.reserve(1u << 21);
      std::thread reader(
          [&] { reads.run(path, in, args.seed, at, storm_done); });
      struct Joiner {
        std::atomic<bool>& done;
        std::thread& t;
        ~Joiner() {
          done.store(true, std::memory_order_release);
          if (t.joinable()) t.join();
        }
      } joiner{storm_done, reader};

      Client a(path);
      const double t_start = now_s();
      replay_storms(a, in, args.seed, seconds, at, ledger, rep, ph, out);
      out.storm_s = now_s() - t_start;
      storm_done.store(true, std::memory_order_release);
      reader.join();
      rep.merge(reads.outcome);
      ph.probe_us = std::move(reads.us);
    }
    if (!server_error.empty()) rep.fail("socket server: " + server_error);
    if (ledger != nullptr) ledger->drain();

    // The offline replay proof, outside the measurement and the trace.
    nue::telemetry::EnabledScope off(false);
    for (std::size_t k = 0; k < out.segments.size(); ++k) {
      const SegmentRun& run = out.segments[k];
      nue::resilience::ResilienceManager offline(
          nue::generate_topology(kSpec).net, policy);
      for (std::size_t i = 0; i < run.applied; ++i) {
        offline.apply(in.segments[k].storm.events[i]);
      }
      std::ostringstream expected;
      nue::write_forwarding_tables(expected, offline.net(), *offline.table());
      ++rep.attempted;
      if (expected.str() != run.dump || offline.epoch() != run.epoch) {
        rep.fail(in.segments[k].fabric +
                 ": daemon tables diverged from the offline replay after " +
                 std::to_string(run.applied) + " events");
      }
      if (k + 1 == out.segments.size()) {
        out.quality = measure_quality(offline.net(), *offline.table());
      }
    }

    ph.ops = out.applied;
    ph.work = static_cast<double>(out.applied);
    last = std::move(out);
    return ph;
  };

  const PhaseSet phases = run_phases(args, loop);
  const double rss = nue::peak_rss_mb().value_or(0.0);

  const Phase& ph = phases.timed;
  rep.record = {
      {"repair_p50_ms", ph.op_ms.median(), "ms"},
      {"repair_p99_ms", ph.op_ms.quantile(0.99), "ms"},
      {"events_per_s", ph.busy_s > 0 ? ph.work / ph.busy_s : 0.0, "1/s"},
      {"query_p50_us", ph.probe_us.median(), "us"},
      {"query_p99_us", ph.probe_us.quantile(0.99), "us"},
      {"queries_per_s",
       last.storm_s > 0 ? static_cast<double>(ph.probe_us.size()) / last.storm_s
                        : 0.0,
       "1/s"},
      {"drains", static_cast<double>(last.drains), "count"},
      {"events", static_cast<double>(last.applied), "count"},
      {"segments", static_cast<double>(last.segments.size()), "count"},
      {"transitions", static_cast<double>(last.transitions), "count"},
      {"wave_chains", static_cast<double>(last.waved), "count"},
      {"metrics_scrape_p50_us", last.metrics_us.median(), "us"},
      {"gamma_max", last.quality.gamma_max, "paths"},
      {"max_hops", last.quality.max_hops, "hops"},
  };
  finish_report(rep, setup_s, rss, phases);
  if (args.trace) {
    LayerContext ctx;
    ctx.ops = static_cast<double>(ph.ops);
    ctx.nue_threads = kRepairThreads;
    ctx.topology_generate_s = generate_s.median();
    ctx.topology_faults_s = faults_s.median();
    ctx.client_route_p50_us = ph.probe_us.median();
    ctx.overhead_frac = phases.overhead_frac();
    rep.per_layer = layer_metrics(phases.ledger, ctx);
  }
  return rep;
}

}  // namespace perfbench
