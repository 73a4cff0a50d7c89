// Fabric-manager daemon integration tests (ISSUE 7 tentpole,
// docs/SERVICE.md): the JSON wire format, the request dispatcher, and
// the full daemon loop — a SocketServer on a temp Unix socket, two
// fabric shards, concurrent route queries during a fault/repair storm —
// asserting every response comes from a validated committed epoch and
// that the daemon's final tables are byte-identical to an offline
// ResilienceManager replay of the same event sequence (which is what
// one-shot `nue_route --fault-trace` runs).
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <latch>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "routing/dump.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "service/service.hpp"
#include "telemetry/telemetry.hpp"
#include "topology/faults.hpp"
#include "topology/generate.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"

namespace nue {
namespace {

using service::Client;
using service::ManagerService;
using service::SocketServer;

TEST(Json, ParseDumpRoundTrip) {
  const std::string text =
      R"({"op":"route","fabric":"a","src":16,"dst":31,"deep":[1,2.5,true,)"
      R"(null,{"k":"v"}],"esc":"a\"b\\c\ndA"})";
  const Json j = Json::parse(text);
  EXPECT_EQ(j.str("op"), "route");
  EXPECT_EQ(j.num("src"), 16.0);
  EXPECT_EQ(j.str("esc"), "a\"b\\c\ndA");
  const Json* deep = j.find("deep");
  ASSERT_NE(deep, nullptr);
  ASSERT_EQ(deep->items().size(), 5u);
  EXPECT_TRUE(deep->items()[3].is_null());
  // dump() -> parse() is the identity on structure.
  const Json again = Json::parse(j.dump());
  EXPECT_EQ(again.dump(), j.dump());
}

TEST(Json, RejectsMalformedInput) {
  for (const char* bad :
       {"", "{", "[1,", "{\"a\":}", "{\"a\" 1}", "tru", "1 2",
        "\"unterminated", "{\"a\":1,}"}) {
    EXPECT_THROW(Json::parse(bad), std::runtime_error) << bad;
  }
}

TEST(Json, NumbersAndSetSemantics) {
  Json j = Json::object();
  j.set("n", std::uint64_t{1} << 40);
  j.set("f", Json(2.5));
  j.set("n", 7);  // overwrite keeps position
  EXPECT_EQ(j.dump(), "{\"n\":7,\"f\":2.5}");
}

TEST(ManagerServiceDispatch, ErrorsAreEnvelopedNotThrown) {
  ManagerService svc;
  EXPECT_FALSE(svc.handle(Json::parse("[1]")).boolean("ok"));
  EXPECT_FALSE(svc.handle(Json::parse("{}")).boolean("ok"));
  EXPECT_FALSE(svc.handle(Json::parse(R"({"op":"warp"})")).boolean("ok"));
  const Json missing =
      svc.handle(Json::parse(R"({"op":"route","fabric":"nope"})"));
  EXPECT_FALSE(missing.boolean("ok"));
  EXPECT_NE(missing.str("error").find("not loaded"), std::string::npos);
  const Json badload = svc.handle(
      Json::parse(R"({"op":"load","fabric":"x","generate":"warp:3"})"));
  EXPECT_FALSE(badload.boolean("ok"));
  // req_id correlation survives the error path.
  const Json echoed =
      svc.handle(Json::parse(R"({"op":"warp","req_id":42})"));
  ASSERT_NE(echoed.find("req_id"), nullptr);
  EXPECT_EQ(echoed.find("req_id")->as_number(), 42.0);
}

// Fabric names end up in file names (flightrec-<fabric>-<epoch>.json):
// anything outside [A-Za-z0-9._-]{1,64}, and the path components "." and
// "..", is refused with the error envelope before a shard is built.
TEST(ManagerServiceDispatch, LoadRejectsUnsafeFabricNames) {
  ManagerService svc;
  for (const std::string& name : std::vector<std::string>{
           "a/b", "..", ".", "", "a b", "x\\y", std::string(65, 'n')}) {
    Json req = Json::object();
    req.set("op", "load");
    req.set("fabric", name);
    req.set("generate", "torus:3x3:1");
    const Json resp = svc.handle(req);
    EXPECT_FALSE(resp.boolean("ok")) << "accepted fabric name '" << name << "'";
    EXPECT_NE(resp.str("error").find("fabric name"), std::string::npos)
        << resp.dump();
  }
  EXPECT_EQ(svc.journal().total(), 0u) << "a refused load must not journal";
  for (const char* name : {"storm-0", "a", "t", "v1.2_x"}) {
    EXPECT_NO_THROW(svc.load(name, "torus:3x3:1", resilience::RepairPolicy{}))
        << name;
  }
  EXPECT_THROW(svc.load("a/b", "torus:3x3:1", resilience::RepairPolicy{}),
               std::logic_error);
}

TEST(ManagerServiceDispatch, LoadRouteEventUnload) {
  ManagerService svc;
  ASSERT_TRUE(svc.handle(Json::parse(
                      R"({"op":"load","fabric":"t","generate":"torus:3x3:1",)"
                      R"("engine":"nue","vls":2,"seed":5})"))
                  .boolean("ok"));
  EXPECT_FALSE(svc.handle(Json::parse(
                       R"({"op":"load","fabric":"t","generate":"torus:3x3:1"})"))
                   .boolean("ok"))
      << "duplicate names must be rejected";
  const Json r = svc.handle(
      Json::parse(R"({"op":"route","fabric":"t","src":9,"dst":17})"));
  ASSERT_TRUE(r.boolean("ok")) << r.str("error");
  EXPECT_EQ(r.num("epoch"), 1.0);
  const auto& nodes = r.find("nodes")->items();
  ASSERT_GE(nodes.size(), 2u);
  EXPECT_EQ(nodes.front().as_number(), 9.0);
  EXPECT_EQ(nodes.back().as_number(), 17.0);
  const Json ev = svc.handle(Json::parse(
      R"({"op":"event","fabric":"t","kind":"link-down","id":0})"));
  ASSERT_TRUE(ev.boolean("ok")) << ev.str("error");
  EXPECT_EQ(ev.num("epoch"), 2.0);
  const Json log =
      svc.handle(Json::parse(R"({"op":"reconfig-log","fabric":"t"})"));
  ASSERT_TRUE(log.boolean("ok"));
  // The embedded ReconfigLog is itself valid JSON with both transitions.
  const Json parsed_log = Json::parse(log.str("log"));
  EXPECT_EQ(parsed_log.find("records")->items().size(), 2u);
  ASSERT_TRUE(
      svc.handle(Json::parse(R"({"op":"unload","fabric":"t"})")).boolean("ok"));
  EXPECT_FALSE(
      svc.handle(Json::parse(R"({"op":"route","fabric":"t","src":9,"dst":17})"))
          .boolean("ok"));
}

// Only catalogue rows that can drive the repair ladder load as a shard.
TEST(ManagerServiceDispatch, LoadRejectsNonRepairEngines) {
  ManagerService svc;
  for (const char* engine : {"minhop", "torus-qos"}) {
    Json req = Json::object();
    req.set("op", "load");
    req.set("fabric", "t");
    req.set("generate", "torus:3x3:1");
    req.set("engine", engine);
    const Json resp = svc.handle(req);
    EXPECT_FALSE(resp.boolean("ok")) << engine;
    EXPECT_NE(resp.str("error").find("unknown repair engine"),
              std::string::npos)
        << resp.dump();
  }
}

// A malformed generator spec is refused by the strict grammar before any
// shard exists; it used to load whatever its numeric prefix described.
TEST(ManagerServiceDispatch, LoadRejectsMalformedSpecs) {
  ManagerService svc;
  for (const char* spec : {"torus:3x3:2abc", "torus:3x3:-1", "torus:3x3:"}) {
    Json req = Json::object();
    req.set("op", "load");
    req.set("fabric", "t");
    req.set("generate", spec);
    const Json resp = svc.handle(req);
    EXPECT_FALSE(resp.boolean("ok")) << spec;
    EXPECT_NE(resp.str("error").find(spec), std::string::npos)
        << resp.dump();
  }
  const Json status = svc.handle(Json::parse(R"({"op":"status"})"));
  ASSERT_TRUE(status.boolean("ok"));
  EXPECT_TRUE(status.find("fabrics")->items().empty());
}

// Sizes past their ceilings get the error envelope before any shard is
// built: a generator spec over kMaxGeneratedElements nodes or links, and
// a `vls` or `max_vls` over kMaxLoadVls.
TEST(ManagerServiceDispatch, LoadRefusesSizesPastTheCeilings) {
  ManagerService svc;
  const std::pair<const char*, const char*> cases[] = {
      {R"({"op":"load","fabric":"t","generate":"torus:3x3:4000000000"})",
       "ceiling"},
      {R"({"op":"load","fabric":"t","generate":"torus:3x3:1","vls":65})",
       "\"vls\" must be an integer in [0, 64]"},
      {R"({"op":"load","fabric":"t","generate":"torus:3x3:1",)"
       R"("vls":4000000000})",
       "\"vls\" must be an integer in [0, 64]"},
      {R"({"op":"load","fabric":"t","generate":"torus:3x3:1",)"
       R"("max_vls":65})",
       "\"max_vls\" must be an integer in [0, 64]"},
  };
  for (const auto& [req, what] : cases) {
    const Json resp = svc.handle(Json::parse(req));
    EXPECT_FALSE(resp.boolean("ok")) << req;
    EXPECT_EQ(resp.str("op"), "load") << req;
    EXPECT_NE(resp.str("error").find(what), std::string::npos)
        << resp.dump();
  }
  const Json status = svc.handle(Json::parse(R"({"op":"status"})"));
  ASSERT_TRUE(status.boolean("ok"));
  EXPECT_TRUE(status.find("fabrics")->items().empty());
  EXPECT_TRUE(svc.handle(Json::parse(R"({"op":"load","fabric":"t",)"
                                     R"("generate":"torus:3x3:1",)"
                                     R"("vls":2,"max_vls":64})"))
                  .boolean("ok"));
}

// Request integers are range-checked before any cast: a negative,
// fractional or oversized value is answered with the error envelope, and
// an echoed req_id far outside the integer range still round-trips.
TEST(ManagerServiceDispatch, OutOfRangeNumbersGetTheErrorEnvelope) {
  ManagerService svc;
  ASSERT_TRUE(svc.handle(Json::parse(
                      R"({"op":"load","fabric":"t","generate":"torus:3x3:1"})"))
                  .boolean("ok"));
  for (const char* src : {"-1", "1e12", "0.5"}) {
    const Json r = svc.handle(Json::parse(
        std::string(R"({"op":"route","fabric":"t","dst":9,"src":)") + src +
        "}"));
    EXPECT_FALSE(r.boolean("ok")) << "src " << src;
    EXPECT_NE(r.str("error").find("\"src\""), std::string::npos) << src;
  }
  EXPECT_FALSE(
      svc.handle(Json::parse(R"({"op":"journal","n":-5})")).boolean("ok"));
  const Json echoed =
      svc.handle(Json::parse(R"({"op":"status","req_id":1e300})"));
  ASSERT_TRUE(echoed.boolean("ok"));
  const Json wire = Json::parse(echoed.dump());
  ASSERT_NE(wire.find("req_id"), nullptr);
  EXPECT_TRUE(wire.find("req_id")->is_number());
  EXPECT_EQ(wire.num("req_id"), 1e300);
}

std::string temp_socket_path(const char* tag) {
  return "/tmp/nue_test_" + std::string(tag) + "_" +
         std::to_string(::getpid()) + ".sock";
}

// The acceptance scenario: two shards, a fault/repair storm applied over
// the protocol, route queries hammering both shards concurrently, and a
// byte-identical cross-check against the offline replay path.
TEST(Daemon, ConcurrentQueriesDuringFaultStormMatchOfflineReplay) {
  // Fabric a deliberately uses the churn configuration that is known to
  // force union-gate failures (see test_waves.cpp): the storm drives the
  // manager through multi-epoch wave chains while clients are mid-query,
  // so the monotone-epoch assertions below cover intermediate wave
  // commits, not just ordinary swaps.
  const std::string spec_a = "torus:3x3:1";
  const std::string spec_b = "random:20:50:2";
  resilience::RepairPolicy pol_a;
  pol_a.engine = resilience::Engine::kNue;
  pol_a.vls = 2;
  pol_a.max_vls = 4;
  pol_a.seed = 29;
  pol_a.num_threads = 1;
  pol_a.log_max_records = 64;
  resilience::RepairPolicy pol_b = pol_a;
  pol_b.engine = resilience::Engine::kDfsssp;
  pol_b.vls = 4;
  pol_b.max_vls = 8;

  // The event storm, drawn offline so the daemon and the reference
  // replay consume the identical sequence.
  const FaultTrace storm = draw_fault_trace(generate_topology(spec_a).net,
                                            spec_a, 29, 300, 0.5);
  ASSERT_GE(storm.events.size(), 150u);

  ManagerService svc;
  svc.load("a", spec_a, pol_a);
  svc.load("b", spec_b, pol_b);
  const std::string path = temp_socket_path("daemon");
  SocketServer server(path, svc);
  std::thread serve_thread([&server] { server.serve(); });

  // Query workers: one connection each, alternating shards, recording
  // per-connection epochs (which must be monotone — table snapshots can
  // only move forward) and validating every successful path's shape.
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> ok_routes{0};
  std::atomic<std::uint64_t> dead_dest_routes{0};
  std::atomic<bool> failed{false};
  const auto worker = [&](std::uint32_t salt) {
    try {
      Client client(path);
      std::uint64_t last_epoch_a = 0;
      std::uint64_t iter = 0;
      while (!stop.load(std::memory_order_acquire)) {
        ++iter;
        const bool on_a = (iter + salt) % 3 != 0;
        // Fabric a: terminals are nodes 9..17; fabric b: 20..59.
        const std::uint32_t lo = on_a ? 9 : 20;
        const std::uint32_t n = on_a ? 9 : 40;
        const auto src = static_cast<std::uint32_t>(
            lo + (iter * 7 + salt) % n);
        auto dst =
            static_cast<std::uint32_t>(lo + (iter * 13 + salt * 5) % n);
        if (dst == src) dst = lo + (dst + 1 - lo) % n;
        Json req = Json::object();
        req.set("op", "route");
        req.set("fabric", on_a ? "a" : "b");
        req.set("src", src);
        req.set("dst", dst);
        const Json resp = client.request(req);
        const auto epoch = static_cast<std::uint64_t>(resp.num("epoch"));
        if (resp.boolean("ok")) {
          ok_routes.fetch_add(1, std::memory_order_relaxed);
          const auto& nodes = resp.find("nodes")->items();
          if (nodes.front().as_number() != src ||
              nodes.back().as_number() != dst ||
              resp.num("hops") + 1 != static_cast<double>(nodes.size())) {
            ADD_FAILURE() << "malformed path: " << resp.dump();
            failed.store(true);
            return;
          }
        } else {
          // Legal only while the destination (or a hop) is dead mid-storm;
          // still must carry a committed epoch.
          dead_dest_routes.fetch_add(1, std::memory_order_relaxed);
        }
        if (epoch < 1) {
          ADD_FAILURE() << "response from uncommitted epoch: " << resp.dump();
          failed.store(true);
          return;
        }
        if (on_a) {
          if (epoch < last_epoch_a) {
            ADD_FAILURE() << "epoch went backwards: " << epoch << " < "
                          << last_epoch_a;
            failed.store(true);
            return;
          }
          last_epoch_a = epoch;
        }
      }
    } catch (const std::exception& e) {
      ADD_FAILURE() << "query worker died: " << e.what();
      failed.store(true);
    }
  };
  std::vector<std::thread> workers;
  for (std::uint32_t i = 0; i < 4; ++i) workers.emplace_back(worker, i);

  // The storm, over the wire, while the workers hammer both shards. Wave
  // chains surface in the event response: a chain's "epoch" is its final
  // committed epoch and "waves" its chain length, so the daemon-side
  // epoch must advance by exactly the chain length — the intermediates
  // were committed (and were visible to the query workers), never
  // skipped.
  std::uint64_t wave_chains = 0, wave_epochs = 0;
  {
    Client events(path);
    std::uint64_t last_epoch = 1;
    for (const FaultEvent& e : storm.events) {
      Json req = Json::object();
      req.set("op", "event");
      req.set("fabric", "a");
      req.set("kind", fault_event_name(e.kind));
      req.set("id", e.id);
      const Json resp = events.request(req);
      ASSERT_TRUE(resp.boolean("ok")) << resp.str("error");
      const auto epoch = static_cast<std::uint64_t>(resp.num("epoch"));
      const auto waves = static_cast<std::uint64_t>(resp.num("waves"));
      if (waves > 0) {
        ++wave_chains;
        wave_epochs += waves;
        ASSERT_GE(waves, 2u) << resp.dump();
        ASSERT_EQ(epoch, last_epoch + waves) << resp.dump();
        ASSERT_FALSE(resp.boolean("drained")) << resp.dump();
      } else {
        ASSERT_LE(epoch, last_epoch + 1) << resp.dump();
      }
      last_epoch = epoch;
    }
  }
  stop.store(true, std::memory_order_release);
  for (auto& w : workers) w.join();
  ASSERT_FALSE(failed.load());
  EXPECT_GT(ok_routes.load(), 0u) << "storm never saw a successful query";
  EXPECT_GT(wave_chains, 0u)
      << "storm no longer exercises mid-wave daemon reads";

  // The per-shard status op reports the same wave history the event
  // responses accumulated — the operator-visible zero-drain evidence.
  {
    Client client(path);
    const Json status = client.request(Json::parse(R"({"op":"status"})"));
    ASSERT_TRUE(status.boolean("ok"));
    for (const Json& fab : status.find("fabrics")->items()) {
      if (fab.str("fabric") != "a") continue;
      EXPECT_EQ(static_cast<std::uint64_t>(fab.num("zero_drain_saves")),
                wave_chains);
      EXPECT_EQ(static_cast<std::uint64_t>(fab.num("waves")), wave_epochs);
      EXPECT_EQ(fab.num("drained"), 0.0) << fab.dump();
      const Json* rungs = fab.find("rungs");
      ASSERT_NE(rungs, nullptr);
      EXPECT_EQ(static_cast<std::uint64_t>(rungs->num("wave")),
                wave_epochs - wave_chains)
          << "one intermediate 'wave' rung per non-final chain epoch";
    }
  }

  // Offline reference: same fabric, same policy, same events — the
  // daemon's final table must be byte-identical to the one-shot replay.
  resilience::ResilienceManager offline(generate_topology(spec_a).net, pol_a);
  for (const FaultEvent& e : storm.events) offline.apply(e);
  std::ostringstream expected;
  write_forwarding_tables(expected, offline.net(), *offline.table());

  Client client(path);
  Json treq = Json::object();
  treq.set("op", "tables");
  treq.set("fabric", "a");
  const Json tables = client.request(treq);
  ASSERT_TRUE(tables.boolean("ok")) << tables.str("error");
  EXPECT_EQ(static_cast<std::uint64_t>(tables.num("epoch")),
            offline.epoch());
  EXPECT_EQ(tables.str("dump"), expected.str())
      << "daemon tables diverged from the offline replay";

  // Shard b was pristine throughout: its dump must equal a fresh route.
  resilience::ResilienceManager offline_b(generate_topology(spec_b).net,
                                          pol_b);
  std::ostringstream expected_b;
  write_forwarding_tables(expected_b, offline_b.net(), *offline_b.table());
  Json breq = Json::object();
  breq.set("op", "tables");
  breq.set("fabric", "b");
  const Json tables_b = client.request(breq);
  ASSERT_TRUE(tables_b.boolean("ok"));
  EXPECT_EQ(tables_b.str("dump"), expected_b.str());

  // Graceful shutdown over the protocol: serve() drains and returns.
  Json shutdown = Json::object();
  shutdown.set("op", "shutdown");
  EXPECT_TRUE(client.request(shutdown).boolean("ok"));
  serve_thread.join();
  EXPECT_TRUE(svc.shutdown_requested());
}

// A client that pipelines requests and hangs up without reading the
// replies must cost the daemon one connection, not the process: the
// replies' writes fail with EPIPE instead of raising SIGPIPE. The client
// connects (into the listen backlog), sends and closes before serving
// starts, so every reply is written to a closed peer.
TEST(Daemon, ClientClosingBeforeReadingRepliesDoesNotKillTheDaemon) {
  ManagerService svc;
  resilience::RepairPolicy pol;
  pol.vls = 2;
  pol.num_threads = 1;
  svc.load("a", "torus:4x4x4:1", pol);
  const std::string path = temp_socket_path("hangup");
  SocketServer server(path, svc);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  const std::string line =
      Json::object().set("op", "tables").set("fabric", "a").dump() + "\n";
  std::string burst;
  for (int i = 0; i < 50; ++i) burst += line;
  const ssize_t sent = ::write(fd, burst.data(), burst.size());
  ::close(fd);
  ASSERT_EQ(sent, static_cast<ssize_t>(burst.size()));

  std::thread serve_thread([&server] { server.serve(); });
  bool status_ok = false;
  try {
    Client client(path);
    status_ok = client.request(Json::parse(R"({"op":"status"})")).boolean("ok");
  } catch (const std::exception& e) {
    ADD_FAILURE() << "second connection failed: " << e.what();
  }
  server.stop();
  serve_thread.join();
  EXPECT_TRUE(status_ok);
}

// A client that never sends '\n' is cut off at the request-line cap with
// the error envelope; the daemon keeps serving other connections.
TEST(Daemon, OversizeRequestLineGetsErrorEnvelope) {
  ManagerService svc;
  const std::string path = temp_socket_path("oversize");
  SocketServer server(path, svc);
  std::thread serve_thread([&server] { server.serve(); });
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  const timeval timeout{5, 0};
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                         sizeof(timeout)),
            0);
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout,
                         sizeof(timeout)),
            0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  // 2 MiB without a newline; once the daemon hangs up, send fails with
  // EPIPE (MSG_NOSIGNAL keeps that from raising SIGPIPE).
  const std::string blob(std::size_t{2} << 20, 'x');
  std::size_t off = 0;
  while (off < blob.size()) {
    const ssize_t n =
        ::send(fd, blob.data() + off, blob.size() - off, MSG_NOSIGNAL);
    if (n <= 0) break;
    off += static_cast<std::size_t>(n);
  }
  // Read until the daemon closes the connection. Closing with unread
  // input makes the first read after the reply report ECONNRESET, which
  // is a close too; a timeout (EAGAIN) is not.
  std::string reply;
  bool closed = false;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      reply.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    closed = n == 0 || errno == ECONNRESET;
    break;
  }
  ::close(fd);
  bool status_ok = false;
  try {
    Client client(path);
    status_ok = client.request(Json::parse(R"({"op":"status"})")).boolean("ok");
  } catch (const std::exception& e) {
    ADD_FAILURE() << "fresh connection failed: " << e.what();
  }
  server.stop();
  serve_thread.join();
  EXPECT_TRUE(status_ok);
  EXPECT_TRUE(closed) << "daemon kept the oversize connection open";
  ASSERT_FALSE(reply.empty());
  ASSERT_EQ(reply.back(), '\n');
  const Json env = Json::parse(reply.substr(0, reply.size() - 1));
  EXPECT_FALSE(env.boolean("ok"));
  EXPECT_EQ(env.str("op"), "");
  EXPECT_EQ(env.str("error"),
            "protocol error: request line exceeds 1048576 bytes");
}

TEST(Daemon, StormOpAndStatusCounters) {
  ManagerService svc;
  resilience::RepairPolicy pol;
  pol.engine = resilience::Engine::kNue;
  pol.vls = 2;
  pol.seed = 9;
  pol.num_threads = 1;
  pol.log_max_records = 32;
  svc.load("t", "torus:3x3:1", pol);
  const std::string path = temp_socket_path("storm");
  SocketServer server(path, svc);
  std::thread serve_thread([&server] { server.serve(); });
  {
    Client client(path);
    const Json storm = client.request(Json::parse(
        R"({"op":"storm","fabric":"t","events":20,"seed":4,"req_id":"s1"})"));
    ASSERT_TRUE(storm.boolean("ok")) << storm.str("error");
    EXPECT_EQ(storm.str("req_id"), "s1");
    EXPECT_EQ(storm.num("events"), 20.0);
    EXPECT_EQ(storm.num("transitions") + storm.num("noops"), 20.0);
    const Json status = client.request(Json::parse(R"({"op":"status"})"));
    ASSERT_TRUE(status.boolean("ok"));
    const auto& fabrics = status.find("fabrics")->items();
    ASSERT_EQ(fabrics.size(), 1u);
    EXPECT_EQ(fabrics[0].num("events"), 20.0);
    EXPECT_EQ(fabrics[0].str("engine"), "nue");
    EXPECT_GE(fabrics[0].num("epoch"), 1.0);
  }
  server.stop();
  serve_thread.join();
}

// --- hostile clients ---------------------------------------------------------

/// A raw connection to the daemon, with 5 s send/receive timeouts so a
/// test that expects a reply fails instead of hanging.
int connect_raw(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  const timeval timeout{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

bool status_ok(const std::string& path) {
  try {
    Client client(path);
    return client.request(Json::parse(R"({"op":"status"})")).boolean("ok");
  } catch (const std::exception& e) {
    ADD_FAILURE() << "status connection failed: " << e.what();
    return false;
  }
}

Json tables_request() {
  return Json::object().set("op", "tables").set("fabric", "a");
}

resilience::RepairPolicy small_policy() {
  resilience::RepairPolicy pol;
  pol.vls = 2;
  pol.num_threads = 1;
  return pol;
}

// Client hangs up with most of a large reply (~1 MB of tables, several
// socket buffers) still unwritten: the daemon drops that connection and
// keeps serving the next one.
TEST(Daemon, ClientHangingUpMidReplyLeavesOthersServed) {
  ManagerService svc;
  svc.load("a", "torus:5x5x5:1", small_policy());
  const std::string path = temp_socket_path("midreply");
  SocketServer server(path, svc);
  std::thread serve_thread([&server] { server.serve(); });
  const int fd = connect_raw(path);
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(send_all(fd, tables_request().dump() + "\n"));
  char head[16];
  const ssize_t n = ::recv(fd, head, sizeof(head), MSG_WAITALL);
  ::close(fd);
  EXPECT_EQ(n, static_cast<ssize_t>(sizeof(head)));
  EXPECT_TRUE(status_ok(path));
  server.stop();
  serve_thread.join();
}

// A client that pipelines large requests and never reads stalls only
// itself: other connections are served meanwhile, and stop() makes
// serve() return within the drain deadline (1 s) instead of waiting for
// the stalled reader. The bound asserted is 5 s, for sanitizer builds.
TEST(Daemon, StalledReaderDoesNotBlockShutdown) {
  ManagerService svc;
  svc.load("a", "torus:4x4x4:1", small_policy());
  const std::string path = temp_socket_path("stalled");
  SocketServer server(path, svc);
  std::promise<void> served;
  std::future<void> returned = served.get_future();
  std::thread serve_thread([&server, &served] {
    server.serve();
    served.set_value();
  });
  const int fd = connect_raw(path);
  ASSERT_GE(fd, 0);
  // 20 replies of ~190 kB each: far more than the socket buffers hold.
  std::string burst;
  for (int i = 0; i < 20; ++i) burst += tables_request().dump() + "\n";
  ASSERT_TRUE(send_all(fd, burst));
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_TRUE(status_ok(path));

  const auto t0 = std::chrono::steady_clock::now();
  server.stop();
  const bool in_time =
      returned.wait_for(std::chrono::seconds(5)) == std::future_status::ready;
  const double waited_s = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
  // Close the stalled connection at the latest now, so a server blocked
  // writing to it fails this test instead of hanging it.
  ::close(fd);
  serve_thread.join();
  EXPECT_TRUE(in_time) << "serve() still running " << waited_s
                       << " s after stop()";
}

// stop() while a request is on the pool: serve() waits for it and still
// delivers its reply to a client that reads, then closes.
TEST(Daemon, StopDeliversTheReplyStillOnThePool) {
  telemetry::EnabledScope on(true);  // to see the storm start
  ManagerService svc;
  svc.load("a", "torus:4x4x4:1", small_policy());
  const std::string path = temp_socket_path("drain");
  SocketServer server(path, svc);
  std::thread serve_thread([&server] { server.serve(); });
  const int fd = connect_raw(path);
  ASSERT_GE(fd, 0);
  auto& events = telemetry::counter("service.fault_events");
  const std::uint64_t before = events.value();
  ASSERT_TRUE(send_all(
      fd, R"({"op":"storm","fabric":"a","events":60,"seed":4,"req_id":7})"
          "\n"));
  while (events.value() == before) std::this_thread::yield();
  server.stop();
  serve_thread.join();  // returns once the storm's reply is written
  std::string reply;
  char chunk[4096];
  for (ssize_t n; (n = ::recv(fd, chunk, sizeof(chunk), 0)) > 0;) {
    reply.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  ASSERT_FALSE(reply.empty());
  ASSERT_EQ(reply.back(), '\n');
  const Json resp = Json::parse(reply.substr(0, reply.size() - 1));
  EXPECT_TRUE(resp.boolean("ok")) << resp.dump();
  EXPECT_EQ(resp.num("req_id"), 7.0);
  EXPECT_EQ(resp.num("events"), 60.0);
}

// 100 pipelined requests in one write — inline route queries, pool-bound
// status and event requests interleaved — come back in request order.
TEST(Daemon, PipelinedMixedBurstRepliesInRequestOrder) {
  ManagerService svc;
  svc.load("a", "torus:4x4x4:1", small_policy());
  const std::string path = temp_socket_path("burst");
  SocketServer server(path, svc);
  std::thread serve_thread([&server] { server.serve(); });
  const int fd = connect_raw(path);
  ASSERT_GE(fd, 0);
  constexpr int kRequests = 100;
  const char* const kOps[] = {"route", "status", "event"};
  std::string burst;
  for (int i = 0; i < kRequests; ++i) {
    Json req = Json::object().set("op", kOps[i % 3]).set("req_id", i);
    if (i % 3 != 1) req.set("fabric", "a");
    if (i % 3 == 0) {  // terminals are nodes 64..127
      req.set("src", 64 + i % 64).set("dst", 64 + (i * 7 + 1) % 64);
    } else if (i % 3 == 2) {
      req.set("kind", (i / 3) % 2 == 0 ? "link-down" : "link-up");
      req.set("id", (i / 6) % 32);
    }
    burst += req.dump() + "\n";
  }
  ASSERT_TRUE(send_all(fd, burst));
  std::string buffer;
  int next = 0;
  char chunk[4096];
  while (next < kRequests) {
    const std::size_t nl = buffer.find('\n');
    if (nl == std::string::npos) {
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n <= 0) break;
      buffer.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    const Json resp = Json::parse(buffer.substr(0, nl));
    buffer.erase(0, nl + 1);
    ASSERT_NE(resp.find("req_id"), nullptr) << resp.dump();
    EXPECT_EQ(resp.num("req_id"), next) << resp.dump();
    EXPECT_EQ(resp.str("op"), kOps[next % 3]) << resp.dump();
    ++next;
  }
  ::close(fd);
  server.stop();
  serve_thread.join();
  EXPECT_EQ(next, kRequests);
}

struct ProcessFootprint {
  std::size_t tasks = 0;
  std::size_t vm_kb = 0;
};

ProcessFootprint footprint() {
  ProcessFootprint f;
  for ([[maybe_unused]] const auto& e :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++f.tasks;
  }
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmSize:", 0) == 0) f.vm_kb = std::stoul(line.substr(7));
  }
  return f;
}

/// Run one task on every pool worker at once, each allocating: glibc
/// reserves a 64 MB malloc arena on a thread's first allocation, and a
/// worker's first request must not read as growth.
void allocate_on_every_pool_worker() {
  ThreadPool& pool = ThreadPool::shared();
  const auto all_running = std::make_shared<std::latch>(pool.workers());
  std::vector<std::future<void>> done;
  for (unsigned i = 0; i < pool.workers(); ++i) {
    const auto finished = std::make_shared<std::promise<void>>();
    done.push_back(finished->get_future());
    pool.submit([all_running, finished] {
      static std::atomic<char*> sink{nullptr};
      delete[] sink.exchange(new char[4096]);
      all_running->arrive_and_wait();  // so each worker runs one task
      finished->set_value();
    });
  }
  for (auto& f : done) f.wait();
}

// Connections come and go without leaving threads or thread stacks
// behind: 1,000 connect/request/close cycles keep the task count and
// the virtual size flat. (An unjoined thread per connection would keep
// an 8 MB stack mapping each, ~8 GB in all.)
TEST(Daemon, ConnectCloseCyclesKeepThreadsAndMemoryFlat) {
  ManagerService svc;
  svc.load("a", "torus:3x3:1", small_policy());
  const std::string path = temp_socket_path("cycles");
  SocketServer server(path, svc);
  std::thread serve_thread([&server] { server.serve(); });
  const auto cycle = [&path] {
    Client client(path);
    return client.request(Json::parse(R"({"op":"status"})")).boolean("ok");
  };
  for (int i = 0; i < 20; ++i) ASSERT_TRUE(cycle());  // warm the pool
  allocate_on_every_pool_worker();
  const ProcessFootprint before = footprint();
  int ok = 0;
  for (int i = 0; i < 1000; ++i) ok += cycle() ? 1 : 0;
  const ProcessFootprint after = footprint();
  server.stop();
  serve_thread.join();
  EXPECT_EQ(ok, 1000);
  EXPECT_LE(after.tasks, before.tasks + 2);
  EXPECT_LE(after.vm_kb, before.vm_kb + 64 * 1024)
      << "VmSize grew from " << before.vm_kb << " kB to " << after.vm_kb
      << " kB";
}

// A Client whose daemon has gone away throws; it must not die of
// SIGPIPE. The listener accepts and closes before the request is sent.
TEST(Daemon, ClientThrowsWhenTheDaemonHasHungUp) {
  const std::string path = temp_socket_path("hungup");
  const int lfd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(lfd, 0);
  ::unlink(path.c_str());
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  ASSERT_EQ(::bind(lfd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(lfd, 1), 0);
  std::thread acceptor([lfd] {
    const int fd = ::accept(lfd, nullptr, nullptr);
    if (fd >= 0) ::close(fd);
  });
  {
    Client client(path);
    acceptor.join();  // the peer is gone before the request is written
    EXPECT_THROW(client.request(Json::parse(R"({"op":"status"})")),
                 std::runtime_error);
  }
  ::close(lfd);
  ::unlink(path.c_str());
}

}  // namespace
}  // namespace nue
