// Live observability plane contracts (docs/OBSERVABILITY.md "live
// plane"): the bounded event journal and its JSONL mirror, the flight
// recorder, Prometheus exposition, snapshot-consistent histogram reads,
// and — under TSan — client threads hammering `metrics`/`journal`
// against an in-flight fault storm without ever observing a counter
// move backwards or a torn histogram. Plus the acceptance gate that the
// live plane never perturbs results: routing tables are bit-identical
// with it enabled or disabled.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "resilience/resilience.hpp"
#include "routing/dump.hpp"
#include "service/observability.hpp"
#include "service/service.hpp"
#include "telemetry/export.hpp"
#include "telemetry/telemetry.hpp"
#include "topology/faults.hpp"
#include "topology/generate.hpp"
#include "util/json.hpp"

namespace nue {
namespace {

using service::EventJournal;
using service::FlightRecorder;
using service::JournalEntry;
using service::ManagerService;
using service::ObservabilityOptions;

JournalEntry entry(const std::string& fabric, const std::string& kind,
                   std::uint64_t epoch) {
  JournalEntry e;
  e.fabric = fabric;
  e.kind = kind;
  e.rec.epoch = epoch;
  return e;
}

resilience::RepairPolicy union_gate_policy(std::uint64_t seed) {
  resilience::RepairPolicy pol;
  pol.engine = resilience::Engine::kNue;
  pol.vls = 2;
  pol.max_vls = 4;
  pol.seed = seed;
  pol.num_threads = 1;
  return pol;
}

std::filesystem::path corpus(const std::string& name) {
  return std::filesystem::path(NUE_TEST_CORPUS_DIR) / name;
}

std::string read_file(const std::string& path) {
  std::ifstream is(path);
  std::stringstream buf;
  buf << is.rdbuf();
  return buf.str();
}

/// Apply every event of `trace` to shard `fabric` over the protocol.
void replay_events(ManagerService& svc, const std::string& fabric,
                   const FaultTrace& trace) {
  for (const FaultEvent& e : trace.events) {
    Json req = Json::object();
    req.set("op", "event");
    req.set("fabric", fabric);
    req.set("kind", fault_event_name(e.kind));
    req.set("id", e.id);
    const Json resp = svc.handle(req);
    ASSERT_TRUE(resp.boolean("ok")) << resp.dump();
  }
}

/// Blank the wall-clock parts of a journal/reconfig document: `t_ms`,
/// every `*repair_ms` member and the bracketed `[...ms]` timings inside
/// verdict lines. What is left (seq, kinds, order, epochs, verdicts) is
/// a pure function of the trace and the policy.
std::string mask_timings(const std::string& doc) {
  static const std::regex member(
      R"re("(t_ms|\w*repair_ms)":-?[0-9][-+.eE0-9]*)re");
  static const std::regex bracket(
      R"(\[[-+.e0-9]+ms( \+ validate [-+.e0-9]+ms)?\])");
  return std::regex_replace(std::regex_replace(doc, member, "\"$1\":0"),
                            bracket, "[ms]");
}

/// Byte-compare `actual` with the committed corpus file `name`. On a
/// mismatch the actual document is written to the test's temp dir and
/// the neighbourhood of the first differing byte is reported.
void expect_golden(const std::string& name, const std::string& actual) {
  const std::string expected = read_file(corpus(name).string());
  if (expected == actual) return;
  const std::string out = ::testing::TempDir() + name;
  std::ofstream(out) << actual;
  std::size_t at = 0;
  while (at < expected.size() && at < actual.size() &&
         expected[at] == actual[at]) {
    ++at;
  }
  const std::size_t from = at < 80 ? 0 : at - 80;
  ADD_FAILURE() << name << " differs at byte " << at << "\n  expected: ..."
                << expected.substr(from, 160) << "\n  actual:   ..."
                << actual.substr(from, 160) << "\n(actual written to " << out
                << ")";
}

/// Clean global telemetry sinks on both sides of every test: the live
/// plane reads the process-wide registry/tracer, and this binary runs
/// many suites against them.
class LivePlane : public ::testing::Test {
 protected:
  void SetUp() override { reset(); }
  void TearDown() override { reset(); }

 private:
  static void reset() {
    telemetry::set_enabled(false);
    telemetry::Tracer::instance().set_buffer_capacity(
        telemetry::Tracer::kDefaultBufferCapacity);
    telemetry::Tracer::instance().set_collected_capacity(0);
    telemetry::reset_all();
  }
};

TEST_F(LivePlane, JournalRingBoundsSeqAndFabricFilter) {
  EventJournal j(4);
  for (int i = 0; i < 10; ++i) {
    j.append(entry(i % 2 == 0 ? "a" : "b", "transition",
                   static_cast<std::uint64_t>(i + 1)));
  }
  EXPECT_EQ(j.total(), 10u);
  EXPECT_EQ(j.evicted(), 6u);

  const auto all = j.tail(100);
  ASSERT_EQ(all.size(), 4u);
  for (std::size_t i = 1; i < all.size(); ++i) {
    EXPECT_EQ(all[i].seq, all[i - 1].seq + 1) << "seq must be gap-free";
  }
  EXPECT_EQ(all.back().seq, 10u) << "seq is 1-based and counts appends";

  const auto only_a = j.tail(100, "a");
  ASSERT_EQ(only_a.size(), 2u);
  for (const auto& e : only_a) EXPECT_EQ(e.fabric, "a");

  const auto newest = j.tail(1);
  ASSERT_EQ(newest.size(), 1u);
  EXPECT_EQ(newest[0].rec.epoch, 10u);
}

TEST_F(LivePlane, JournalFileMirrorsEveryAppendAndRotates) {
  const std::string path =
      ::testing::TempDir() + "nue_liveplane_journal.jsonl";
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".1");

  EventJournal j(64);
  j.open_file(path, 512);  // tiny budget: force rotation quickly
  for (int i = 0; i < 24; ++i) {
    auto e = entry("a", "transition", static_cast<std::uint64_t>(i + 1));
    e.verdict = "union-gate: acyclic, hitless swap";
    j.append(e);
  }
  EXPECT_GT(j.rotations(), 0u);
  ASSERT_TRUE(std::filesystem::is_regular_file(path));
  ASSERT_TRUE(std::filesystem::is_regular_file(path + ".1"));

  // The mirror keeps one previous generation (FILE.1) plus the current
  // file; every surviving line is a complete JSON journal entry and the
  // retained window is gap-free up to the newest append.
  std::size_t lines = 0;
  std::uint64_t last_seq = 0;
  for (const auto& p : {path + ".1", path}) {
    std::ifstream is(p);
    std::string line;
    while (std::getline(is, line)) {
      const Json e = Json::parse(line);
      EXPECT_EQ(e.str("fabric"), "a");
      if (last_seq != 0) {
        EXPECT_EQ(e.num("seq"), static_cast<double>(last_seq + 1))
            << "retained mirror window must be gap-free";
      }
      last_seq = static_cast<std::uint64_t>(e.num("seq"));
      ++lines;
    }
  }
  EXPECT_GE(lines, 2u);
  EXPECT_EQ(last_seq, 24u) << "the newest append is always in the mirror";
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".1");
}

TEST_F(LivePlane, HistogramSnapshotHasInclusiveEdgesAndDerivedCount) {
  telemetry::EnabledScope on(true);
  auto& h = telemetry::histogram("liveplane.h");
  for (std::uint64_t v : {0ull, 1ull, 1ull, 2ull, 3ull, 1000ull}) h.record(v);

  for (const auto& snap : telemetry::Registry::instance().histogram_snapshot()) {
    if (snap.name != "liveplane.h") continue;
    std::uint64_t from_buckets = 0;
    for (const auto& [le, n] : snap.buckets) {
      from_buckets += n;
      if (le == 0) {
        EXPECT_EQ(n, 1u) << "value 0 lands in the le=0 bucket";
      } else if (le == 1) {
        EXPECT_EQ(n, 2u) << "bucket edges are inclusive";
      } else if (le == 3) {
        EXPECT_EQ(n, 2u) << "[2,3] is one power-of-2 bucket";
      }
    }
    EXPECT_EQ(snap.count, from_buckets)
        << "count must be derived from the same bucket loads";
    EXPECT_EQ(snap.count, 6u);
    EXPECT_EQ(snap.sum, 1007u);
    return;
  }
  FAIL() << "liveplane.h not in the registry snapshot";
}

TEST_F(LivePlane, QuantileFromBucketsInterpolatesWithinEdges) {
  EXPECT_EQ(telemetry::quantile_from_buckets({}, 0.5), 0.0);
  // 4 zeros, 4 values in [2,3]: the median straddles nothing — p0 and
  // p25 are in the zero bucket, p75+ inside [2,3].
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> buckets = {
      {0, 4}, {1, 0}, {3, 4}};
  EXPECT_EQ(telemetry::quantile_from_buckets(buckets, 0.0), 0.0);
  EXPECT_EQ(telemetry::quantile_from_buckets(buckets, 0.25), 0.0);
  const double p75 = telemetry::quantile_from_buckets(buckets, 0.75);
  EXPECT_GE(p75, 2.0);
  EXPECT_LE(p75, 3.0);
  EXPECT_EQ(telemetry::quantile_from_buckets(buckets, 1.0), 3.0);
}

TEST_F(LivePlane, PrometheusExpositionIsCumulativeAndSanitized) {
  telemetry::EnabledScope on(true);
  telemetry::counter("liveplane.prom.count").add(7);
  auto& h = telemetry::histogram("liveplane.prom.us");
  for (std::uint64_t v : {0ull, 1ull, 5ull, 5ull}) h.record(v);

  std::ostringstream os;
  telemetry::write_prometheus_text(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("# TYPE liveplane_prom_count counter\n"
                      "liveplane_prom_count 7\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE liveplane_prom_us histogram"),
            std::string::npos);
  EXPECT_NE(text.find("liveplane_prom_us_bucket{le=\"0\"} 1"),
            std::string::npos);
  // Cumulative: the [4,7] bucket line counts everything at or below it.
  EXPECT_NE(text.find("liveplane_prom_us_bucket{le=\"7\"} 4"),
            std::string::npos);
  EXPECT_NE(text.find("liveplane_prom_us_bucket{le=\"+Inf\"} 4"),
            std::string::npos);
  EXPECT_NE(text.find("liveplane_prom_us_sum 11"), std::string::npos);
  EXPECT_NE(text.find("liveplane_prom_us_count 4"), std::string::npos);
}

TEST_F(LivePlane, TracerBoundedLogKeepsLifetimeAggregates) {
  telemetry::EnabledScope on(true);
  auto& tracer = telemetry::Tracer::instance();
  tracer.set_collected_capacity(8);
  for (int i = 0; i < 50; ++i) {
    TELEM_SPAN("liveplane.span");
  }
  const auto agg = tracer.aggregate_all();
  const auto it = agg.find("liveplane.span");
  ASSERT_NE(it, agg.end());
  EXPECT_EQ(it->second.count, 50u)
      << "eviction from the bounded central log must not lose totals";
  EXPECT_LE(tracer.snapshot().size(), 8u);
  EXPECT_EQ(tracer.recent_spans(4).size(), 4u);
  EXPECT_EQ(tracer.recent_spans(1000).size(), 8u);

  // Several collect rounds, each evicting part of the previous one: the
  // lifetime totals count every span once, and a delta from a mark sees
  // exactly the spans collected since, while they are still retained.
  std::size_t a_total = 0, b_total = 50;
  for (int round = 1; round <= 4; ++round) {
    const std::size_t mark = tracer.collect();
    for (int i = 0; i < round; ++i) {
      TELEM_SPAN("liveplane.a");
    }
    for (int i = 0; i < 3; ++i) {
      TELEM_SPAN("liveplane.span");
    }
    a_total += static_cast<std::size_t>(round);
    b_total += 3;
    const auto since = tracer.aggregate_since(mark);
    EXPECT_EQ(since.at("liveplane.a").count,
              static_cast<std::uint64_t>(round));
    EXPECT_EQ(since.at("liveplane.span").count, 3u);
    const auto all = tracer.aggregate_all();
    EXPECT_EQ(all.at("liveplane.a").count, a_total) << "round " << round;
    EXPECT_EQ(all.at("liveplane.span").count, b_total) << "round " << round;
    EXPECT_EQ(tracer.collect(), 50 + a_total + 3 * round);
    EXPECT_EQ(tracer.snapshot().size(), 8u);
  }
  // A mark older than the retained window counts only what is retained.
  std::uint64_t retained = 0;
  for (const auto& [name, a] : tracer.aggregate_since(0)) retained += a.count;
  EXPECT_EQ(retained, 8u);
}

// The tentpole concurrency contract, meaningful under TSan (tier-1 runs
// it there): scraper threads reading `metrics` and `journal` race a
// fault storm on the same service. Counters must be monotone from any
// single reader's point of view, histograms must never be torn (count
// != sum of buckets), and journal seq/total must be monotone.
TEST_F(LivePlane, ConcurrentScrapesAreMonotoneAndUntorn) {
  telemetry::EnabledScope on(true);
  ManagerService svc;
  svc.load("a", "torus:3x3:1", union_gate_policy(21));

  std::atomic<bool> storm_done{false};
  std::thread storm([&] {
    const Json resp = svc.handle(Json::parse(
        R"({"op":"storm","fabric":"a","events":60,"seed":7})"));
    EXPECT_TRUE(resp.boolean("ok")) << resp.dump();
    storm_done.store(true, std::memory_order_release);
  });

  const int kScrapers = 3;
  std::vector<std::thread> scrapers;
  for (int t = 0; t < kScrapers; ++t) {
    scrapers.emplace_back([&svc, &storm_done] {
      std::map<std::string, double> prev_counters;
      double prev_total = 0;
      int spins = 0;
      while (!storm_done.load(std::memory_order_acquire) || spins < 3) {
        ++spins;
        const Json m = svc.handle(Json::parse(R"({"op":"metrics"})"));
        ASSERT_TRUE(m.boolean("ok")) << m.dump();
        const Json* report = m.find("report");
        ASSERT_NE(report, nullptr);
        const Json* counters = report->find("counters");
        ASSERT_NE(counters, nullptr);
        for (const auto& [name, value] : counters->members()) {
          const auto it = prev_counters.find(name);
          if (it != prev_counters.end()) {
            EXPECT_GE(value.as_number(), it->second)
                << "counter " << name << " went backwards mid-storm";
          }
          prev_counters[name] = value.as_number();
        }
        const Json* hists = report->find("histograms");
        ASSERT_NE(hists, nullptr);
        for (const auto& [name, h] : hists->members()) {
          double from_buckets = 0;
          for (const Json& b : h.find("buckets")->items()) {
            from_buckets += b.num("count");
          }
          EXPECT_EQ(h.num("count"), from_buckets)
              << "torn histogram scrape for " << name;
        }

        const Json j = svc.handle(Json::parse(R"({"op":"journal","n":32})"));
        ASSERT_TRUE(j.boolean("ok")) << j.dump();
        EXPECT_GE(j.num("total"), prev_total);
        prev_total = j.num("total");
        double prev_seq = 0;
        for (const Json& e : j.find("entries")->items()) {
          EXPECT_GT(e.num("seq"), prev_seq);
          prev_seq = e.num("seq");
        }
      }
    });
  }
  storm.join();
  for (auto& t : scrapers) t.join();

  // Quiescent now: the live scrape and the registry must agree exactly
  // (this is the "live counters match shutdown flush totals" gate).
  const Json final_scrape = svc.handle(Json::parse(R"({"op":"metrics"})"));
  const Json* counters = final_scrape.find("report")->find("counters");
  for (const auto& [name, value] :
       telemetry::Registry::instance().counter_snapshot()) {
    EXPECT_EQ(counters->num(name), static_cast<double>(value)) << name;
  }
}

TEST_F(LivePlane, FlightRecorderBundlesTheShippedGateFailure) {
  telemetry::EnabledScope on(true);
  const std::string dir = ::testing::TempDir() + "nue_liveplane_flightrec";
  std::filesystem::remove_all(dir);

  const auto trace =
      load_fault_trace_file(corpus("torus-3x3-union-gate.trace").string());
  ASSERT_EQ(trace.generate, "torus:3x3:1");

  ObservabilityOptions obs;
  obs.flightrec_dir = dir;
  ManagerService svc(obs);
  svc.load("t", trace.generate, union_gate_policy(trace.seed));
  replay_events(svc, "t", trace);

  // The trace's last event forces the union gate to fail (see
  // test_fuzz_repro.cpp) — the recorder must have written a bundle.
  ASSERT_GE(svc.flight_recorder().bundles(), 1u);
  std::vector<std::string> bundles;
  for (const auto& p : std::filesystem::directory_iterator(dir)) {
    bundles.push_back(p.path().string());
    EXPECT_NE(p.path().filename().string().find("flightrec-t-"),
              std::string::npos);
  }
  ASSERT_FALSE(bundles.empty());

  std::ifstream is(bundles.front());
  std::stringstream buf;
  buf << is.rdbuf();
  const Json bundle = Json::parse(buf.str());
  EXPECT_EQ(bundle.str("reason"), "gate-failure");
  EXPECT_EQ(bundle.str("fabric"), "t");
  bool saw_gate_failure = false;
  for (const Json& e : bundle.find("journal")->items()) {
    if (e.str("kind") == "gate-failure") saw_gate_failure = true;
  }
  EXPECT_TRUE(saw_gate_failure)
      << "bundle journal tail must include the triggering entry";
  EXPECT_FALSE(bundle.find("spans")->items().empty())
      << "bundle must carry the surrounding spans";
  EXPECT_TRUE(bundle.find("counters")->has("service.requests"));

  // The journal itself recorded the failure too.
  bool journaled = false;
  for (const auto& e : svc.journal().tail(1000)) {
    if (e.kind == "gate-failure") journaled = true;
  }
  EXPECT_TRUE(journaled);
  std::filesystem::remove_all(dir);
}

TEST_F(LivePlane, TablesAreBitIdenticalWithLivePlaneOnAndOff) {
  const auto trace =
      load_fault_trace_file(corpus("torus-3x3-union-gate.trace").string());

  // Off: plain offline replay, telemetry disabled, no journal.
  resilience::ResilienceManager offline(generate_topology(trace.generate).net,
                                        union_gate_policy(trace.seed));
  offline.replay(trace);
  std::ostringstream off;
  write_forwarding_tables(off, offline.net(), *offline.table());

  // On: the full live plane — telemetry, journal, flight recorder,
  // scrapes interleaved with the events.
  telemetry::EnabledScope on(true);
  ObservabilityOptions obs;
  obs.flightrec_dir = ::testing::TempDir() + "nue_liveplane_identical";
  std::filesystem::remove_all(obs.flightrec_dir);
  ManagerService svc(obs);
  svc.load("t", trace.generate, union_gate_policy(trace.seed));
  for (const FaultEvent& e : trace.events) {
    Json req = Json::object();
    req.set("op", "event");
    req.set("fabric", "t");
    req.set("kind", fault_event_name(e.kind));
    req.set("id", e.id);
    ASSERT_TRUE(svc.handle(req).boolean("ok"));
    ASSERT_TRUE(svc.handle(Json::parse(R"({"op":"metrics"})")).boolean("ok"));
  }
  const Json tables =
      svc.handle(Json::parse(R"({"op":"tables","fabric":"t"})"));
  ASSERT_TRUE(tables.boolean("ok"));
  EXPECT_EQ(tables.str("dump"), off.str())
      << "the live plane must never perturb routing";
  std::filesystem::remove_all(obs.flightrec_dir);
}

TEST_F(LivePlane, StatusCarriesLatencySlosAndRequestHistograms) {
  telemetry::EnabledScope on(true);
  ManagerService svc;
  svc.load("a", "torus:3x3:1", union_gate_policy(3));
  ASSERT_TRUE(svc.handle(Json::parse(
                  R"({"op":"event","fabric":"a","kind":"link-down","id":0})"))
                  .boolean("ok"));

  const Json status = svc.handle(Json::parse(R"({"op":"status"})"));
  ASSERT_TRUE(status.boolean("ok"));
  const auto& fabrics = status.find("fabrics")->items();
  ASSERT_EQ(fabrics.size(), 1u);
  const Json& f = fabrics[0];
  EXPECT_TRUE(f.has("p50_repair_ms"));
  EXPECT_TRUE(f.has("p99_repair_ms"));
  EXPECT_TRUE(f.has("max_repair_ms"));
  EXPECT_GE(f.num("p99_repair_ms"), f.num("p50_repair_ms"));
  EXPECT_GE(f.num("max_repair_ms"), f.num("p99_repair_ms"));
  EXPECT_GE(f.num("epoch_age_ms"), 0.0);

  // Both the per-op and the global request-latency SLO histograms move.
  bool saw_global = false;
  bool saw_event_op = false;
  for (const auto& h : telemetry::Registry::instance().histogram_snapshot()) {
    if (h.name == "service.request_us" && h.count >= 2) saw_global = true;
    if (h.name == "service.request_us.event" && h.count >= 1) {
      saw_event_op = true;
    }
  }
  EXPECT_TRUE(saw_global);
  EXPECT_TRUE(saw_event_op);
}

// The journal JSONL mirror and the `reconfig-log` document of the
// shipped union-gate trace are pinned byte for byte (timings masked):
// sequence numbers, entry kinds, their order, epochs, steps, wave
// linkage and verdict lines must not move.
class JournalGolden : public LivePlane {};

TEST_F(JournalGolden, UnionGateTraceMatchesCorpus) {
  const auto trace =
      load_fault_trace_file(corpus("torus-3x3-union-gate.trace").string());
  ObservabilityOptions obs;
  obs.journal_file = ::testing::TempDir() + "nue_journal_golden.jsonl";
  std::filesystem::remove(obs.journal_file);
  std::string log;
  {
    ManagerService svc(obs);
    svc.load("t", trace.generate, union_gate_policy(trace.seed));
    replay_events(svc, "t", trace);
    const Json resp = svc.handle(
        Json::parse(R"({"op":"reconfig-log","fabric":"t"})"));
    ASSERT_TRUE(resp.boolean("ok")) << resp.dump();
    log = resp.str("log");
  }
  expect_golden("torus-3x3-union-gate.journal.jsonl",
                mask_timings(read_file(obs.journal_file)));
  expect_golden("torus-3x3-union-gate.reconfig.json",
                mask_timings(log) + "\n");
  std::filesystem::remove(obs.journal_file);
}

// The `resilience.*` counters are a view of the reconfiguration log:
// after a replay they agree with the log's own totals, noops and wave
// intermediates included.
class CounterParity : public LivePlane {};

TEST_F(CounterParity, ResilienceCountersMatchTheLog) {
  telemetry::EnabledScope on(true);
  const auto trace =
      load_fault_trace_file(corpus("torus-3x3-union-gate.trace").string());
  resilience::ResilienceManager mgr(generate_topology(trace.generate).net,
                                    union_gate_policy(trace.seed));
  mgr.replay(trace);

  std::map<std::string, std::uint64_t> counters;
  for (const auto& [name, value] :
       telemetry::Registry::instance().counter_snapshot()) {
    counters[name] = value;
  }
  const auto s = mgr.log().summarize();
  ASSERT_GT(s.waved, 0u) << "trace no longer exercises a wave chain";
  ASSERT_GT(s.noops, 0u) << "trace no longer exercises a noop";
  EXPECT_EQ(counters["resilience.transitions"], mgr.log().total_records());
  EXPECT_EQ(counters["resilience.hitless"], s.hitless);
  EXPECT_EQ(counters["resilience.drains"], s.drained);
  EXPECT_EQ(counters["resilience.waves"], s.wave_commits);
  EXPECT_EQ(counters["resilience.zero_drain_saves"], s.waved);

  std::uint64_t repair_samples = 0;
  for (const auto& h : telemetry::Registry::instance().histogram_snapshot()) {
    if (h.name == "resilience.repair_us") repair_samples = h.count;
  }
  EXPECT_EQ(repair_samples, mgr.log().total_records());
}

}  // namespace
}  // namespace nue
