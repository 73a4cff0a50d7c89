// Telemetry subsystem contracts (docs/OBSERVABILITY.md):
//   * zero effect on results — routing tables are bit-identical with
//     telemetry on or off,
//   * well-formed span nesting under parallel_for at 1/4/8 threads,
//   * ring-buffer overflow drops are counted, never silent,
//   * counters/histograms and both exporters produce what they promise.
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "../bench/bench_common.hpp"
#include "metrics/reconfig_log.hpp"
#include "nue/nue_routing.hpp"
#include "routing/dump.hpp"
#include "routing/validate.hpp"
#include "telemetry/export.hpp"
#include "telemetry/telemetry.hpp"
#include "topology/torus.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"

namespace nue {
namespace {

std::string tables_of(const Network& net, const RoutingResult& rr) {
  std::ostringstream os;
  write_forwarding_tables(os, net, rr);
  return os.str();
}

/// The written run report, parsed back.
Json run_report(const std::string& tool,
                const std::vector<std::pair<std::string, std::string>>& config,
                const std::vector<telemetry::ExtraSection>& extra = {}) {
  std::ostringstream os;
  telemetry::write_run_report(os, tool, config, extra);
  return Json::parse(os.str());
}

/// The written Chrome trace, parsed back.
Json chrome_trace(const std::string& process_name) {
  std::ostringstream os;
  telemetry::write_chrome_trace(os, process_name);
  return Json::parse(os.str());
}

Network torus_4x4x3() {
  TorusSpec spec{{4, 4, 3}, 2, 1};
  return make_torus(spec);
}

/// Every telemetry test starts from clean sinks and leaves the global
/// switch the way it found it (off, in the test binary).
class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    telemetry::reset_all();
    telemetry::Tracer::instance().set_buffer_capacity(
        telemetry::Tracer::kDefaultBufferCapacity);
    telemetry::set_enabled(false);
  }
  void TearDown() override {
    telemetry::set_enabled(false);
    telemetry::Tracer::instance().set_buffer_capacity(
        telemetry::Tracer::kDefaultBufferCapacity);
    telemetry::reset_all();
  }
};

TEST_F(TelemetryTest, CountersAreGatedOnEnabled) {
  auto& c = telemetry::counter("test.gated");
  c.add(5);
  EXPECT_EQ(c.value(), 0u) << "disabled counter must not move";
  telemetry::set_enabled(true);
  c.add(5);
  c.add();
  EXPECT_EQ(c.value(), 6u);
  telemetry::set_enabled(false);
  c.add(100);
  EXPECT_EQ(c.value(), 6u);
  c.add_always(4);  // fold path bypasses the gate by design
  EXPECT_EQ(c.value(), 10u);
}

TEST_F(TelemetryTest, HistogramBucketsByBitWidth) {
  telemetry::set_enabled(true);
  auto& h = telemetry::histogram("test.hist");
  for (std::uint64_t v : {0ull, 1ull, 2ull, 3ull, 4ull, 1000ull}) h.record(v);
  EXPECT_EQ(h.count(), 6u);
  EXPECT_EQ(h.sum(), 1010u);
  EXPECT_EQ(h.bucket(0), 1u);  // 0
  EXPECT_EQ(h.bucket(1), 1u);  // 1
  EXPECT_EQ(h.bucket(2), 2u);  // 2, 3
  EXPECT_EQ(h.bucket(3), 1u);  // 4
  EXPECT_EQ(h.bucket(10), 1u);  // 1000
}

TEST_F(TelemetryTest, SpansRecordOnlyWhenEnabled) {
  { TELEM_SPAN("test.off"); }
  EXPECT_TRUE(telemetry::Tracer::instance().snapshot().empty());
  telemetry::set_enabled(true);
  { TELEM_SPAN("test.on"); }
  const auto spans = telemetry::Tracer::instance().snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_STREQ(spans[0].name, "test.on");
  EXPECT_GE(spans[0].dur_ns, 0);
}

TEST_F(TelemetryTest, OverflowDropsAreCountedNotSilent) {
  telemetry::set_enabled(true);
  telemetry::Tracer::instance().set_buffer_capacity(8);
  for (int i = 0; i < 20; ++i) {
    TELEM_SPAN("test.overflow");
  }
  auto& tracer = telemetry::Tracer::instance();
  const std::uint64_t dropped = tracer.dropped();
  const auto spans = tracer.snapshot();
  // This thread's ring holds 8 spans; the other 12 must be accounted as
  // drops (other test threads may have contributed their own spans).
  std::size_t ours = 0;
  for (const auto& s : spans) {
    if (std::string_view(s.name) == "test.overflow") ++ours;
  }
  EXPECT_EQ(ours, 8u);
  EXPECT_EQ(dropped, 12u);
  // The run report surfaces the count.
  const Json report = run_report("test", {});
  EXPECT_EQ(report.find("spans")->num("dropped", -1), 12.0);
}

/// Reconstruct nesting per tid from (start, dur, depth): spans sorted by
/// (tid, start, -dur) must form a well-formed forest — each span lies
/// entirely within its innermost enclosing span, and its recorded depth is
/// exactly the number of enclosing spans still open.
void expect_well_formed_nesting(const std::vector<telemetry::Span>& spans) {
  std::map<std::uint32_t, std::vector<telemetry::Span>> open;  // per tid
  for (const auto& s : spans) {
    auto& stack = open[s.tid];
    while (!stack.empty() &&
           s.start_ns >= stack.back().start_ns + stack.back().dur_ns) {
      stack.pop_back();
    }
    if (!stack.empty()) {
      EXPECT_LE(s.start_ns + s.dur_ns,
                stack.back().start_ns + stack.back().dur_ns)
          << s.name << " straddles its parent " << stack.back().name;
    }
    EXPECT_EQ(s.depth, stack.size()) << s.name << " depth mismatch";
    stack.push_back(s);
  }
}

TEST_F(TelemetryTest, NestingWellFormedUnderParallelFor) {
  telemetry::set_enabled(true);
  for (std::uint32_t threads : {1u, 4u, 8u}) {
    telemetry::reset_all();
    parallel_for(threads, 64, [](std::size_t) {
      TELEM_SPAN("test.outer");
      for (int j = 0; j < 3; ++j) {
        TELEM_SPAN("test.inner");
      }
    });
    const auto spans = telemetry::Tracer::instance().snapshot();
    expect_well_formed_nesting(spans);
    std::size_t inner = 0;
    for (const auto& s : spans) {
      if (std::string_view(s.name) == "test.inner") ++inner;
    }
    EXPECT_EQ(inner, 64u * 3u) << "threads=" << threads;
  }
}

TEST_F(TelemetryTest, RoutingTablesBitIdenticalWithTelemetryOnAndOff) {
  const Network net = torus_4x4x3();
  const auto dests = net.terminals();
  NueOptions opt;
  opt.num_vls = 4;
  opt.num_threads = 4;
  const std::string off_tables = tables_of(net, route_nue(net, dests, opt));
  telemetry::set_enabled(true);
  const RoutingResult on = route_nue(net, dests, opt);
  telemetry::set_enabled(false);
  EXPECT_EQ(tables_of(net, on), off_tables);
  // The traced run left real engine spans behind.
  bool saw_engine_span = false;
  for (const auto& s : telemetry::Tracer::instance().snapshot()) {
    if (std::string_view(s.name) == "nue.layer") saw_engine_span = true;
  }
  EXPECT_TRUE(saw_engine_span);
}

TEST_F(TelemetryTest, ChromeTraceExportIsValidAndComplete) {
  telemetry::set_enabled(true);
  {
    TELEM_SPAN("test.parent");
    TELEM_SPAN("test.child");
  }
  const Json trace = chrome_trace("unit \"test\"");
  const Json* events = trace.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_FALSE(events->items().empty());
  const Json& meta = events->items().front();
  EXPECT_EQ(meta.str("ph"), "M");
  EXPECT_EQ(meta.find("args")->str("name"), "unit \"test\"")
      << "process name must round-trip through the JSON escaping";
  std::map<std::string, std::string> phase_of;
  for (const Json& e : events->items()) phase_of[e.str("name")] = e.str("ph");
  EXPECT_EQ(phase_of["test.parent"], "X");
  EXPECT_EQ(phase_of["test.child"], "X");
}

TEST_F(TelemetryTest, RunReportCarriesConfigCountersAndExtras) {
  telemetry::set_enabled(true);
  telemetry::counter("test.report_counter").add(7);
  telemetry::histogram("test.report_hist").record(5);
  const Json report = run_report("unit_test", {{"key", "value"}},
                                 {{"extra", Json::object().set("nested", true)}});
  EXPECT_EQ(report.str("tool"), "unit_test");
  EXPECT_EQ(report.find("config")->str("key"), "value");
  EXPECT_EQ(report.find("counters")->num("test.report_counter"), 7.0);
  EXPECT_TRUE(report.find("histograms")->has("test.report_hist"));
  EXPECT_TRUE(report.find("extra")->boolean("nested"));
}

// Every document the repo writes goes through the one JSON type, so a
// name carrying quotes, backslashes and control characters must come back
// from each of them unchanged.
TEST_F(TelemetryTest, EscapingRoundTripsThroughEveryDocument) {
  static constexpr char kNasty[] = "q\"b\\s\nn\tt\x01" "c";
  const std::string nasty = kNasty;
  telemetry::set_enabled(true);
  telemetry::counter(nasty).add(3);
  { TELEM_SPAN(kNasty); }

  TransitionRecord rec;
  rec.epoch = 2;
  rec.event = nasty;
  rec.committed_step = "incremental";
  rec.verdicts = {nasty};
  ReconfigLog log;
  log.add(rec);
  const Json log_json = Json::parse(log.to_json().dump());
  const Json& record = log_json.find("records")->items().at(0);
  EXPECT_EQ(record.str("event"), nasty);
  EXPECT_EQ(record.find("verdicts")->items().at(0).as_string(), nasty);

  const Json report =
      run_report(nasty, {{"mode", nasty}}, {{"reconfig", log.to_json()}});
  EXPECT_EQ(report.str("tool"), nasty);
  EXPECT_EQ(report.find("config")->str("mode"), nasty);
  EXPECT_EQ(report.find("counters")->num(nasty), 3.0);
  EXPECT_TRUE(report.find("spans")->find("by_name")->has(nasty));
  EXPECT_EQ(report.find("reconfig")->find("records")->items().at(0).str("event"),
            nasty);

  const Json trace = chrome_trace(nasty);
  EXPECT_EQ(trace.find("traceEvents")->items().at(0).find("args")->str("name"),
            nasty);
  bool traced = false;
  for (const Json& e : trace.find("traceEvents")->items()) {
    traced = traced || (e.str("ph") == "X" && e.str("name") == nasty);
  }
  EXPECT_TRUE(traced);

  const Json phases =
      Json::parse(bench::phases_json({{nasty, 1, 0.5}}).dump());
  EXPECT_EQ(phases.items().at(0).str("name"), nasty);
}

TEST_F(TelemetryTest, AggregateSinceIsolatesDeltas) {
  telemetry::set_enabled(true);
  { TELEM_SPAN("test.before"); }
  const std::size_t mark = telemetry::Tracer::instance().collect();
  { TELEM_SPAN("test.after"); }
  { TELEM_SPAN("test.after"); }
  const auto agg = telemetry::Tracer::instance().aggregate_since(mark);
  EXPECT_EQ(agg.count("test.before"), 0u);
  ASSERT_EQ(agg.count("test.after"), 1u);
  EXPECT_EQ(agg.at("test.after").count, 2u);
}

}  // namespace
}  // namespace nue
