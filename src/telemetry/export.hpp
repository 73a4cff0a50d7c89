// Telemetry exporters (docs/OBSERVABILITY.md):
//
//   * metrics_report — the one builder of the counters / histograms /
//     spans-by-name report (plus peak RSS), as a Json. The daemon's live
//     `metrics` op serves it unchanged; write_run_report is the same value
//     with the file-only members added.
//   * write_run_report — the --metrics-out document: metrics_report() plus
//     `tool`, the caller's `config` and any extra sections (e.g. the
//     ReconfigLog as `reconfig`).
//   * write_chrome_trace — Chrome trace-event JSON ("X" complete events),
//     loadable in Perfetto (ui.perfetto.dev) or chrome://tracing. One
//     track per telemetry thread id; timestamps in microseconds relative
//     to the first telemetry event of the process.
//
// Both file formats are validated against bundled JSON schemas
// (scripts/schemas/*.schema.json) by the tier-1 telemetry stage; bump
// kRunReportSchemaVersion when changing the report shape.
#pragma once

#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/telemetry.hpp"
#include "util/json.hpp"
#include "util/rss.hpp"

namespace nue::telemetry {

inline constexpr int kRunReportSchemaVersion = 1;

/// Chrome trace-event JSON of every span collected so far. `process_name`
/// labels the (single) pid track. Streamed one event object at a time, so
/// a long trace never exists as one in-memory tree.
inline void write_chrome_trace(std::ostream& os,
                               const std::string& process_name) {
  const auto spans = Tracer::instance().snapshot();
  Json meta = Json::object();
  meta.set("name", "process_name");
  meta.set("ph", "M");
  meta.set("pid", 1);
  meta.set("tid", 0);
  meta.set("args", Json::object().set("name", process_name));
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  meta.write(os);
  for (const Span& s : spans) {
    Json ev = Json::object();
    ev.set("name", s.name);
    ev.set("cat", "nue");
    ev.set("ph", "X");
    // Microsecond timestamps with sub-us fraction preserved; Perfetto
    // accepts fractional ts/dur.
    ev.set("ts", static_cast<double>(s.start_ns) / 1e3);
    ev.set("dur", static_cast<double>(s.dur_ns) / 1e3);
    ev.set("pid", 1);
    ev.set("tid", s.tid);
    ev.set("args", Json::object().set("depth", s.depth));
    os << ",\n";
    ev.write(os);
  }
  os << "\n]}\n";
}

/// One named top-level section added to the run report.
using ExtraSection = std::pair<std::string, Json>;

namespace detail {

/// Prometheus metric names are [a-zA-Z_:][a-zA-Z0-9_:]*; our dotted
/// registry names map dot (and any other separator) to '_', e.g.
/// `service.request_us` -> `service_request_us`.
inline std::string prom_name(std::string_view name) {
  std::string out;
  out.reserve(name.size() + 1);
  if (name.empty() || (name.front() >= '0' && name.front() <= '9')) {
    out += '_';
  }
  for (char ch : name) {
    const bool ok = (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') ||
                    (ch >= '0' && ch <= '9') || ch == '_';
    out += ok ? ch : '_';
  }
  return out;
}

}  // namespace detail

/// Prometheus text exposition (version 0.0.4) of the registry: counters
/// as `counter`, histograms in the standard cumulative form
/// (`_bucket{le="..."}` over the non-empty bit-width buckets plus
/// `+Inf`, `_sum`, `_count`). Served live by the daemon's
/// `metrics?format=prom` op and written at shutdown via `--prom-out`.
inline void write_prometheus_text(std::ostream& os) {
  for (const auto& [name, value] : Registry::instance().counter_snapshot()) {
    const std::string p = detail::prom_name(name);
    os << "# TYPE " << p << " counter\n" << p << " " << value << "\n";
  }
  for (const auto& h : Registry::instance().histogram_snapshot()) {
    const std::string p = detail::prom_name(h.name);
    os << "# TYPE " << p << " histogram\n";
    std::uint64_t cumulative = 0;
    for (const auto& [le, n] : h.buckets) {
      cumulative += n;
      os << p << "_bucket{le=\"" << le << "\"} " << cumulative << "\n";
    }
    os << p << "_bucket{le=\"+Inf\"} " << h.count << "\n";
    os << p << "_sum " << h.sum << "\n";
    os << p << "_count " << h.count << "\n";
  }
}

/// The counters / histograms / spans report, sampled live without
/// flushing or quiescing anything: counters and histograms are whatever
/// the registry holds now, spans summarize everything collected so far.
inline Json metrics_report() {
  Json report = Json::object();
  report.set("schema_version", kRunReportSchemaVersion);
  Json counters = Json::object();
  for (const auto& [name, value] : Registry::instance().counter_snapshot()) {
    counters.set(name, value);
  }
  report.set("counters", std::move(counters));
  Json histograms = Json::object();
  for (const auto& h : Registry::instance().histogram_snapshot()) {
    Json buckets = Json::array();
    for (const auto& [le, n] : h.buckets) {
      buckets.push_back(Json::object().set("le", le).set("count", n));
    }
    Json hj = Json::object();
    hj.set("count", h.count);
    hj.set("sum", h.sum);
    hj.set("buckets", std::move(buckets));
    histograms.set(h.name, std::move(hj));
  }
  report.set("histograms", std::move(histograms));
  auto& tracer = Tracer::instance();
  // Lifetime aggregate, not aggregate_since(0): in a resident daemon the
  // bounded central log evicts old spans, and the report must still show
  // process totals. aggregate_all before dropped: both drain internally,
  // and this order keeps the drop count at least as fresh as the
  // aggregates.
  Json by_name = Json::object();
  for (const auto& [name, agg] : tracer.aggregate_all()) {
    by_name.set(name, Json::object()
                          .set("count", agg.count)
                          .set("total_ms",
                               static_cast<double>(agg.total_ns) / 1e6));
  }
  Json spans = Json::object();
  spans.set("dropped", tracer.dropped());
  spans.set("by_name", std::move(by_name));
  report.set("spans", std::move(spans));
  // Omitted (not 0) when the kernel does not expose VmHWM — the schema
  // keeps the field optional so consumers read absence as "unavailable".
  if (const auto rss = peak_rss_mb()) report.set("peak_rss_mb", *rss);
  return report;
}

/// The machine-readable run report: metrics_report() plus the tool name,
/// the caller's run configuration and any extra sections.
inline void write_run_report(
    std::ostream& os, const std::string& tool,
    const std::vector<std::pair<std::string, std::string>>& config,
    const std::vector<ExtraSection>& extra = {}) {
  Json report = metrics_report();
  report.set("tool", tool);
  Json cfg = Json::object();
  for (const auto& [key, value] : config) cfg.set(key, value);
  report.set("config", std::move(cfg));
  for (const auto& [key, section] : extra) report.set(key, section);
  os << report.dump() << "\n";
}

}  // namespace nue::telemetry
