#include "workload.hpp"

#include "metrics/metrics.hpp"

namespace perfbench {

Quality measure_quality(const nue::Network& net,
                        const nue::RoutingResult& rr) {
  Quality q;
  const auto gamma = nue::summarize_forwarding_index(
      net, nue::edge_forwarding_index(net, rr));
  q.gamma_max = gamma.max;
  q.gamma_avg = gamma.avg;
  const auto paths = nue::path_length_stats(net, rr);
  q.max_hops = static_cast<double>(paths.max);
  q.avg_hops = paths.avg;
  return q;
}

void finish_report(Report& rep, const Samples& setup_s, double peak_rss_mb,
                   const PhaseSet& phases) {
  const Phase& ph = phases.timed;
  const double attempted = static_cast<double>(rep.attempted);
  rep.end_to_end = {
      {"setup_s", setup_s.median(), "s"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
      {"ok_frac",
       attempted > 0 ? (attempted - static_cast<double>(rep.failed)) / attempted
                     : 0.0,
       "ratio"},
      {"op_p50_ms", ph.op_ms.median(), "ms"},
      {"op_p90_ms", ph.op_ms.quantile(0.9), "ms"},
      {"work_per_s", ph.busy_s > 0 ? ph.work / ph.busy_s : 0.0, "1/s"},
      {"probe_p50_us", ph.probe_us.median(), "us"},
      {"probe_p90_us", ph.probe_us.quantile(0.9), "us"},
  };
}

}  // namespace perfbench
