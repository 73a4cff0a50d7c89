// Pieces every workload shares: seeded route-query pairs, repeated
// set-up, the untraced/traced phase split, route-quality measurement and
// the end-to-end metric set.
#pragma once

#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common.hpp"
#include "graph/network.hpp"
#include "routing/routing.hpp"
#include "util/rng.hpp"

namespace perfbench {

/// Seeded stream of (src, dst) route queries between distinct nodes of
/// `nodes`; the same seed always yields the same sequence.
class ProbePairs {
 public:
  ProbePairs(std::vector<nue::NodeId> nodes, std::uint64_t seed)
      : nodes_(std::move(nodes)), rng_(seed ^ 0x9E3779B97F4A7C15ULL) {
    if (nodes_.size() < 2) {
      throw std::runtime_error("route queries need at least two terminals");
    }
  }

  std::pair<nue::NodeId, nue::NodeId> next() {
    const nue::NodeId src = nodes_[rng_.next_below(nodes_.size())];
    nue::NodeId dst = src;
    while (dst == src) dst = nodes_[rng_.next_below(nodes_.size())];
    return {src, dst};
  }

  std::vector<std::pair<nue::NodeId, nue::NodeId>> next(std::size_t n) {
    std::vector<std::pair<nue::NodeId, nue::NodeId>> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) out.push_back(next());
    return out;
  }

 private:
  std::vector<nue::NodeId> nodes_;
  nue::Rng rng_;
};

/// Measurements of one timed phase of a workload.
struct Phase {
  std::uint64_t ops = 0;  // workload operations completed
  Samples op_ms;          // latency of each successful operation
  Samples probe_us;       // latency of each successful route query
  double work = 0;        // work units (see README) completed
  double busy_s = 0;      // wall time the work rate is taken over
};

/// Run `setup` at least 5 times and until a second has been spent (at most
/// 25 times), recording each duration; the last run's state is kept.
template <typename F>
void run_setup(Samples& setup_s, F&& setup) {
  double total = 0;
  for (int i = 0; i < 25 && (i < 5 || total < 1.0); ++i) {
    const double t0 = now_s();
    setup();
    const double dt = now_s() - t0;
    setup_s.add(dt);
    total += dt;
  }
}

struct PhaseSet {
  Phase timed;                   // the measured phase
  std::optional<Phase> untraced; // trace runs only: the untraced reference
  SpanLedger ledger;             // trace runs only: spans of `timed`

  double overhead_frac() const {
    if (!untraced || untraced->op_ms.median() <= 0) return 0.0;
    return timed.op_ms.median() / untraced->op_ms.median() - 1.0;
  }
};

/// Untraced runs measure one phase of args.seconds with telemetry off.
/// Traced runs measure half the time untraced, then half with telemetry
/// on (counters and histograms reset first); `loop(seconds, ledger)`
/// drains spans into `ledger` between operations when it is non-null.
template <typename Loop>
PhaseSet run_phases(const Args& args, Loop&& loop) {
  PhaseSet ps;
  if (!args.trace) {
    ps.timed = loop(args.seconds, nullptr);
    return ps;
  }
  ps.untraced = loop(args.seconds / 2, nullptr);
  nue::telemetry::reset_all();
  {
    nue::telemetry::EnabledScope on(true);
    ps.timed = loop(args.seconds / 2, &ps.ledger);
    ps.ledger.drain();
  }
  return ps;
}

/// Static route quality of a committed table (Section 5.1 of the paper):
/// edge forwarding index over alive inter-switch channels and
/// terminal-to-terminal path lengths.
struct Quality {
  double gamma_max = 0;
  double gamma_avg = 0;
  double max_hops = 0;
  double avg_hops = 0;
};

Quality measure_quality(const nue::Network& net, const nue::RoutingResult& rr);

/// Fill rep.end_to_end from the set-up samples and the measured phase.
void finish_report(Report& rep, const Samples& setup_s, double peak_rss_mb,
                   const PhaseSet& phases);

/// In-process route lookups take well under a microsecond, so they are
/// timed in batches of kProbeBatch; one probe sample is a batch's mean.
constexpr std::size_t kProbeBatch = 32;

/// Time `batches` batches of route lookups `walk(src, dst)` (which returns
/// the channel path) over pairs from `pairs`, checking that every path
/// runs from src to dst.
template <typename Walk>
void run_probes(const nue::Network& net, ProbePairs& pairs,
                std::size_t batches, Walk&& walk, Report& rep, Phase& ph) {
  for (std::size_t b = 0; b < batches; ++b) {
    const auto batch = pairs.next(kProbeBatch);
    std::size_t bad = 0;
    const double t0 = now_s();
    for (const auto& [src, dst] : batch) {
      const std::vector<nue::ChannelId> path = walk(src, dst);
      if (path.empty() || net.src(path.front()) != src ||
          net.dst(path.back()) != dst) {
        ++bad;
      }
    }
    const double dt = now_s() - t0;
    rep.attempted += batch.size();
    if (bad != 0) {
      for (std::size_t i = 0; i < bad; ++i) {
        rep.fail("route lookup returned a malformed path");
      }
      continue;
    }
    ph.probe_us.add(dt * 1e6 / static_cast<double>(batch.size()));
  }
}

}  // namespace perfbench
