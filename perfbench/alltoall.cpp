// Workload `alltoall`: the event simulator on the paper's Fig. 10 torus
// (torus:6x5x5:4, 600 terminals). Set-up generates the fabric and routes
// Nue k = 8 tables; one operation is one `simulate` run of the all-to-all
// shift exchange (2 KiB messages, a fixed count of shift phases). Between
// runs the benchmark answers seeded route lookups against the tables
// (RoutingResult::trace, the walk the daemon's `route` op performs).
#include <optional>
#include <string>

#include "common.hpp"
#include "nue/nue_routing.hpp"
#include "routing/validate.hpp"
#include "sim/flit_sim.hpp"
#include "topology/generate.hpp"
#include "util/rss.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

constexpr const char* kSpec = "torus:6x5x5:4";
constexpr std::uint32_t kVls = 8;
constexpr std::uint32_t kThreads = 4;
constexpr std::uint32_t kMessageBytes = 2048;
constexpr std::uint32_t kShiftPhases = 8;
constexpr std::size_t kProbeBatchesPerRun = 16;

struct Routed {
  nue::Network net;
  std::optional<nue::RoutingResult> rr;
  double generate_s = 0;
};

Routed build_and_route(std::uint64_t seed) {
  Routed r;
  const double t0 = now_s();
  r.net = nue::generate_topology(kSpec).net;
  r.generate_s = now_s() - t0;
  nue::NueOptions opt;
  opt.num_vls = kVls;
  opt.num_threads = kThreads;
  opt.seed = seed;
  r.rr = nue::route_nue(r.net, r.net.terminals(), opt);
  return r;
}

}  // namespace

Report run_alltoall(const Args& args) {
  Report rep;
  Samples setup_s, generate_s;
  Routed routed;
  run_setup(setup_s, [&] {
    routed = build_and_route(args.seed);
    generate_s.add(routed.generate_s);
  });
  const nue::Network& net = routed.net;
  const nue::RoutingResult& rr = *routed.rr;

  ++rep.attempted;
  const nue::ValidationReport val = nue::validate_routing(net, rr);
  if (!val.ok()) rep.fail("validate_routing: " + val.detail);

  const std::vector<nue::Message> messages =
      nue::alltoall_shift_messages(net, kMessageBytes, kShiftPhases);
  std::uint64_t offered = 0;
  for (const nue::Message& m : messages) offered += m.bytes;
  const nue::SimConfig cfg;

  nue::SimResult last;
  double cycles = 0, events = 0, queue_peak = 0, delivered = 0;
  const auto loop = [&](double seconds, SpanLedger* ledger) {
    Phase ph;
    ProbePairs pairs(net.terminals(), args.seed);
    cycles = events = queue_peak = delivered = 0;
    const double end = now_s() + seconds;
    do {
      const double t0 = now_s();
      const nue::SimResult r = traced_call(
          "bench.simulate", [&] { return nue::simulate(net, rr, messages, cfg); });
      const double dt = now_s() - t0;
      ++rep.attempted;
      ++ph.ops;
      if (!r.completed || r.deadlocked) {
        rep.fail("simulation did not complete (deadlocked=" +
                 std::to_string(r.deadlocked) + ")");
      } else if (r.delivered_bytes != offered) {
        rep.fail("delivered " + std::to_string(r.delivered_bytes) + " of " +
                 std::to_string(offered) + " offered bytes");
      } else {
        ph.op_ms.add(dt * 1e3);
        ph.work += static_cast<double>(r.events_processed);
        ph.busy_s += dt;
      }
      cycles += static_cast<double>(r.cycles);
      events += static_cast<double>(r.events_processed);
      queue_peak += static_cast<double>(r.queue_peak);
      delivered += static_cast<double>(r.delivered_bytes);
      last = r;

      run_probes(net, pairs, kProbeBatchesPerRun,
                 [&](nue::NodeId s, nue::NodeId d) {
                   return traced_call("bench.trace_route",
                                      [&] { return rr.trace(net, s, d); });
                 },
                 rep, ph);
      if (ledger != nullptr) ledger->drain();
    } while (now_s() < end);
    return ph;
  };

  const PhaseSet phases = run_phases(args, loop);
  const double rss = nue::peak_rss_mb().value_or(0.0);
  const Quality q = measure_quality(net, rr);

  const Phase& ph = phases.timed;
  rep.record = {
      {"sim_events_per_s", ph.busy_s > 0 ? ph.work / ph.busy_s : 0.0, "1/s"},
      {"alltoall_throughput", last.normalized_throughput, "ratio"},
      {"sim_runs", static_cast<double>(ph.ops), "count"},
      {"sim_cycles", static_cast<double>(last.cycles), "count"},
      {"gamma_max", q.gamma_max, "paths"},
      {"max_hops", q.max_hops, "hops"},
  };
  finish_report(rep, setup_s, rss, phases);
  if (args.trace) {
    const double ops = static_cast<double>(ph.ops);
    LayerContext ctx;
    ctx.ops = ops;
    ctx.nue_threads = kThreads;
    ctx.topology_generate_s = generate_s.median();
    ctx.sim_cycles = cycles / ops;
    ctx.sim_events = events / ops;
    ctx.sim_queue_peak = queue_peak / ops;
    ctx.sim_delivered_bytes = delivered / ops;
    ctx.overhead_frac = phases.overhead_frac();
    rep.per_layer = layer_metrics(phases.ledger, ctx);
  }
  return rep;
}

}  // namespace perfbench
