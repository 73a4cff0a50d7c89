// Workload `bringup`: the operator's cold path on torus:8x8x8:4 (512
// switches, 2,048 terminals) with 15 seeded random link faults. One
// operation is one pass route_nue (k = 8, 4 threads) -> validate_routing ->
// compile_ib_tables + verify_compiled; passes repeat back to back. The
// seed draws kFaultSets independent fault sets and pass i routes set
// i mod kFaultSets, so a run's median covers several fabrics rather than
// one draw's luck. After each pass the benchmark probes the compiled
// state with seeded ib_walk route lookups (the path a packet takes through
// the programmed LFTs). Route quality (of fault set 0) is measured after
// timing stops.
#include <optional>
#include <stdexcept>
#include <string>

#include "common.hpp"
#include "nue/nue_routing.hpp"
#include "routing/ib_tables.hpp"
#include "routing/validate.hpp"
#include "topology/faults.hpp"
#include "topology/generate.hpp"
#include "util/rss.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

constexpr const char* kSpec = "torus:8x8x8:4";
constexpr std::size_t kLinkFaults = 15;
constexpr std::size_t kFaultSets = 4;
constexpr std::uint32_t kVls = 8;
constexpr std::uint32_t kThreads = 4;
constexpr std::size_t kProbeBatchesPerPass = 64;

struct Fabrics {
  std::vector<nue::Network> nets;  // one per fault set
  double generate_s = 0;           // per fabric
  double faults_s = 0;             // per fault set
};

Fabrics build_fabrics(std::uint64_t seed) {
  Fabrics f;
  nue::Rng seeds(seed);
  for (std::size_t i = 0; i < kFaultSets; ++i) {
    double t0 = now_s();
    nue::Network net = nue::generate_topology(kSpec).net;
    f.generate_s += now_s() - t0;
    t0 = now_s();
    nue::Rng rng(seeds.next_u64());
    const std::size_t removed = nue::inject_link_failures(net, kLinkFaults, rng);
    f.faults_s += now_s() - t0;
    if (removed != kLinkFaults) {
      throw std::runtime_error("injected " + std::to_string(removed) + " of " +
                               std::to_string(kLinkFaults) + " link faults");
    }
    f.nets.push_back(std::move(net));
  }
  f.generate_s /= kFaultSets;
  f.faults_s /= kFaultSets;
  return f;
}

struct Pass {
  std::optional<nue::RoutingResult> rr;
  nue::NueStats stats;
};

/// One timed pass on `net`, then its probes. Checks go into `rep`.
Pass run_pass(const nue::Network& net, const nue::NueOptions& opt,
              ProbePairs& pairs, Report& rep, Phase& ph) {
  const std::vector<nue::NodeId> dests = net.terminals();
  const double t0 = now_s();
  Pass p;
  p.rr = traced_call("bench.route_nue", [&] {
    return nue::route_nue(net, dests, opt, &p.stats);
  });
  const nue::RoutingResult& rr = *p.rr;
  const nue::ValidationReport val = traced_call(
      "bench.validate_routing", [&] { return nue::validate_routing(net, rr); });
  const nue::IbTables ib = traced_call(
      "bench.compile_ib_tables", [&] { return nue::compile_ib_tables(net, rr); });
  const bool compiled_ok = traced_call(
      "bench.verify_compiled", [&] { return nue::verify_compiled(net, rr, ib); });
  const double pass_s = now_s() - t0;

  ++rep.attempted;
  std::size_t unrouted = 0;
  for (const nue::NodeId t : dests) unrouted += rr.is_destination(t) ? 0 : 1;
  if (!val.ok()) {
    rep.fail("validate_routing: " + val.detail);
  } else if (!compiled_ok) {
    rep.fail("verify_compiled rejected the compiled LFTs");
  } else if (unrouted != 0 || val.num_paths < dests.size() * (dests.size() - 1)) {
    rep.fail(std::to_string(unrouted) + " terminals unrouted, " +
             std::to_string(val.num_paths) + " paths validated");
  } else {
    ph.op_ms.add(pass_s * 1e3);
    ph.work += static_cast<double>(val.num_paths);
    ph.busy_s += pass_s;
  }

  run_probes(net, pairs, kProbeBatchesPerPass,
             [&](nue::NodeId s, nue::NodeId d) {
               return traced_call("bench.ib_walk",
                                  [&] { return nue::ib_walk(net, ib, s, d); });
             },
             rep, ph);
  return p;
}

}  // namespace

Report run_bringup(const Args& args) {
  Report rep;
  Samples setup_s, generate_s, faults_s;
  Fabrics fab;
  run_setup(setup_s, [&] {
    fab = build_fabrics(args.seed);
    generate_s.add(fab.generate_s);
    faults_s.add(fab.faults_s);
  });

  nue::NueOptions opt;
  opt.num_vls = kVls;
  opt.num_threads = kThreads;
  opt.seed = args.seed;

  std::optional<Pass> first;  // the latest pass on fault set 0
  const auto loop = [&](double seconds, SpanLedger* ledger) {
    Phase ph;
    ProbePairs pairs(fab.nets[0].terminals(), args.seed);
    const double end = now_s() + seconds;
    do {
      const std::size_t set = ph.ops % kFaultSets;
      Pass p = run_pass(fab.nets[set], opt, pairs, rep, ph);
      if (set == 0) first = std::move(p);
      if (ledger != nullptr) ledger->drain();
      ++ph.ops;
    } while (now_s() < end);
    return ph;
  };

  const PhaseSet phases = run_phases(args, loop);
  const double rss = nue::peak_rss_mb().value_or(0.0);
  const Quality q = measure_quality(fab.nets[0], *first->rr);

  rep.record = {
      {"bringup_s", phases.timed.op_ms.median() / 1e3, "s"},
      {"passes", static_cast<double>(phases.timed.ops), "count"},
      {"escape_fallbacks", static_cast<double>(first->stats.fallbacks),
       "count"},
      {"gamma_max", q.gamma_max, "paths"},
      {"gamma_avg", q.gamma_avg, "paths"},
      {"max_hops", q.max_hops, "hops"},
      {"avg_hops", q.avg_hops, "hops"},
  };
  finish_report(rep, setup_s, rss, phases);
  if (args.trace) {
    LayerContext ctx;
    ctx.ops = static_cast<double>(phases.timed.ops);
    ctx.nue_threads = kThreads;
    ctx.topology_generate_s = generate_s.median();
    ctx.topology_faults_s = faults_s.median();
    ctx.overhead_frac = phases.overhead_frac();
    rep.per_layer = layer_metrics(phases.ledger, ctx);
  }
  return rep;
}

}  // namespace perfbench
