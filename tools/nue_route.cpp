// nue_route — command-line routing tool (the repo's "OpenSM stand-in"):
// load or generate a fabric, optionally degrade it, run a routing engine,
// validate deadlock-freedom, dump tables/CDG/fabric, and optionally push
// an all-to-all exchange through the flit simulator.
//
// Examples:
//   nue_route --generate torus:4x4x3:4 --fail-switches 1 --routing nue --vls 4
//   nue_route --topology fabric.txt --routing dfsssp --dump-tables tables.txt
//   nue_route --generate random:125:1000:8 --routing nue --vls 2 --simulate
//
// Live reconfiguration (src/resilience, docs/RESILIENCE.md):
//   nue_route --fault-trace run.trace --routing nue --vls 2
//       replay a recorded fault/repair trace through the resilience
//       manager (the fabric regenerates from the trace's own generator
//       spec unless --generate/--topology overrides it)
//   nue_route --generate torus:4x4:2 --fault-events 12
//             --fault-trace-out run.trace --reconfig-json out.json
//       draw a random event stream, replay it live, save the trace
#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>

#include "graph/algorithms.hpp"
#include "metrics/metrics.hpp"
#include "nue/engines.hpp"
#include "routing/dump.hpp"
#include "routing/ib_tables.hpp"
#include "routing/validate.hpp"
#include "resilience/resilience.hpp"
#include "sim/flit_sim.hpp"
#include "telemetry/cli.hpp"
#include "topology/fabric_io.hpp"
#include "topology/faults.hpp"
#include "topology/generate.hpp"
#include "util/flags.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace {

/// Ceiling of --vls and --max-vls: the same 64 lanes a daemon `load`
/// request may ask for.
constexpr std::int64_t kMaxVls = 64;
constexpr std::int64_t kMaxU32 = std::numeric_limits<std::uint32_t>::max();
/// Ceiling of the failure counts: no generated fabric has more nodes or
/// links than this.
constexpr auto kMaxFailures =
    static_cast<std::int64_t>(nue::kMaxGeneratedElements);

}  // namespace

int main(int argc, char** argv) {
  using namespace nue;
  Flags flags(argc, argv);
  const std::string topo_file =
      flags.get_string("topology", "", "fabric file to load");
  const std::string gen =
      flags.get_string("generate", "", "generator spec, e.g. torus:4x4x3:4");
  const auto fail_links = static_cast<std::size_t>(flags.get_int(
      "fail-links", 0, "random link failures to inject", 0, kMaxFailures));
  const auto fail_switches = static_cast<std::size_t>(
      flags.get_int("fail-switches", 0, "random switch failures to inject", 0,
                    kMaxFailures));
  const auto fault_seed = static_cast<std::uint64_t>(
      flags.get_int("fault-seed", 1, "failure-injection seed"));
  const std::string fault_trace_file = flags.get_string(
      "fault-trace", "",
      "replay a fault/repair trace through the live resilience manager");
  const auto fault_events = static_cast<std::size_t>(flags.get_int(
      "fault-events", 0,
      "draw this many random fault/repair events and replay them live", 0));
  const std::string fault_trace_out = flags.get_string(
      "fault-trace-out", "", "save the drawn event trace to this file");
  const auto max_vls_flag = static_cast<std::uint32_t>(
      flags.get_int("max-vls", 0,
                    "repair ladder VL escalation cap (0 = max(--vls, 8))", 0,
                    kMaxVls));
  const std::string reconfig_json = flags.get_string(
      "reconfig-json", "", "write the reconfiguration verdict log as JSON");
  const std::string engine =
      flags.get_string("routing", "nue", engine_names());
  const auto vls = static_cast<std::uint32_t>(flags.get_int(
      "vls", 1, "virtual lanes for deadlock freedom", 1, kMaxVls));
  const std::string betweenness = flags.get_string(
      "betweenness", "exact",
      "Nue escape-root Brandes: exact | sampled:<pivots> (docs/SCALING.md)");
  const std::string dump_tables =
      flags.get_string("dump-tables", "", "write forwarding tables ('-' = stdout)");
  const std::string dump_cdg =
      flags.get_string("dump-cdg", "", "write induced CDG as GraphViz dot");
  const std::string dump_fabric =
      flags.get_string("dump-fabric", "", "write the (degraded) fabric");
  const std::string save_routing =
      flags.get_string("save-routing", "", "serialize the routing tables");
  const bool compile_ib = flags.get_bool(
      "compile-ib", false,
      "compile LFT/SL/SL2VL state and cross-check it against the routing");
  const bool do_sim =
      flags.get_bool("simulate", false, "run an all-to-all flit simulation");
  const auto msg_bytes = static_cast<std::uint32_t>(flags.get_int(
      "message-bytes", 2048, "simulated message size", 0, kMaxU32));
  const auto shifts = static_cast<std::uint32_t>(
      flags.get_int("shift-samples", 8,
                    "all-to-all shift phases to simulate (0 = all)", 0,
                    kMaxU32));
  telemetry::Cli telem;
  telem.register_flags(flags);
  const std::uint32_t threads = flags.get_threads();
  if (!flags.finish()) return 1;
  const std::optional<Engine> routing = engine_from_name(engine);
  if (!routing.has_value()) {
    std::cerr << "unknown routing engine '" << engine << "'\n";
    return 1;
  }
  std::size_t betweenness_pivots = 0;
  if (betweenness != "exact") {
    if (betweenness.rfind("sampled:", 0) == 0) {
      try {
        betweenness_pivots = std::stoul(betweenness.substr(8));
      } catch (const std::exception&) {
        betweenness_pivots = 0;
      }
    }
    if (betweenness_pivots == 0) {
      std::cerr << "--betweenness must be 'exact' or 'sampled:<pivots>' "
                   "with pivots >= 1, got '" << betweenness << "'\n";
      return 1;
    }
  }
  set_default_threads(threads);
  const std::vector<std::pair<std::string, std::string>> telem_config = {
      {"topology", topo_file.empty() ? gen : topo_file},
      {"routing", engine},
      {"vls", std::to_string(vls)},
      {"fail_links", std::to_string(fail_links)},
      {"fail_switches", std::to_string(fail_switches)},
      {"fault_seed", std::to_string(fault_seed)},
      {"threads", std::to_string(threads)},
      {"betweenness", betweenness},
  };

  try {
    // --- fabric -------------------------------------------------------------
    std::optional<FaultTrace> trace;
    if (!fault_trace_file.empty()) {
      trace = load_fault_trace_file(fault_trace_file);
    }
    GeneratedTopology topo;
    if (!topo_file.empty()) {
      topo.net = load_fabric_file(topo_file);
    } else if (!gen.empty()) {
      topo = generate_topology(gen);
    } else if (trace.has_value() && !trace->generate.empty()) {
      topo = generate_topology(trace->generate);
    } else {
      std::cerr << "need --topology FILE or --generate SPEC (see --help)\n";
      return 1;
    }
    Network& net = topo.net;
    Rng fault_rng(fault_seed);
    std::size_t dead_switches = 0, dead_links = 0;
    if (fail_switches > 0) {
      dead_switches = inject_switch_failures(net, fail_switches, fault_rng);
    }
    if (fail_links > 0) {
      dead_links = inject_link_failures(net, fail_links, fault_rng);
    }
    if (dead_switches < fail_switches || dead_links < fail_links) {
      std::cerr << "warning: injected " << dead_switches << "/"
                << fail_switches << " switch and " << dead_links << "/"
                << fail_links
                << " link failures (injection keeps the fabric connected "
                   "and stops once nothing removable is left or after a "
                   "bounded number of redraws)\n";
    }
    std::cout << "fabric: " << net.num_alive_switches() << " switches, "
              << net.num_alive_terminals() << " terminals, "
              << net.num_alive_channels() / 2 << " duplex links";
    if (dead_switches + dead_links > 0) {
      std::cout << " (" << dead_switches << " failed switches, " << dead_links
                << " failed links)";
    }
    std::cout << "\n";
    NUE_CHECK_MSG(is_connected(net), "fabric is disconnected");
    if (!dump_fabric.empty()) save_fabric_file(dump_fabric, net);

    // --- live reconfiguration ------------------------------------------------
    if (trace.has_value() || fault_events > 0) {
      if (!trace.has_value()) {
        trace = draw_fault_trace(net, gen, fault_seed, fault_events);
        std::cout << "drew " << trace->events.size()
                  << " fault/repair events (seed " << fault_seed << ")\n";
      }
      if (!fault_trace_out.empty()) {
        save_fault_trace_file(fault_trace_out, *trace);
      }
      resilience::RepairPolicy policy;
      policy.engine = *routing;
      policy.vls = std::max(vls, 1u);
      policy.max_vls = max_vls_flag > 0 ? std::max(max_vls_flag, policy.vls)
                                        : std::max(policy.vls, 8u);
      policy.seed = fault_seed;
      policy.num_threads = threads;
      Timer replay_timer;
      resilience::ResilienceManager mgr(net, policy);
      const auto records = mgr.replay(*trace);
      for (const auto& r : records) {
        std::cout << "  epoch " << r.epoch << " " << r.event << ": "
                  << r.committed_step << " (" << r.affected_dests << "/"
                  << r.total_dests << " dests, " << r.repair_ms << "ms"
                  << (r.drained ? ", drained" : r.hitless ? ", hitless" : "")
                  << ")\n";
      }
      const auto sum = mgr.log().summarize();
      std::cout << "reconfig: " << trace->events.size() << " events -> "
                << sum.transitions << " transitions (" << sum.hitless
                << " hitless, " << sum.drained << " drained, " << sum.noops
                << " noops) in " << replay_timer.seconds() << "s\n";
      std::cout << "repair latency: median " << sum.median_repair_ms
                << "ms, p99 " << sum.p99_repair_ms << "ms, max "
                << sum.max_repair_ms << "ms\n";
      const Json reconfig = mgr.log().to_json();
      if (!reconfig_json.empty()) {
        std::ofstream(reconfig_json) << reconfig.dump() << "\n";
      }
      const auto final_rep = validate_routing(mgr.net(), *mgr.table());
      std::cout << "final table: connected=" << final_rep.connected
                << " cycle_free=" << final_rep.cycle_free
                << " deadlock_free=" << final_rep.deadlock_free
                << " live_elements=" << final_rep.live_elements << "\n";
      if (telem.wanted()) {
        // The run report embeds the structured reconfiguration log next to
        // the folded resilience.* counters (same JSON as --reconfig-json).
        telem.finish("nue_route", telem_config, {{"reconfig", reconfig}});
      }
      return final_rep.ok() ? 0 : 2;
    }

    // --- routing ------------------------------------------------------------
    const auto dests = net.terminals();
    Timer timer;
    EngineStats stats;
    const RoutingResult rr = route_engine(
        *routing, net, dests,
        {.vls = vls, .betweenness_pivots = betweenness_pivots,
         .torus = topo.torus, .fattree = topo.fattree},
        &stats);
    std::string vl_note;
    if (stats.fallbacks.has_value()) {
      vl_note = " (fallbacks: " + std::to_string(*stats.fallbacks) + ")";
    }
    if (stats.vls_needed.has_value()) {
      vl_note = " (VLs needed: " + std::to_string(*stats.vls_needed) + ")";
    }
    std::cout << "routing: " << engine << " in " << timer.seconds() << "s"
              << vl_note << "\n";

    // --- validation + metrics ------------------------------------------------
    const auto write_telem = [&] {
      if (telem.wanted()) telem.finish("nue_route", telem_config);
    };
    const auto rep = validate_routing(net, rr);
    std::cout << "validation: connected=" << rep.connected
              << " cycle_free=" << rep.cycle_free
              << " deadlock_free=" << rep.deadlock_free
              << " (avg path " << rep.avg_path_length << ", max "
              << rep.max_path_length << ")\n";
    const auto gamma =
        summarize_forwarding_index(net, edge_forwarding_index(net, rr));
    std::cout << "edge forwarding index: min " << gamma.min << " avg "
              << gamma.avg << " max " << gamma.max << "\n";

    // --- dumps ---------------------------------------------------------------
    if (dump_tables == "-") {
      write_forwarding_tables(std::cout, net, rr);
    } else if (!dump_tables.empty()) {
      std::ofstream f(dump_tables);
      write_forwarding_tables(f, net, rr);
    }
    if (!dump_cdg.empty()) {
      std::ofstream f(dump_cdg);
      write_cdg_dot(f, net, rr);
    }
    if (!save_routing.empty()) {
      std::ofstream f(save_routing);
      write_routing(f, net, rr);
    }
    if (compile_ib) {
      const auto tables = compile_ib_tables(net, rr);
      const bool ok = verify_compiled(net, rr, tables);
      std::cout << "ib tables: " << (tables.node_of_lid.size() - 1)
                << " LIDs, " << tables.total_lft_entries()
                << " LFT entries, cross-check "
                << (ok ? "passed" : "FAILED") << "\n";
      if (!ok) {
        write_telem();
        return 2;
      }
    }

    // --- simulation ------------------------------------------------------------
    if (do_sim) {
      SimConfig cfg;
      const auto msgs = alltoall_shift_messages(net, msg_bytes, shifts);
      const auto res = simulate(net, rr, msgs, cfg);
      std::cout << "simulation: " << res.delivered_packets << " packets, "
                << res.cycles << " cycles, normalized throughput "
                << res.normalized_throughput << ", avg latency "
                << res.avg_packet_latency << " cycles"
                << (res.deadlocked ? "  [DEADLOCK]" : "") << "\n";
      if (!res.completed) {
        write_telem();  // a deadlocked run is when the trace matters most
        return 2;
      }
    }
    write_telem();
    return rep.ok() ? 0 : 2;
  } catch (const RoutingFailure& e) {
    std::cerr << "routing failed: " << e.what() << "\n";
    return 3;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
