// Extension bench — the fail-in-place context [7] the paper is motivated
// by: degrade a torus link by link and track, per routing engine, (a)
// applicability, (b) all-to-all throughput on the degraded fabric, and
// (c) for Nue, the incremental-reroute cost vs a full recompute.
//
//   --dims AxBxC (default 4x4x3)  --events N (default 10)  --seed S
#include <iostream>

#include "bench_common.hpp"
#include "nue/nue_routing.hpp"
#include "routing/torus_qos.hpp"
#include "routing/updown.hpp"
#include "routing/validate.hpp"
#include "topology/faults.hpp"
#include "topology/generate.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace nue;
  using namespace nue::bench;
  Flags flags(argc, argv);
  const std::string dims_str =
      flags.get_string("dims", "4x4x3", "torus dimensions");
  const auto events = static_cast<std::uint32_t>(
      flags.get_int("events", 10, "link-failure events"));
  const auto seed =
      static_cast<std::uint64_t>(flags.get_int("seed", 21, "fault seed"));
  const std::string csv = flags.get_string("csv", "", "CSV output path");
  if (!flags.finish()) return 1;

  GeneratedTopology topo = generate_topology("torus:" + dims_str + ":2");
  const TorusSpec spec = *topo.torus;
  Network net = std::move(topo.net);
  Rng rng(seed);

  NueOptions opt;
  opt.num_vls = 2;
  auto nue_tables = route_nue(net, net.terminals(), opt);

  Table table({"dead links", "torus-2qos", "nue tput", "nue util_max",
               "nue fallbacks", "reroute [s]", "full [s]"});
  double reroute_seconds = 0.0;
  std::size_t dead_links = 0;  // achieved count, not the event counter
  for (std::uint32_t event = 0; event <= events; ++event) {
    const auto msgs = alltoall_shift_messages(net, 2048, 16);
    std::string qos_cell = "fail";
    try {
      const auto qos = route_torus_qos(net, spec, net.terminals());
      if (validate_routing(net, qos).ok()) {
        const auto res = simulate(net, qos, msgs, SimConfig{});
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.4f", res.normalized_throughput);
        qos_cell = buf;
      }
    } catch (const RoutingFailure&) {
    }

    NueStats nstats;
    Timer t_full;
    const auto fresh = route_nue(net, net.terminals(), opt, &nstats);
    const double full_s = t_full.seconds();
    NUE_CHECK(validate_routing(net, fresh).ok());
    const auto res = simulate(net, fresh, msgs, SimConfig{});
    table.row() << dead_links << qos_cell
                << res.normalized_throughput << res.max_link_utilization
                << static_cast<std::uint64_t>(nstats.fallbacks)
                << reroute_seconds << full_s;
    if (event < events) {
      const std::size_t injected = inject_link_failures(net, 1, rng);
      if (injected == 0) {
        std::cerr << "no further link failure injectable after "
                  << dead_links << " dead links\n";
        break;
      }
      dead_links += injected;
      Timer t_inc;
      RerouteStats rs;
      nue_tables = reroute_nue(net, nue_tables, opt, &rs);
      reroute_seconds = t_inc.seconds();
      NUE_CHECK(validate_routing(net, nue_tables).ok());
    }
  }
  table.print();
  if (!csv.empty()) table.write_csv(csv);
  std::cout << "\n(the torus-2qos column goes to 'fail' once some ring is "
               "broken twice;\n Nue degrades gracefully and reroutes "
               "incrementally)\n";
  return 0;
}
