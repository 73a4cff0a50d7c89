// nue_managerd — resident fabric-manager daemon (docs/SERVICE.md): load
// one or more fabrics as independent shards, keep each one's validated,
// deadlock-free routing table alive through a runtime fault/repair event
// stream (src/resilience), and serve route queries, table dumps, and
// status over line-delimited JSON on a Unix-domain socket.
//
//   nue_managerd --socket /tmp/nue.sock
//       --load "a=torus:4x4:1@nue:2;b=random:20:50:2@dfsssp:8"
//
// --load grammar: semicolon-separated shards, each
// name=<generator spec>[@engine[:vls[:max_vls[:seed]]]] — the generator
// spec is the same colon grammar nue_route --generate takes
// (src/topology/generate.hpp). Further fabrics can be loaded over the
// protocol at runtime. A `shutdown` request (nue_routectl --op shutdown)
// winds the daemon down gracefully: in-flight connections drain, then
// the telemetry exporters flush — the run report embeds every shard's
// reconfiguration log as a "reconfig.<fabric>" section.
#include <csignal>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include <fstream>

#include "service/server.hpp"
#include "service/service.hpp"
#include "telemetry/cli.hpp"
#include "telemetry/export.hpp"
#include "util/error.hpp"
#include "util/flags.hpp"
#include "util/thread_pool.hpp"

namespace {

nue::service::SocketServer* g_server = nullptr;

void handle_signal(int) {
  if (g_server != nullptr) g_server->stop();
}

struct LoadSpec {
  std::string name;
  std::string generate;
  nue::resilience::RepairPolicy policy;
};

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::istringstream is(s);
  std::string item;
  while (std::getline(is, item, sep)) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

LoadSpec parse_load(const std::string& item, std::size_t log_max_records) {
  LoadSpec spec;
  spec.policy.log_max_records = log_max_records;
  const auto eq = item.find('=');
  NUE_CHECK_MSG(eq != std::string::npos && eq > 0,
                "--load entry '" << item << "' needs name=<generator spec>");
  spec.name = item.substr(0, eq);
  std::string rest = item.substr(eq + 1);
  const auto at = rest.find('@');
  if (at != std::string::npos) {
    const auto opts = split(rest.substr(at + 1), ':');
    rest = rest.substr(0, at);
    NUE_CHECK_MSG(!opts.empty(), "--load entry '" << item
                                 << "' has an empty @engine suffix");
    const auto engine = nue::engine_from_name(opts[0]);
    NUE_CHECK_MSG(engine.has_value() && nue::engine_info(*engine).repairs,
                  "unknown repair engine '" << opts[0] << "' in --load");
    spec.policy.engine = *engine;
    if (opts.size() > 1) {
      spec.policy.vls = static_cast<std::uint32_t>(std::stoul(opts[1]));
    }
    spec.policy.max_vls =
        opts.size() > 2 ? static_cast<std::uint32_t>(std::stoul(opts[2]))
                        : std::max(spec.policy.vls, 8u);
    if (opts.size() > 3) {
      spec.policy.seed = std::stoull(opts[3]);
    }
  }
  NUE_CHECK_MSG(!rest.empty(),
                "--load entry '" << item << "' has an empty generator spec");
  spec.generate = rest;
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace nue;
  Flags flags(argc, argv);
  const std::string socket_path = flags.get_string(
      "socket", "", "Unix-domain socket path to listen on (required)");
  const std::string load = flags.get_string(
      "load", "",
      "fabrics to load at startup: name=spec[@engine[:vls[:max_vls[:seed]]]]"
      ", ';'-separated");
  const auto log_max_records = static_cast<std::size_t>(flags.get_int(
      "log-max-records", 512,
      "per-shard ReconfigLog retention window (0 = unbounded)"));
  service::ObservabilityOptions obs;
  obs.journal_file = flags.get_string(
      "journal", "", "mirror the event journal to this JSONL file "
      "(rotates FILE -> FILE.1 at --journal-max-bytes)");
  obs.journal_capacity = static_cast<std::size_t>(flags.get_int(
      "journal-max-records", 4096, "in-memory journal ring capacity"));
  obs.journal_max_bytes = static_cast<std::size_t>(flags.get_int(
      "journal-max-bytes", 8 << 20,
      "journal file rotation threshold in bytes (0 = never rotate)"));
  obs.flightrec_dir = flags.get_string(
      "flightrec-dir", "",
      "write flightrec-<fabric>-<epoch>.json bundles here on gate "
      "failures ('' = flight recorder off)");
  obs.flightrec_max_bundles = static_cast<std::size_t>(flags.get_int(
      "flightrec-max-bundles", 16,
      "cap on flight-recorder bundles per process"));
  const std::string prom_out = flags.get_string(
      "prom-out", "",
      "write a Prometheus text exposition of the registry at shutdown "
      "(the live equivalent is the metrics op with format=prom)");
  telemetry::Cli telem;
  telem.register_flags(flags);
  const std::uint32_t threads = flags.get_threads();
  if (!flags.finish()) return 1;
  if (socket_path.empty()) {
    std::cerr << "nue_managerd: --socket PATH is required\n";
    return 1;
  }
  set_default_threads(threads);

  // The live plane is always on in the daemon: the `metrics`/`journal`
  // ops and the request-latency SLOs must answer whether or not anyone
  // asked for a shutdown flush. Telemetry never influences control flow
  // (routing tables are bit-identical either way — the offline-replay
  // cross-check in tests/test_service.cpp holds with it enabled), and
  // the central span log is bounded so a resident process can't grow
  // its trace without bound.
  telemetry::set_enabled(true);
  telemetry::Tracer::instance().set_collected_capacity(1 << 16);

  try {
    service::ManagerService svc(obs);
    for (const auto& item : split(load, ';')) {
      const LoadSpec spec = parse_load(item, log_max_records);
      svc.load(spec.name, spec.generate, spec.policy);
      std::cerr << "nue_managerd: loaded '" << spec.name << "' = "
                << spec.generate << " ("
                << engine_name(spec.policy.engine) << ", "
                << spec.policy.vls << " VLs)\n";
    }

    service::SocketServer server(socket_path, svc);
    g_server = &server;
    std::signal(SIGINT, handle_signal);
    std::signal(SIGTERM, handle_signal);
    std::cerr << "nue_managerd: serving on " << socket_path << "\n";
    server.serve();
    g_server = nullptr;
    std::cerr << "nue_managerd: shutting down\n";

    if (telem.wanted()) {
      telem.finish("nue_managerd",
                   {{"socket", socket_path},
                    {"load", load},
                    {"threads", std::to_string(threads)}},
                   svc.report_sections());
    }
    if (!prom_out.empty()) {
      std::ofstream os(prom_out);
      if (!os) {
        std::cerr << "cannot write --prom-out " << prom_out << "\n";
      } else {
        telemetry::write_prometheus_text(os);
      }
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "nue_managerd: " << e.what() << "\n";
    return 1;
  }
}
