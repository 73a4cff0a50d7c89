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
// name=<generator spec>[@engine[:vls[:max_vls[:seed]]]]. Each entry
// becomes a `load` request handled exactly like one off the socket, so
// both share one set of defaults and checks; the generator spec is the
// grammar of src/topology/generate.hpp. Further fabrics can be loaded
// over the protocol at runtime. A `shutdown` request (nue_routectl --op
// shutdown) winds the daemon down gracefully: in-flight connections
// drain, then the telemetry exporters flush — the run report embeds
// every shard's reconfiguration log as a "reconfig.<fabric>" section.
#include <csignal>
#include <fstream>
#include <iostream>
#include <iterator>
#include <string>

#include "service/server.hpp"
#include "service/service.hpp"
#include "telemetry/cli.hpp"
#include "telemetry/export.hpp"
#include "util/error.hpp"
#include "util/flags.hpp"
#include "util/parse.hpp"
#include "util/thread_pool.hpp"

namespace {

nue::service::SocketServer* g_server = nullptr;

void handle_signal(int) {
  if (g_server != nullptr) g_server->stop();
}

/// One --load entry, name=<generator spec>[@engine[:vls[:max_vls[:seed]]]],
/// as the `load` request the socket carries, so the `load` op applies
/// its own defaults and checks to startup loads too.
nue::Json load_request(const std::string& item, std::size_t log_max_records) {
  const auto eq = item.find('=');
  NUE_CHECK_MSG(eq != std::string::npos && eq > 0,
                "--load entry '" << item << "' needs name=<generator spec>");
  const std::string rest = item.substr(eq + 1);
  const auto at = rest.find('@');
  nue::Json req = nue::Json::object();
  req.set("op", "load");
  req.set("fabric", item.substr(0, eq));
  req.set("generate", rest.substr(0, at));
  if (at != std::string::npos) {
    const auto opts = nue::split(rest.substr(at + 1), ':');
    const char* const keys[] = {"engine", "vls", "max_vls", "seed"};
    NUE_CHECK_MSG(opts.size() <= std::size(keys),
                  "--load entry '" << item << "' has more than "
                                   << "engine:vls:max_vls:seed after '@'");
    req.set("engine", opts[0]);
    for (std::size_t i = 1; i < opts.size(); ++i) {
      // JSON numbers are doubles: larger values would round silently.
      const auto v = nue::parse_uint(opts[i], std::uint64_t{1} << 53);
      NUE_CHECK_MSG(v.has_value(), "--load entry '" << item << "': "
                                       << keys[i] << " '" << opts[i]
                                       << "' must be an integer in [0, 2^53]");
      req.set(keys[i], *v);
    }
  }
  req.set("log_max_records", log_max_records);
  return req;
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
      if (item.empty()) continue;
      const Json resp = svc.handle(load_request(item, log_max_records));
      if (!resp.boolean("ok")) {
        std::cerr << "nue_managerd: --load entry '" << item
                  << "': " << resp.str("error") << "\n";
        return 1;
      }
      std::cerr << "nue_managerd: loaded " << item << "\n";
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
