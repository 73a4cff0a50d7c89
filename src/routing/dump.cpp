#include "routing/dump.hpp"

#include <istream>
#include <ostream>
#include <sstream>
#include <string>

#include "routing/validate.hpp"

namespace nue {

void write_forwarding_tables(std::ostream& os, const Network& net,
                             const RoutingResult& rr) {
  os << "# forwarding tables: " << rr.destinations().size()
     << " destinations, " << rr.num_vls() << " VL(s)\n";
  for (NodeId v = 0; v < net.num_nodes(); ++v) {
    if (!net.node_alive(v) || net.is_terminal(v)) continue;
    os << "switch " << v << ":\n";
    for (std::size_t di = 0; di < rr.destinations().size(); ++di) {
      const NodeId d = rr.destinations()[di];
      if (d == v) continue;
      const ChannelId c = rr.next(v, static_cast<std::uint32_t>(di));
      if (c == kInvalidChannel) continue;
      os << "  dest " << d << " -> channel " << c << " (next hop "
         << net.dst(c) << ") vl "
         << static_cast<int>(rr.vl(v, v, static_cast<std::uint32_t>(di)))
         << "\n";
    }
  }
}

void write_network_dot(std::ostream& os, const Network& net) {
  os << "graph fabric {\n  overlap=false;\n";
  for (NodeId v = 0; v < net.num_nodes(); ++v) {
    if (!net.node_alive(v)) continue;
    os << "  n" << v << " [shape="
       << (net.is_switch(v) ? "box" : "circle") << "];\n";
  }
  for (ChannelId c = 0; c < net.num_channels(); c += 2) {
    if (!net.channel_alive(c)) continue;
    os << "  n" << net.src(c) << " -- n" << net.dst(c) << ";\n";
  }
  os << "}\n";
}

void write_cdg_dot(std::ostream& os, const Network& net,
                   const RoutingResult& rr, std::vector<NodeId> sources) {
  if (sources.empty()) sources = net.terminals();
  const auto adj = induced_cdg(net, rr, sources);
  os << "digraph cdg {\n  node [shape=ellipse];\n";
  // Vertex id = channel * (num_vls + 1) + slot; slot num_vls is the
  // out-of-range-VL overflow vertex (see induced_cdg).
  const std::uint32_t stride = rr.num_vls() + 1;
  auto label = [&](std::uint32_t vertex) {
    const auto c = static_cast<ChannelId>(vertex / stride);
    const auto vl = vertex % stride;
    os << "\"c" << net.src(c) << "_" << net.dst(c) << "_";
    if (vl == rr.num_vls()) {
      os << "vlOVF\"";
    } else {
      os << "vl" << vl << "\"";
    }
  };
  for (std::uint32_t v = 0; v < adj.size(); ++v) {
    for (const std::uint32_t w : adj[v]) {
      os << "  ";
      label(v);
      os << " -> ";
      label(w);
      os << ";\n";
    }
  }
  os << "}\n";
}

void write_routing(std::ostream& os, const Network& net,
                    const RoutingResult& rr) {
  os << "routing v1\n";
  os << "nodes " << rr.num_nodes() << "\n";
  os << "vls " << rr.num_vls() << "\n";
  os << "mode " << static_cast<int>(rr.vl_mode()) << "\n";
  os << "dests";
  for (NodeId d : rr.destinations()) os << " " << d;
  os << "\n";
  for (std::size_t di = 0; di < rr.destinations().size(); ++di) {
    os << "column " << di << "\n";
    for (NodeId v = 0; v < rr.num_nodes(); ++v) {
      if (!net.node_alive(v) || v == rr.destinations()[di]) continue;
      const ChannelId c = rr.next(v, static_cast<std::uint32_t>(di));
      if (c == kInvalidChannel) continue;
      os << v << " " << c;
      if (rr.vl_mode() != VlMode::kPerDest) {  // else one VL, written below
        os << " " << static_cast<int>(
            rr.vl(v, v, static_cast<std::uint32_t>(di)));
      }
      os << "\n";
    }
    if (rr.vl_mode() == VlMode::kPerDest) {
      const NodeId d = rr.destinations()[di];
      os << "vl " << static_cast<int>(
          rr.vl(d, d, static_cast<std::uint32_t>(di))) << "\n";
    }
    os << "end\n";
  }
}

RoutingResult read_routing(std::istream& is, const Network& net) {
  std::string tok;
  auto expect = [&](const std::string& want) {
    NUE_CHECK_MSG(static_cast<bool>(is >> tok) && tok == want,
                  "routing file: expected '" << want << "', got '" << tok
                                             << "'");
  };
  expect("routing");
  expect("v1");
  expect("nodes");
  std::size_t nodes;
  is >> nodes;
  NUE_CHECK_MSG(nodes == net.num_nodes(),
                "routing file is for a different fabric");
  expect("vls");
  std::uint32_t vls;
  is >> vls;
  expect("mode");
  int mode_int;
  is >> mode_int;
  const auto mode = static_cast<VlMode>(mode_int);
  expect("dests");
  std::string line;
  std::getline(is, line);
  std::istringstream ds(line);
  std::vector<NodeId> dests;
  NodeId d;
  while (ds >> d) dests.push_back(d);
  RoutingResult rr(nodes, dests, vls, mode);
  for (std::size_t di = 0; di < dests.size(); ++di) {
    expect("column");
    std::size_t got_di;
    is >> got_di;
    NUE_CHECK(got_di == di);
    while (is >> tok) {
      if (tok == "end") break;
      if (tok == "vl") {
        int v;
        is >> v;
        rr.set_dest_vl(static_cast<std::uint32_t>(di),
                       static_cast<std::uint8_t>(v));
        continue;
      }
      const NodeId at = static_cast<NodeId>(std::stoul(tok));
      ChannelId c;
      is >> c;
      rr.set_next(at, static_cast<std::uint32_t>(di), c);
      if (mode == VlMode::kPerSource || mode == VlMode::kPerHop) {
        int v;
        is >> v;
        if (mode == VlMode::kPerSource) {
          rr.set_source_vl(at, static_cast<std::uint32_t>(di),
                           static_cast<std::uint8_t>(v));
        } else {
          rr.set_hop_vl(at, static_cast<std::uint32_t>(di),
                        static_cast<std::uint8_t>(v));
        }
      }
    }
  }
  return rr;
}

}  // namespace nue
