#include "topology/fabric_io.hpp"

#include <algorithm>
#include <fstream>
#include <istream>
#include <map>
#include <ostream>
#include <sstream>

#include "util/error.hpp"

namespace nue {

Network read_fabric(std::istream& is) {
  Network net;
  std::map<std::string, NodeId> names;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream ls(line);
    std::string kind;
    if (!(ls >> kind)) continue;  // blank line
    if (kind == "switch" || kind == "terminal") {
      std::string name;
      NUE_CHECK_MSG(static_cast<bool>(ls >> name),
                    "line " << lineno << ": missing node name");
      NUE_CHECK_MSG(!names.count(name),
                    "line " << lineno << ": duplicate node '" << name << "'");
      names[name] =
          kind == "switch" ? net.add_switch() : net.add_terminal();
    } else if (kind == "link") {
      std::string a, b;
      NUE_CHECK_MSG(static_cast<bool>(ls >> a >> b),
                    "line " << lineno << ": link needs two node names");
      std::size_t mult = 1;
      ls >> mult;
      NUE_CHECK_MSG(names.count(a),
                    "line " << lineno << ": unknown node '" << a << "'");
      NUE_CHECK_MSG(names.count(b),
                    "line " << lineno << ": unknown node '" << b << "'");
      NUE_CHECK_MSG(mult >= 1, "line " << lineno << ": zero multiplicity");
      for (std::size_t i = 0; i < mult; ++i) {
        net.add_link(names[a], names[b]);
      }
    } else {
      NUE_CHECK_MSG(false,
                    "line " << lineno << ": unknown keyword '" << kind << "'");
    }
  }
  for (NodeId t : net.terminals()) {
    NUE_CHECK_MSG(net.degree(t) == 1,
                  "terminal node " << t << " must have exactly one link");
    NUE_CHECK_MSG(net.is_switch(net.dst(net.out(t)[0])),
                  "terminal node " << t << " must attach to a switch");
  }
  return net;
}

void write_fabric(std::ostream& os, const Network& net) {
  os << "# " << net.num_alive_switches() << " switches, "
     << net.num_alive_terminals() << " terminals, "
     << net.num_alive_channels() / 2 << " duplex links\n";
  std::vector<std::string> name(net.num_nodes());
  std::size_t nsw = 0, nterm = 0;
  for (NodeId v = 0; v < net.num_nodes(); ++v) {
    if (!net.node_alive(v)) continue;
    if (net.is_switch(v)) {
      name[v] = 's' + std::to_string(nsw++);
      os << "switch " << name[v] << "\n";
    } else {
      name[v] = 't' + std::to_string(nterm++);
    }
  }
  for (NodeId v = 0; v < net.num_nodes(); ++v) {
    if (net.node_alive(v) && net.is_terminal(v)) {
      os << "terminal " << name[v] << "\n";
    }
  }
  // Coalesce parallel links into a multiplicity count.
  std::map<std::pair<NodeId, NodeId>, std::size_t> mult;
  for (ChannelId c = 0; c < net.num_channels(); c += 2) {
    if (!net.channel_alive(c)) continue;
    const NodeId a = std::min(net.src(c), net.dst(c));
    const NodeId b = std::max(net.src(c), net.dst(c));
    ++mult[{a, b}];
  }
  for (const auto& [key, m] : mult) {
    os << "link " << name[key.first] << " " << name[key.second];
    if (m > 1) os << " " << m;
    os << "\n";
  }
}

Network load_fabric_file(const std::string& path) {
  std::ifstream f(path);
  NUE_CHECK_MSG(f.good(), "cannot open fabric file " << path);
  return read_fabric(f);
}

void save_fabric_file(const std::string& path, const Network& net) {
  std::ofstream f(path);
  NUE_CHECK_MSG(f.good(), "cannot write fabric file " << path);
  write_fabric(f, net);
}

}  // namespace nue
