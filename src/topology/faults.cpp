#include "topology/faults.hpp"

#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <vector>

#include "graph/algorithms.hpp"
#include "util/error.hpp"

namespace nue {

namespace {

/// True if removing the given duplex link keeps the alive fabric connected.
bool link_removal_safe(const Network& net, ChannelId c) {
  Network copy = net;
  copy.remove_link(c);
  return is_connected(copy);
}

bool switch_removal_safe(const Network& net, NodeId sw) {
  Network copy = net;
  std::vector<NodeId> orphans;
  for (ChannelId c : copy.out(sw)) {
    const NodeId nb = copy.dst(c);
    if (copy.is_terminal(nb)) orphans.push_back(nb);
  }
  copy.remove_node(sw);
  for (NodeId t : orphans) copy.remove_node(t);
  return copy.num_alive_nodes() > 0 && is_connected(copy);
}

/// Dead switch orphans of sw on the live fabric (terminals whose access
/// link goes to sw), collected before the removal deletes the links.
std::vector<NodeId> switch_orphans(const Network& net, NodeId sw) {
  std::vector<NodeId> orphans;
  for (ChannelId c : net.out(sw)) {
    if (net.is_terminal(net.dst(c))) orphans.push_back(net.dst(c));
  }
  return orphans;
}

/// Ends an injector's draws once nothing is left to remove. A failed
/// draw of a link or switch asks whether any element is still removable;
/// the answer is a witness, trusted until the next removal changes the
/// fabric, so the sweep behind it runs at most once per removal. The
/// draws are untouched: an injection stops early only where every later
/// draw would have failed too.
class Exhaustion {
 public:
  explicit Exhaustion(std::size_t n) : n_(n) {}

  /// The fabric changed: the witness must be found again.
  void removed() { known_ = false; }

  /// True iff `removable(i)` holds for no element i < n.
  template <typename Removable>
  bool exhausted(const Removable& removable) {
    if (known_) return false;
    for (std::size_t k = 0; k < n_; ++k) {
      const std::size_t i = (witness_ + k) % n_;
      if (removable(i)) {
        witness_ = i;
        known_ = true;
        return false;
      }
    }
    return true;
  }

 private:
  std::size_t n_;
  std::size_t witness_ = 0;
  bool known_ = false;
};

}  // namespace

std::size_t inject_link_failures(Network& net, std::size_t count, Rng& rng) {
  const auto removable = [&](std::size_t pair) {
    const auto c = static_cast<ChannelId>(2 * pair);
    return net.channel_alive(c) && !net.is_terminal(net.src(c)) &&
           !net.is_terminal(net.dst(c)) && link_removal_safe(net, c);
  };
  Exhaustion left(net.num_channels() / 2);
  std::size_t removed = 0;
  std::size_t attempts = 0;
  const std::size_t max_attempts = 50 * (count + 1);
  while (removed < count && attempts < max_attempts) {
    ++attempts;
    // Draw an alive switch-to-switch link (even channel of the pair).
    const auto c =
        static_cast<ChannelId>(rng.next_below(net.num_channels()) & ~1ull);
    if (net.is_terminal(net.src(c)) || net.is_terminal(net.dst(c))) continue;
    if (!net.channel_alive(c) || !link_removal_safe(net, c)) {
      if (left.exhausted(removable)) break;
      continue;
    }
    net.remove_link(c);
    left.removed();
    ++removed;
  }
  return removed;
}

std::size_t inject_switch_failures(Network& net, std::size_t count,
                                   Rng& rng) {
  const auto removable = [&](std::size_t i) {
    const auto v = static_cast<NodeId>(i);
    return net.node_alive(v) && !net.is_terminal(v) &&
           switch_removal_safe(net, v);
  };
  Exhaustion left(net.num_nodes());
  std::size_t removed = 0;
  std::size_t attempts = 0;
  const std::size_t max_attempts = 50 * (count + 1);
  while (removed < count && attempts < max_attempts) {
    ++attempts;
    const auto v = static_cast<NodeId>(rng.next_below(net.num_nodes()));
    if (net.is_terminal(v)) continue;
    if (!net.node_alive(v) || !switch_removal_safe(net, v)) {
      if (left.exhausted(removable)) break;
      continue;
    }
    const auto orphans = switch_orphans(net, v);
    net.remove_node(v);
    for (NodeId t : orphans) net.remove_node(t);
    left.removed();
    ++removed;
  }
  return removed;
}

void restore_link(Network& net, ChannelId c) {
  c &= ~1u;
  NUE_CHECK_MSG(c < net.num_channels(), "restore: channel " << c
                                                            << " out of range");
  NUE_CHECK_MSG(!net.channel_alive(c), "restore: link " << c << " is alive");
  NUE_CHECK_MSG(
      net.is_switch(net.src(c)) && net.is_switch(net.dst(c)),
      "restore: link " << c << " is a terminal access link (restore the "
                          "switch instead)");
  NUE_CHECK_MSG(net.node_alive(net.src(c)) && net.node_alive(net.dst(c)),
                "restore: link " << c << " has a dead endpoint");
  net.restore_link(c);
}

std::size_t restore_switch(Network& net, NodeId sw) {
  NUE_CHECK_MSG(sw < net.num_nodes(), "restore: node " << sw
                                                       << " out of range");
  NUE_CHECK_MSG(!net.node_alive(sw), "restore: switch " << sw << " is alive");
  NUE_CHECK_MSG(net.is_switch(sw), "restore: node " << sw << " is a terminal");
  net.restore_node(sw);
  std::size_t links = 0;
  for (ChannelId c = 0; c < net.num_channels(); c += 2) {
    if (net.channel_alive(c)) continue;
    NodeId other = kInvalidNode;
    if (net.src(c) == sw) {
      other = net.dst(c);
    } else if (net.dst(c) == sw) {
      other = net.src(c);
    } else {
      continue;
    }
    if (net.is_terminal(other)) {
      // The switch's own terminal coming back online with its access link.
      if (!net.node_alive(other)) net.restore_node(other);
    } else if (!net.node_alive(other)) {
      continue;  // neighbor switch still down; its repair revives the link
    }
    net.restore_link(c);
    ++links;
  }
  return links;
}

const char* fault_event_name(FaultEventKind k) {
  switch (k) {
    case FaultEventKind::kLinkDown: return "link-down";
    case FaultEventKind::kSwitchDown: return "switch-down";
    case FaultEventKind::kLinkRestore: return "link-restore";
    case FaultEventKind::kSwitchRestore: return "switch-restore";
  }
  return "?";
}

std::string FaultEvent::label() const {
  std::ostringstream os;
  os << fault_event_name(kind) << " " << id;
  return os.str();
}

void apply_fault_event(Network& net, const FaultEvent& e) {
  switch (e.kind) {
    case FaultEventKind::kLinkDown: {
      const ChannelId c = e.id & ~1u;
      NUE_CHECK_MSG(c < net.num_channels() && net.channel_alive(c),
                    "event: link " << c << " not alive");
      NUE_CHECK_MSG(net.is_switch(net.src(c)) && net.is_switch(net.dst(c)),
                    "event: link " << c << " is a terminal access link");
      NUE_CHECK_MSG(link_removal_safe(net, c),
                    "event: removing link " << c << " disconnects the fabric");
      net.remove_link(c);
      break;
    }
    case FaultEventKind::kSwitchDown: {
      const NodeId v = e.id;
      NUE_CHECK_MSG(v < net.num_nodes() && net.node_alive(v),
                    "event: switch " << v << " not alive");
      NUE_CHECK_MSG(net.is_switch(v), "event: node " << v << " is a terminal");
      NUE_CHECK_MSG(net.num_alive_switches() > 1, "event: last switch");
      NUE_CHECK_MSG(switch_removal_safe(net, v),
                    "event: removing switch " << v
                                              << " disconnects the fabric");
      const auto orphans = switch_orphans(net, v);
      net.remove_node(v);
      for (NodeId t : orphans) net.remove_node(t);
      NUE_CHECK_MSG(net.num_alive_terminals() >= 2,
                    "event: switch " << v
                                     << " leaves fewer than 2 terminals");
      break;
    }
    case FaultEventKind::kLinkRestore:
      restore_link(net, e.id);
      break;
    case FaultEventKind::kSwitchRestore:
      restore_switch(net, e.id);
      break;
  }
}

void write_fault_trace(std::ostream& os, const FaultTrace& t) {
  os << "nue-fault-trace v1\n";
  os << "generate " << t.generate << "\n";
  os << "seed " << t.seed << "\n";
  for (const FaultEvent& e : t.events) {
    os << fault_event_name(e.kind) << " " << e.id << "\n";
  }
}

FaultTrace read_fault_trace(std::istream& is) {
  FaultTrace t;
  std::string line;
  NUE_CHECK_MSG(std::getline(is, line) && line == "nue-fault-trace v1",
                "not a fault trace (bad header)");
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ss(line);
    std::string key;
    ss >> key;
    if (key == "generate") {
      ss >> t.generate;
    } else if (key == "seed") {
      ss >> t.seed;
    } else {
      bool matched = false;
      for (FaultEventKind k :
           {FaultEventKind::kLinkDown, FaultEventKind::kSwitchDown,
            FaultEventKind::kLinkRestore, FaultEventKind::kSwitchRestore}) {
        if (key == fault_event_name(k)) {
          FaultEvent e;
          e.kind = k;
          NUE_CHECK_MSG(static_cast<bool>(ss >> e.id),
                        "fault trace: bad event line '" << line << "'");
          t.events.push_back(e);
          matched = true;
          break;
        }
      }
      NUE_CHECK_MSG(matched, "fault trace: unknown key '" << key << "'");
    }
  }
  NUE_CHECK_MSG(!t.generate.empty(), "fault trace: missing generate line");
  return t;
}

FaultTrace load_fault_trace_file(const std::string& path) {
  std::ifstream is(path);
  NUE_CHECK_MSG(is.good(), "cannot open fault trace '" << path << "'");
  return read_fault_trace(is);
}

void save_fault_trace_file(const std::string& path, const FaultTrace& t) {
  std::ofstream os(path);
  NUE_CHECK_MSG(os.good(), "cannot write fault trace '" << path << "'");
  write_fault_trace(os, t);
}

FaultTrace draw_fault_trace(const Network& net, const std::string& generate,
                            std::uint64_t seed, std::size_t count,
                            double restore_fraction) {
  FaultTrace t;
  t.generate = generate;
  t.seed = seed;
  Rng rng(seed);
  Network scratch = net;
  // Elements this trace has taken down and not yet restored — restores are
  // only drawn from here, so the trace stays legal under restore_switch's
  // revive-everything semantics.
  std::vector<ChannelId> down_links;
  std::vector<NodeId> down_switches;
  std::size_t attempts = 0;
  const std::size_t max_attempts = 50 * (count + 1);
  while (t.events.size() < count && attempts < max_attempts) {
    ++attempts;
    FaultEvent e;
    const bool want_restore =
        (!down_links.empty() || !down_switches.empty()) &&
        rng.next_bool(restore_fraction);
    if (want_restore) {
      const std::size_t pick =
          rng.next_below(down_links.size() + down_switches.size());
      if (pick < down_links.size()) {
        e.kind = FaultEventKind::kLinkRestore;
        e.id = down_links[pick];
        // A link whose endpoint switch is still down cannot come back yet.
        if (!scratch.node_alive(scratch.src(e.id)) ||
            !scratch.node_alive(scratch.dst(e.id))) {
          continue;
        }
        down_links[pick] = down_links.back();
        down_links.pop_back();
      } else {
        const std::size_t si = pick - down_links.size();
        e.kind = FaultEventKind::kSwitchRestore;
        e.id = down_switches[si];
        down_switches[si] = down_switches.back();
        down_switches.pop_back();
        // restore_switch revives the switch's failed links wholesale; drop
        // them from the down list so they are not restored twice.
        std::vector<ChannelId> still_down;
        for (ChannelId c : down_links) {
          if (scratch.src(c) != e.id && scratch.dst(c) != e.id) {
            still_down.push_back(c);
          }
        }
        down_links.swap(still_down);
      }
    } else if (rng.next_bool(0.2)) {
      const auto v = static_cast<NodeId>(rng.next_below(scratch.num_nodes()));
      if (!scratch.node_alive(v) || scratch.is_terminal(v)) continue;
      if (scratch.num_alive_switches() <= 2) continue;
      if (scratch.num_alive_terminals() < switch_orphans(scratch, v).size() + 2)
        continue;
      if (!switch_removal_safe(scratch, v)) continue;
      e.kind = FaultEventKind::kSwitchDown;
      e.id = v;
      down_switches.push_back(v);
    } else {
      const auto c = static_cast<ChannelId>(
          rng.next_below(scratch.num_channels()) & ~1ull);
      if (!scratch.channel_alive(c)) continue;
      if (scratch.is_terminal(scratch.src(c)) ||
          scratch.is_terminal(scratch.dst(c))) {
        continue;
      }
      if (!link_removal_safe(scratch, c)) continue;
      e.kind = FaultEventKind::kLinkDown;
      e.id = c;
      down_links.push_back(c);
    }
    apply_fault_event(scratch, e);
    t.events.push_back(e);
  }
  return t;
}

}  // namespace nue
