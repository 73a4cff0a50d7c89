#include "routing/validate.hpp"

#include <algorithm>
#include <sstream>

#include "telemetry/telemetry.hpp"

namespace nue {

namespace {

using Adjacency = std::vector<std::vector<std::uint32_t>>;

void add_edges(Adjacency& adj, const std::vector<ColumnPass::Edge>& edges) {
  for (const auto& [from, to] : edges) adj[from].push_back(to);
}

/// The per-column checks behind validate_routing and validate_columns,
/// folded source by source so `detail` names the first failing route.
/// Each column's dependencies are appended to `cdg` when one is given:
/// its vertex space is channel * (num_vls + 1) + slot, slot num_vls the
/// overflow vertex, so an out-of-range VL can neither alias onto a legal
/// (channel, VL) dependency (fabricating a cycle no legal resource pair
/// has) nor hide behind one; vl_in_range reports the breakage itself.
ValidationReport check_columns(const Network& net, const RoutingResult& rr,
                               const std::vector<NodeId>& dests,
                               const std::vector<NodeId>& sources,
                               Adjacency* cdg) {
  ValidationReport rep;
  std::uint64_t total_len = 0;
  ColumnPass pass(net, rr, rr.num_vls() + 1, rr.num_vls());
  for (NodeId d : dests) {
    const std::uint32_t di = rr.dest_index(d);
    if (di == RoutingResult::kNoDest) {
      if (rep.connected && rep.detail.empty()) {
        std::ostringstream os;
        os << "table has no column for destination " << d;
        rep.detail = os.str();
      }
      rep.connected = false;
      continue;
    }
    pass.run(di, sources);
    if (cdg != nullptr) add_edges(*cdg, pass.edges());
    if (!net.node_alive(d)) {
      // Stale table: it still routes toward a destination the fabric has
      // lost. Its routes would fail anyway (the channels into a dead node
      // die with it) — flag the root cause instead.
      if (rep.live_elements) {
        std::ostringstream os;
        os << "table routes to removed destination " << d;
        rep.detail = os.str();
      }
      rep.live_elements = false;
      continue;
    }
    if (pass.vl_out_of_range()) rep.vl_in_range = false;
    for (NodeId s : sources) {
      if (s == d || !net.node_alive(s)) continue;
      const ColumnPass::End end = pass.end(s);
      if (end == ColumnPass::End::kDeadChannel) {
        if (rep.live_elements && rep.detail.empty()) {
          std::ostringstream os;
          os << "route " << s << " -> " << d << " crosses a dead channel";
          rep.detail = os.str();
        }
        rep.live_elements = false;
      }
      if (end != ColumnPass::End::kReached) {
        if (rep.connected && rep.detail.empty()) {
          std::ostringstream os;
          os << "no complete route " << s << " -> " << d;
          rep.detail = os.str();
        }
        rep.connected = false;
        continue;
      }
      const std::size_t len = pass.depth(s);
      ++rep.num_paths;
      total_len += len;
      rep.max_path_length = std::max(rep.max_path_length, len);
    }
  }
  if (rep.num_paths > 0) {
    rep.avg_path_length =
        static_cast<double>(total_len) / static_cast<double>(rep.num_paths);
  }
  return rep;
}

}  // namespace

ColumnPass::ColumnPass(const Network& net, const RoutingResult& rr,
                       std::uint32_t stride, std::uint32_t lane_limit)
    : net_(net),
      rr_(rr),
      stride_(stride),
      lane_limit_(lane_limit),
      classes_(rr.vl_mode() == VlMode::kPerSource ? stride : 1),
      state_(net.num_nodes() * classes_, kUnseen),
      depth_(net.num_nodes() * classes_, 0) {}

void ColumnPass::run(std::uint32_t di, const std::vector<NodeId>& sources) {
  for (const Visit& v : visits_) {
    state_[idx(v.node, lane_class(v.source))] = kUnseen;  // old column's class
  }
  visits_.clear();
  edges_.clear();
  vl_out_of_range_ = false;
  di_ = di;
  dest_ = rr_.destinations()[di];
  for (NodeId s : sources) {
    if (s != dest_ && net_.node_alive(s) &&
        state_[idx(s, lane_class(s))] == kUnseen) {
      walk(s);
    }
  }
}

void ColumnPass::walk(NodeId s) {
  const std::uint32_t k = lane_class(s);
  const std::size_t first = visits_.size();
  End end = End::kReached;
  std::uint32_t depth = 0;
  for (NodeId v = s; v != dest_;) {
    const std::size_t i = idx(v, k);
    if (state_[i] != kUnseen) {  // this walk's loop, or an earlier walk's end
      end = state_[i] == kOnWalk ? End::kLoop : state_[i];
      depth = depth_[i];
      break;
    }
    state_[i] = kOnWalk;
    visits_.push_back({v, s});
    const ChannelId c = rr_.next(v, di_);
    if (c == kInvalidChannel || net_.src(c) != v) {
      end = End::kHole;
      break;
    }
    if (!net_.channel_alive(c)) {
      end = End::kDeadChannel;
      break;
    }
    const std::uint8_t vl = rr_.vl(v, s, di_);
    if (vl >= rr_.num_vls()) vl_out_of_range_ = true;
    const NodeId u = net_.dst(c);
    if (u != dest_) {  // the dependency on u's hop, if u takes one
      const ChannelId c2 = rr_.next(u, di_);
      if (c2 != kInvalidChannel && net_.src(c2) == u &&
          net_.channel_alive(c2)) {
        edges_.emplace_back(c * stride_ + slot(vl),
                            c2 * stride_ + slot(rr_.vl(u, s, di_)));
      }
    }
    v = u;
  }
  for (std::size_t j = visits_.size(); j-- > first;) {
    const std::size_t i = idx(visits_[j].node, k);
    state_[i] = end;
    depth_[i] = ++depth;
  }
}

std::vector<std::vector<std::uint32_t>> induced_cdg(
    const Network& net, const RoutingResult& rr,
    const std::vector<NodeId>& sources) {
  Adjacency adj(net.num_channels() * (rr.num_vls() + 1));
  check_columns(net, rr, rr.destinations(), sources, &adj);
  return adj;
}

bool is_acyclic(const std::vector<std::vector<std::uint32_t>>& adj,
                std::vector<std::uint32_t>* topo_pos) {
  const std::size_t n = adj.size();
  std::vector<std::uint32_t> indeg(n, 0);
  for (const auto& out : adj) {
    for (std::uint32_t w : out) ++indeg[w];
  }
  std::vector<std::uint32_t> queue;
  queue.reserve(n);
  for (std::uint32_t v = 0; v < n; ++v) {
    if (indeg[v] == 0) queue.push_back(v);
  }
  std::size_t head = 0;
  while (head < queue.size()) {
    const std::uint32_t v = queue[head];
    if (topo_pos != nullptr) (*topo_pos)[v] = static_cast<std::uint32_t>(head);
    ++head;
    for (std::uint32_t w : adj[v]) {
      if (--indeg[w] == 0) queue.push_back(w);
    }
  }
  return head == n;
}

ValidationReport validate_routing(const Network& net, const RoutingResult& rr,
                                  std::vector<NodeId> sources) {
  TELEM_SPAN("validate.routing");
  if (sources.empty()) sources = net.terminals();
  Adjacency adj(net.num_channels() * (rr.num_vls() + 1));
  ValidationReport rep =
      check_columns(net, rr, rr.destinations(), sources, &adj);
  rep.deadlock_free = is_acyclic(adj);
  if (!rep.deadlock_free && rep.detail.empty()) {
    rep.detail = "induced CDG has a cycle";
  }
  return rep;
}

ValidationReport validate_columns(const Network& net, const RoutingResult& rr,
                                  const std::vector<NodeId>& dests,
                                  std::vector<NodeId> sources) {
  TELEM_SPAN("validate.columns");
  if (sources.empty()) sources = net.terminals();
  return check_columns(net, rr, dests, sources, nullptr);
}

std::vector<NodeId> affected_destinations(const Network& net,
                                          const RoutingResult& rr) {
  std::vector<NodeId> affected;
  for (std::size_t di = 0; di < rr.destinations().size(); ++di) {
    const NodeId d = rr.destinations()[di];
    if (!net.node_alive(d)) {
      affected.push_back(d);
      continue;
    }
    for (NodeId v = 0; v < net.num_nodes(); ++v) {
      if (v == d || !net.node_alive(v)) continue;
      const ChannelId c = rr.next(v, static_cast<std::uint32_t>(di));
      if (c == kInvalidChannel || !net.channel_alive(c) ||
          !net.node_alive(net.dst(c))) {
        affected.push_back(d);
        break;
      }
    }
  }
  return affected;
}

bool union_cdg_acyclic(const Network& net, const RoutingResult& old_rr,
                       const RoutingResult& new_rr,
                       std::vector<NodeId> sources) {
  TELEM_SPAN("validate.union_gate");
  // Both tables share one vertex space; slot stride-1 is the common
  // overflow vertex for out-of-range VLs (see induced_cdg).
  const std::uint32_t stride =
      std::max(old_rr.num_vls(), new_rr.num_vls()) + 1;
  Adjacency adj(net.num_channels() * stride);
  std::vector<NodeId> alive;
  for (const RoutingResult* rr : {&old_rr, &new_rr}) {
    const bool per_source = rr->vl_mode() == VlMode::kPerSource;
    if (per_source && sources.empty()) sources = net.terminals();
    if (!per_source && alive.empty()) alive = net.alive_nodes();
    ColumnPass pass(net, *rr, stride, rr->num_vls());
    for (std::size_t di = 0; di < rr->destinations().size(); ++di) {
      pass.run(static_cast<std::uint32_t>(di), per_source ? sources : alive);
      add_edges(adj, pass.edges());
    }
  }
  return is_acyclic(adj);
}

}  // namespace nue
