#include "routing/validate.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <string>

#include "telemetry/telemetry.hpp"
#include "util/thread_pool.hpp"

namespace nue {

namespace {

using Adjacency = std::vector<std::vector<std::uint32_t>>;

/// A set of (channel, slot) -> (channel, slot) dependencies, each stored
/// once, in the vertex space channel * stride + slot. The head channel c2
/// of a dependency leaves dst(c) of its tail channel c, so the pair is
/// numbered densely by pair(c) + port(c2), where port(c2) is c2's position
/// in out(src(c2)); its bit is ((pair(c) + port(c2)) * stride + a) *
/// stride + b for slots a and b. Concurrent chunks may insert at once: a
/// bit is only ever set (a relaxed atomic OR), and a set union does not
/// depend on the order its members arrive in.
class DependencySet {
 public:
  DependencySet(const Network& net, std::uint32_t stride)
      : net_(net),
        stride_(stride),
        pair_begin_(net.num_channels() + 1, 0),
        tail_bit_(net.num_channels() * stride, 0),
        head_bit_(net.num_channels() * stride, 0) {
    const std::size_t nc = net.num_channels();
    const std::size_t block = std::size_t{stride} * stride;
    for (ChannelId c = 0; c < nc; ++c) {
      pair_begin_[c + 1] = pair_begin_[c] +
                           (net.channel_alive(c) ? net.degree(net.dst(c)) : 0);
      for (std::uint32_t a = 0; a < stride; ++a) {
        tail_bit_[c * stride + a] = pair_begin_[c] * block + a * stride;
      }
    }
    for (NodeId v = 0; v < net.num_nodes(); ++v) {
      const auto out = net.out(v);
      for (std::size_t p = 0; p < out.size(); ++p) {
        for (std::uint32_t b = 0; b < stride; ++b) {
          head_bit_[out[p] * stride + b] = p * block + b;
        }
      }
    }
    words_ = std::vector<std::atomic<std::uint64_t>>(
        (pair_begin_[nc] * block + 63) / 64);
  }

  void insert(const std::vector<ColumnPass::Edge>& edges) {
    for (const auto& [from, to] : edges) {
      const std::size_t bit = tail_bit_[from] + head_bit_[to];
      std::atomic<std::uint64_t>& word = words_[bit >> 6];
      const std::uint64_t mask = std::uint64_t{1} << (bit & 63);
      if ((word.load(std::memory_order_relaxed) & mask) == 0) {
        word.fetch_or(mask, std::memory_order_relaxed);
      }
    }
  }

  /// The set as adjacency lists over every vertex, each row ascending.
  Adjacency adjacency() const {
    Adjacency adj(net_.num_channels() * stride_);
    const std::size_t block = std::size_t{stride_} * stride_;
    ChannelId c = 0;
    for (std::size_t w = 0; w < words_.size(); ++w) {
      for (std::uint64_t bits = words_[w].load(std::memory_order_relaxed);
           bits != 0; bits &= bits - 1) {
        const std::size_t bit = w * 64 + std::countr_zero(bits);
        const std::size_t pair = bit / block;
        while (pair_begin_[c + 1] <= pair) ++c;  // bits ascend, so does c
        const ChannelId c2 = net_.out(net_.dst(c))[pair - pair_begin_[c]];
        const auto a = static_cast<std::uint32_t>(bit % block / stride_);
        const auto b = static_cast<std::uint32_t>(bit % stride_);
        adj[c * stride_ + a].push_back(c2 * stride_ + b);
      }
    }
    for (auto& row : adj) std::sort(row.begin(), row.end());
    return adj;
  }

 private:
  const Network& net_;
  std::uint32_t stride_;
  std::vector<std::size_t> pair_begin_;  // per channel, into the pair space
  std::vector<std::size_t> tail_bit_;    // per vertex: pair(c) and slot a
  std::vector<std::size_t> head_bit_;    // per vertex: port(c2) and slot b
  std::vector<std::atomic<std::uint64_t>> words_;
};

/// What one destination column contributes to a ValidationReport.
struct ColumnOutcome {
  enum class Kind : std::uint8_t { kWalked, kNoColumn, kRemoved };
  Kind kind = Kind::kWalked;
  bool vl_out_of_range = false;
  NodeId first_unreached = kInvalidNode;  // first source not arriving
  NodeId first_dead = kInvalidNode;  // first source crossing a dead channel
  std::size_t num_paths = 0;
  std::uint64_t total_len = 0;
  std::size_t max_len = 0;
};

ColumnOutcome check_column(const Network& net, const RoutingResult& rr,
                           ColumnPass& pass, NodeId d,
                           const std::vector<NodeId>& sources,
                           DependencySet* cdg) {
  ColumnOutcome col;
  const std::uint32_t di = rr.dest_index(d);
  if (di == RoutingResult::kNoDest) {
    col.kind = ColumnOutcome::Kind::kNoColumn;
    return col;
  }
  pass.run(di, sources);
  if (cdg != nullptr) cdg->insert(pass.edges());
  if (!net.node_alive(d)) {
    col.kind = ColumnOutcome::Kind::kRemoved;
    return col;
  }
  col.vl_out_of_range = pass.vl_out_of_range();
  for (NodeId s : sources) {
    if (s == d || !net.node_alive(s)) continue;
    const ColumnPass::End end = pass.end(s);
    if (end == ColumnPass::End::kDeadChannel && col.first_dead == kInvalidNode) {
      col.first_dead = s;
    }
    if (end != ColumnPass::End::kReached) {
      if (col.first_unreached == kInvalidNode) col.first_unreached = s;
      continue;
    }
    const std::size_t len = pass.depth(s);
    ++col.num_paths;
    col.total_len += len;
    col.max_len = std::max(col.max_len, len);
  }
  return col;
}

/// The per-column checks behind validate_routing and validate_columns.
/// Columns are checked in contiguous chunks across the pool, then folded
/// in column order, so `detail` names the first failing route exactly as
/// a serial source-by-source loop would. Each column's dependencies go
/// into `cdg` when one is given: its vertex space is channel * (num_vls +
/// 1) + slot, slot num_vls the overflow vertex, so an out-of-range VL can
/// neither alias onto a legal (channel, VL) dependency (fabricating a
/// cycle no legal resource pair has) nor hide behind one; vl_in_range
/// reports the breakage itself.
ValidationReport check_columns(const Network& net, const RoutingResult& rr,
                               const std::vector<NodeId>& dests,
                               const std::vector<NodeId>& sources,
                               DependencySet* cdg) {
  std::vector<ColumnOutcome> cols(dests.size());
  parallel_for_chunks(
      resolve_threads(0), dests.size(), chunk_grain(net.num_nodes()),
      [&](std::size_t begin, std::size_t end) {
        ColumnPass pass(net, rr, rr.num_vls() + 1, rr.num_vls());
        for (std::size_t i = begin; i < end; ++i) {
          cols[i] = check_column(net, rr, pass, dests[i], sources, cdg);
        }
      });

  ValidationReport rep;
  std::uint64_t total_len = 0;
  for (std::size_t i = 0; i < dests.size(); ++i) {
    const NodeId d = dests[i];
    const ColumnOutcome& col = cols[i];
    if (col.kind == ColumnOutcome::Kind::kNoColumn) {
      if (rep.connected && rep.detail.empty()) {
        rep.detail =
            "table has no column for destination " + std::to_string(d);
      }
      rep.connected = false;
      continue;
    }
    if (col.kind == ColumnOutcome::Kind::kRemoved) {
      // Stale table: it still routes toward a destination the fabric has
      // lost. Its routes would fail anyway (the channels into a dead node
      // die with it) — flag the root cause instead.
      if (rep.live_elements) {
        rep.detail = "table routes to removed destination " + std::to_string(d);
      }
      rep.live_elements = false;
      continue;
    }
    if (col.vl_out_of_range) rep.vl_in_range = false;
    // Per source, a dead-channel check and then an arrival check. Only the
    // first failure of each kind can change the report, and a route that
    // crosses a dead channel does not arrive: so the first unarrived route
    // comes first, led by its own dead-channel check when it is also the
    // first dead-channel route. Both steps are idempotent.
    const auto dead_channel = [&](NodeId s) {
      if (rep.live_elements && rep.detail.empty()) {
        rep.detail = "route " + std::to_string(s) + " -> " +
                     std::to_string(d) + " crosses a dead channel";
      }
      rep.live_elements = false;
    };
    const auto unreached = [&](NodeId s) {
      if (rep.connected && rep.detail.empty()) {
        rep.detail = "no complete route " + std::to_string(s) + " -> " +
                     std::to_string(d);
      }
      rep.connected = false;
    };
    if (col.first_dead != kInvalidNode && col.first_dead == col.first_unreached) {
      dead_channel(col.first_dead);
    }
    if (col.first_unreached != kInvalidNode) unreached(col.first_unreached);
    if (col.first_dead != kInvalidNode) dead_channel(col.first_dead);
    rep.num_paths += col.num_paths;
    total_len += col.total_len;
    rep.max_path_length = std::max(rep.max_path_length, col.max_len);
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
      classes_(rr.vl_mode() == VlMode::kPerSource && stride != 0 ? stride
                                                                  : 1),
      state_(net.num_nodes() * classes_, kUnseen),
      depth_(net.num_nodes() * classes_, 0),
      load_(net.num_nodes() * classes_, 0) {
  visits_.reserve(state_.size());  // a run settles each slot at most once
}

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
    const NodeId u = net_.dst(c);
    if (stride_ != 0) {  // lanes and dependencies, unless routes only
      const std::uint8_t vl = rr_.vl(v, s, di_);
      if (vl >= rr_.num_vls()) vl_out_of_range_ = true;
      const ChannelId c2 = u == dest_ ? kInvalidChannel : rr_.next(u, di_);
      if (c2 != kInvalidChannel && net_.src(c2) == u &&
          net_.channel_alive(c2)) {  // the dependency on u's hop
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

void ColumnPass::count_loads(const std::vector<NodeId>& sources) {
  for (const Visit& v : visits_) load_[idx(v.node, lane_class(v.source))] = 0;
  for (NodeId s : sources) {
    if (s != dest_ && net_.node_alive(s)) ++load_[idx(s, lane_class(s))];
  }
  for (std::size_t end = visits_.size(); end > 0;) {
    const NodeId s = visits_[end - 1].source;
    std::size_t begin = end - 1;
    while (begin > 0 && visits_[begin - 1].source == s) --begin;
    const std::uint32_t k = lane_class(s);
    for (std::size_t j = begin; j < end; ++j) {
      const std::size_t i = idx(visits_[j].node, k);
      if (state_[i] != End::kReached) continue;
      const NodeId u = net_.dst(rr_.next(visits_[j].node, di_));
      if (u != dest_) load_[idx(u, k)] += load_[i];
    }
    end = begin;
  }
}

std::vector<std::vector<std::uint32_t>> induced_cdg(
    const Network& net, const RoutingResult& rr,
    const std::vector<NodeId>& sources) {
  DependencySet cdg(net, rr.num_vls() + 1);
  check_columns(net, rr, rr.destinations(), sources, &cdg);
  return cdg.adjacency();
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
  DependencySet cdg(net, rr.num_vls() + 1);
  ValidationReport rep =
      check_columns(net, rr, rr.destinations(), sources, &cdg);
  rep.deadlock_free = is_acyclic(cdg.adjacency());
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
  DependencySet deps(net, stride);
  std::vector<NodeId> alive;
  for (const RoutingResult* rr : {&old_rr, &new_rr}) {
    const bool per_source = rr->vl_mode() == VlMode::kPerSource;
    if (per_source && sources.empty()) sources = net.terminals();
    if (!per_source && alive.empty()) alive = net.alive_nodes();
    ColumnPass pass(net, *rr, stride, rr->num_vls());
    for (std::size_t di = 0; di < rr->destinations().size(); ++di) {
      pass.run(static_cast<std::uint32_t>(di), per_source ? sources : alive);
      deps.insert(pass.edges());
    }
  }
  return is_acyclic(deps.adjacency());
}

}  // namespace nue
