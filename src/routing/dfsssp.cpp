#include "routing/dfsssp.hpp"

#include <algorithm>
#include <memory>

#include "routing/cdg_index.hpp"
#include "routing/layer_cdg.hpp"
#include "routing/sssp_engine.hpp"
#include "telemetry/telemetry.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace nue {

namespace {

/// Compute the balanced per-destination trees (a serial sweep, see
/// build_balanced_trees) and fill the next tables. The table fill writes
/// disjoint destination columns, so it is parallel and exact at any
/// thread count.
std::vector<DestTree> build_trees(const Network& net,
                                  const std::vector<NodeId>& dests,
                                  RoutingResult& rr, std::uint32_t threads) {
  TELEM_SPAN("dfsssp.trees");
  std::vector<double> weights(net.num_channels(), 1.0);
  std::vector<DestTree> trees = build_balanced_trees(net, dests, weights);
  parallel_for(resolve_threads(threads), dests.size(), [&](std::size_t di) {
    const DestTree& t = trees[di];
    for (NodeId v = 0; v < net.num_nodes(); ++v) {
      if (t.next[v] != kInvalidChannel) {
        rr.set_next(v, static_cast<std::uint32_t>(di), t.next[v]);
      }
    }
  });
  return trees;
}

/// True if the dependency pair (e_in, e_out) involves a terminal channel;
/// such pairs cannot participate in cycles and are excluded, matching the
/// paper's treatment of terminal access links.
bool touches_terminal(const Network& net, ChannelId a, ChannelId b) {
  return net.is_terminal(net.src(a)) || net.is_terminal(net.dst(a)) ||
         net.is_terminal(net.src(b)) || net.is_terminal(net.dst(b));
}

class DfssspSolver {
 public:
  DfssspSolver(const Network& net, const std::vector<NodeId>& dests,
               const DfssspOptions& opt, RoutingResult& rr)
      : net_(net), dests_(dests), opt_(opt), rr_(rr), idx_(net) {
    trees_ = build_trees(net, dests, rr, opt.num_threads);
    hard_cap_ = opt.allow_exceed ? 64u : opt.max_vls;
  }

  DfssspStats solve() {
    layers_.emplace_back(std::make_unique<LayerCdg>(idx_));
    {
      TELEM_SPAN("dfsssp.seed");
      seed_layer0();
    }
    {
      TELEM_SPAN("dfsssp.break_cycles");
      for (std::uint32_t l = 0; l < layers_.size(); ++l) break_cycles(l);
    }
    DfssspStats st;
    st.vls_needed = static_cast<std::uint32_t>(layers_.size());
    st.paths_moved = moved_;
    {
      TELEM_SPAN("dfsssp.balance");
      balance();
    }
    if (telemetry::enabled()) {
      telemetry::counter("dfsssp.paths_moved").add_always(moved_);
    }
    return st;
  }

 private:
  /// All paths start in layer 0; seed its dependency counts from the tree
  /// structure: every source crossing channel e into node v continues via
  /// next(v), so the pair (e, next(v)) carries usage(e) paths. The usage
  /// vectors are pure per-tree reductions and run concurrently in blocks;
  /// the dependency counts are added serially in destination order.
  void seed_layer0() {
    const unsigned agents = resolve_threads(opt_.num_threads);
    const std::size_t block =
        std::max<std::size_t>(static_cast<std::size_t>(agents) * 4, 1);
    std::vector<std::vector<std::uint32_t>> usages(
        std::min(block, dests_.size()));
    for (std::size_t base = 0; base < dests_.size(); base += block) {
      const std::size_t count = std::min(block, dests_.size() - base);
      parallel_for(agents, count, [&](std::size_t i) {
        usages[i] = tree_channel_usage(net_, trees_[base + i]);
      });
      for (std::size_t i = 0; i < count; ++i) {
        seed_one_tree(trees_[base + i], usages[i]);
      }
    }
  }

  void seed_one_tree(const DestTree& t,
                     const std::vector<std::uint32_t>& usage) {
    for (NodeId w = 0; w < net_.num_nodes(); ++w) {
      const ChannelId e = t.next[w];
      if (e == kInvalidChannel || usage[e] == 0) continue;
      const NodeId v = net_.dst(e);
      if (v == t.dest) continue;
      const ChannelId out = t.next[v];
      NUE_DCHECK(out != kInvalidChannel);
      if (touches_terminal(net_, e, out)) continue;
      const auto eid = idx_.edge_id(e, out);
      NUE_DCHECK(eid != CdgIndex::kNoEdge);
      layers_[0]->add(eid, usage[e]);
    }
  }

  void break_cycles(std::uint32_t layer) {
    while (true) {
      const auto cycle = layers_[layer]->find_cycle();
      if (cycle.empty()) return;
      // Cut the cheapest edge of the cycle by moving all its paths up.
      CdgIndex::EdgeId victim = cycle[0];
      for (const auto e : cycle) {
        if (layers_[layer]->count(e) < layers_[layer]->count(victim)) {
          victim = e;
        }
      }
      while (layers_[layer]->count(victim) > 0) {
        move_one_path(layer, victim);
      }
    }
  }

  /// Locate one (source terminal, destination) path assigned to `layer`
  /// whose route uses dense edge `eid`, and move it to layer + 1.
  void move_one_path(std::uint32_t layer, CdgIndex::EdgeId eid) {
    // Recover (c1 -> c2) from the dense id: c1 owns the CSR row.
    const ChannelId c2 = idx_.edge_head(eid);
    ChannelId c1 = kInvalidChannel;
    {
      // Binary search the row containing eid.
      ChannelId lo = 0, hi = static_cast<ChannelId>(net_.num_channels());
      while (lo + 1 < hi) {
        const ChannelId mid = (lo + hi) / 2;
        if (idx_.first_edge(mid) <= eid) {
          lo = mid;
        } else {
          hi = mid;
        }
      }
      c1 = lo;
    }
    const NodeId w = net_.src(c1);
    for (std::size_t di = 0; di < dests_.size(); ++di) {
      const auto& t = trees_[di];
      if (t.next[w] != c1) continue;
      const NodeId v = net_.dst(c1);
      if (v == t.dest || t.next[v] != c2) continue;
      // Find a terminal in w's subtree still assigned to `layer`.
      const NodeId s = find_layer_terminal(t, w, static_cast<std::uint32_t>(di),
                                           layer);
      if (s == kInvalidNode) continue;
      move_path(s, static_cast<std::uint32_t>(di), layer, layer + 1);
      return;
    }
    NUE_CHECK_MSG(false, "dependency count without a matching path");
  }

  /// BFS down the in-tree from `start` looking for a terminal whose path
  /// toward the tree's destination is assigned to `layer`.
  NodeId find_layer_terminal(const DestTree& t, NodeId start,
                             std::uint32_t di, std::uint32_t layer) {
    bfs_.clear();
    bfs_.push_back(start);
    for (std::size_t i = 0; i < bfs_.size(); ++i) {
      const NodeId x = bfs_[i];
      if (net_.is_terminal(x) && x != t.dest &&
          rr_.vl(x, x, di) == layer) {
        return x;
      }
      for (ChannelId c : net_.out(x)) {
        const NodeId y = net_.dst(c);
        if (t.next[y] == reverse(c)) bfs_.push_back(y);
      }
    }
    return kInvalidNode;
  }

  /// Move path (s, di) out of layer `from` into the first higher layer
  /// whose CDG stays acyclic (first-fit packing keeps the VL demand close
  /// to the original engine's; always-next-layer re-clusters the evicted
  /// paths and inflates the demand).
  void move_path(NodeId s, std::uint32_t di, std::uint32_t from,
                 std::uint32_t first_candidate) {
    ++moved_;
    for (std::uint32_t to = first_candidate;; ++to) {
      if (to >= hard_cap_) {
        throw RoutingFailure("DFSSSP exceeds the virtual-lane limit of " +
                             std::to_string(hard_cap_));
      }
      while (layers_.size() <= to) {
        layers_.emplace_back(std::make_unique<LayerCdg>(idx_));
      }
      // Tentatively place into `to`, rolling back on a cycle.
      std::vector<CdgIndex::EdgeId> added;
      bool ok = true;
      for_each_pair(s, di, [&](ChannelId a, ChannelId b) {
        if (!ok) return;
        const auto eid = idx_.edge_id(a, b);
        NUE_DCHECK(eid != CdgIndex::kNoEdge);
        if (layers_[to]->count(eid) == 0 &&
            layers_[to]->creates_cycle(a, b)) {
          ok = false;
          return;
        }
        layers_[to]->add(eid);
        added.push_back(eid);
      });
      if (!ok) {
        for (const auto eid : added) layers_[to]->remove(eid);
        continue;
      }
      rr_.set_source_vl(s, di, static_cast<std::uint8_t>(to));
      for_each_pair(s, di, [&](ChannelId a, ChannelId b) {
        layers_[from]->remove(idx_.edge_id(a, b));
      });
      return;
    }
  }

  template <typename Cb>
  void for_each_pair(NodeId s, std::uint32_t di, Cb&& cb) {
    const auto& t = trees_[di];
    ChannelId prev = kInvalidChannel;
    NodeId at = s;
    while (at != t.dest) {
      const ChannelId c = t.next[at];
      if (prev != kInvalidChannel && !touches_terminal(net_, prev, c)) {
        cb(prev, c);
      }
      prev = c;
      at = net_.dst(c);
    }
  }

  /// Spread paths from the heaviest layers into unused layers (the
  /// "DFSSSP uses all available VLs for balancing" behaviour [5, 8]).
  void balance() {
    if (layers_.size() >= opt_.max_vls) return;
    const auto terminals = net_.terminals();
    const std::uint32_t first_new = static_cast<std::uint32_t>(layers_.size());
    for (std::uint32_t target = first_new; target < opt_.max_vls; ++target) {
      layers_.emplace_back(std::make_unique<LayerCdg>(idx_));
      // Round-robin over destinations: move whole per-destination path
      // groups out of layer (target % first_new) while they stay acyclic.
      const std::uint32_t source_layer = target % first_new;
      std::size_t budget = dests_.size() / opt_.max_vls + 1;
      for (std::size_t di = target; di < dests_.size() && budget > 0;
           di += opt_.max_vls, --budget) {
        try_move_dest_group(static_cast<std::uint32_t>(di), source_layer,
                            target, terminals);
      }
    }
  }

  /// Move every path of destination di currently in `from` to `to` if the
  /// target layer stays acyclic; otherwise leave everything in place.
  void try_move_dest_group(std::uint32_t di, std::uint32_t from,
                           std::uint32_t to,
                           const std::vector<NodeId>& terminals) {
    // Collect the movable sources.
    std::vector<NodeId> movable;
    for (NodeId s : terminals) {
      if (s != dests_[di] && rr_.vl(s, s, di) == from) movable.push_back(s);
    }
    if (movable.empty()) return;
    // Tentatively add all their pairs to `to`, checking incrementally.
    std::vector<CdgIndex::EdgeId> added;
    bool ok = true;
    for (NodeId s : movable) {
      for_each_pair(s, di, [&](ChannelId a, ChannelId b) {
        if (!ok) return;
        const auto eid = idx_.edge_id(a, b);
        if (layers_[to]->count(eid) == 0 &&
            layers_[to]->creates_cycle(a, b)) {
          ok = false;
          return;
        }
        layers_[to]->add(eid);
        added.push_back(eid);
      });
      if (!ok) break;
    }
    if (!ok) {
      for (const auto eid : added) layers_[to]->remove(eid);
      return;
    }
    // Commit: flip VLs and remove from the old layer.
    for (NodeId s : movable) {
      rr_.set_source_vl(s, di, static_cast<std::uint8_t>(to));
      for_each_pair(s, di, [&](ChannelId a, ChannelId b) {
        layers_[from]->remove(idx_.edge_id(a, b));
      });
    }
  }

  const Network& net_;
  const std::vector<NodeId>& dests_;
  DfssspOptions opt_;
  RoutingResult& rr_;
  CdgIndex idx_;
  std::vector<DestTree> trees_;
  std::vector<std::unique_ptr<LayerCdg>> layers_;
  std::vector<NodeId> bfs_;
  std::size_t moved_ = 0;
  std::uint32_t hard_cap_ = 8;
};

}  // namespace

RoutingResult route_minhop(const Network& net,
                           const std::vector<NodeId>& dests) {
  RoutingResult rr(net.num_nodes(), dests, 1, VlMode::kPerDest);
  build_trees(net, dests, rr, /*threads=*/0);
  return rr;
}

RoutingResult route_dfsssp(const Network& net,
                           const std::vector<NodeId>& dests,
                           const DfssspOptions& opt, DfssspStats* stats) {
  TELEM_SPAN("dfsssp.route");
  // VLs are per (source, destination) path; allocate the table with the cap
  // (allow_exceed may grow past it, clamped to 64 layers for the VL field).
  const std::uint32_t table_vls = opt.allow_exceed ? 64 : opt.max_vls;
  RoutingResult rr(net.num_nodes(), dests, table_vls, VlMode::kPerSource);
  DfssspSolver solver(net, dests, opt, rr);
  const DfssspStats st = solver.solve();
  if (stats) *stats = st;
  return rr;
}

}  // namespace nue
