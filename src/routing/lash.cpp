#include "routing/lash.hpp"

#include <algorithm>
#include <memory>

#include "routing/cdg_index.hpp"
#include "routing/layer_cdg.hpp"
#include "routing/sssp_engine.hpp"
#include "telemetry/telemetry.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace nue {

RoutingResult route_lash(const Network& net, const std::vector<NodeId>& dests,
                         const LashOptions& opt, LashStats* stats) {
  TELEM_SPAN("lash.route");
  const std::uint32_t hard_cap = opt.allow_exceed ? 64 : opt.max_vls;
  RoutingResult rr(net.num_nodes(), dests, hard_cap, VlMode::kPerSource);
  const unsigned agents = resolve_threads(opt.num_threads);

  // Balanced shortest-path tree per destination (tables per destination
  // node; switch-pair layering below reuses the destination switch's tree).
  std::vector<double> weights(net.num_channels(), 1.0);
  const auto switches = net.switches();
  std::vector<std::uint32_t> sw_tree_of(net.num_nodes(),
                                        static_cast<std::uint32_t>(-1));
  std::vector<DestTree> sw_trees =
      build_balanced_trees(net, switches, weights);
  for (std::size_t i = 0; i < switches.size(); ++i) {
    sw_tree_of[switches[i]] = static_cast<std::uint32_t>(i);
  }

  // Fill destination tables: route to the destination's switch along the
  // switch tree, then take the access link. For switch destinations use
  // their own tree directly. Destinations own disjoint table columns, so
  // the fill parallelizes exactly.
  parallel_for(agents, dests.size(), [&](std::size_t di) {
    const NodeId d = dests[di];
    const NodeId dsw = net.is_terminal(d) ? net.terminal_switch(d) : d;
    const auto& tree = sw_trees[sw_tree_of[dsw]];
    for (NodeId v = 0; v < net.num_nodes(); ++v) {
      if (v == d || !net.node_alive(v)) continue;
      if (v == dsw) {
        // d must be a terminal here: deliver over the access link.
        for (ChannelId c : net.out(v)) {
          if (net.dst(c) == d) {
            rr.set_next(v, static_cast<std::uint32_t>(di), c);
            break;
          }
        }
      } else {
        rr.set_next(v, static_cast<std::uint32_t>(di), tree.next[v]);
      }
    }
    // Terminal sources attached to dsw still need their access hop.
    for (ChannelId c : net.out(dsw)) {
      const NodeId t = net.dst(c);
      if (net.is_terminal(t) && t != d) {
        rr.set_next(t, static_cast<std::uint32_t>(di), reverse(c));
      }
    }
  });

  // Layer assignment per (source switch, destination switch) pair,
  // shortest paths first. Path lengths are independent tree walks; the
  // pair list is laid out by (source index, destination index) so the
  // stable sort below sees the same sequence at any thread count.
  struct Pair {
    NodeId src_sw, dst_sw;
    std::uint32_t len;
  };
  const std::size_t nsw = switches.size();
  std::vector<Pair> pairs(nsw * (nsw - 1));
  parallel_for(agents, nsw, [&](std::size_t si) {
    const NodeId s = switches[si];
    std::size_t slot = si * (nsw - 1);
    for (std::size_t dj = 0; dj < nsw; ++dj) {
      const NodeId d = switches[dj];
      if (s == d) continue;
      const auto& tree = sw_trees[sw_tree_of[d]];
      std::uint32_t len = 0;
      for (NodeId at = s; at != d; at = net.dst(tree.next[at])) ++len;
      pairs[slot++] = {s, d, len};
    }
  });
  std::stable_sort(pairs.begin(), pairs.end(),
                   [](const Pair& a, const Pair& b) { return a.len < b.len; });

  CdgIndex idx(net);
  std::vector<std::unique_ptr<LayerCdg>> layers;
  layers.emplace_back(std::make_unique<LayerCdg>(idx));
  // pair_layer[src_sw * N + dst_sw]
  std::vector<std::uint8_t> pair_layer(net.num_nodes() * net.num_nodes(), 0);

  struct PathEdge {
    CdgIndex::EdgeId id;
    ChannelId tail, head;
  };
  std::vector<PathEdge> path_edges;
  {
    TELEM_SPAN("lash.layering");
    for (const Pair& p : pairs) {
      const auto& tree = sw_trees[sw_tree_of[p.dst_sw]];
      path_edges.clear();
      ChannelId prev = kInvalidChannel;
      for (NodeId at = p.src_sw; at != p.dst_sw;) {
        const ChannelId c = tree.next[at];
        if (prev != kInvalidChannel) {
          const auto eid = idx.edge_id(prev, c);
          NUE_DCHECK(eid != CdgIndex::kNoEdge);
          path_edges.push_back({eid, prev, c});
        }
        prev = c;
        at = net.dst(c);
      }
      bool placed = false;
      for (std::uint32_t l = 0; !placed; ++l) {
        if (l == layers.size()) {
          if (l >= hard_cap) {
            throw RoutingFailure("LASH exceeds the virtual-lane limit");
          }
          layers.emplace_back(std::make_unique<LayerCdg>(idx));
        }
        LayerCdg& cdg = *layers[l];
        // Tentatively add the path's dependencies with incremental checks.
        std::size_t committed = 0;
        bool ok = true;
        for (const auto& pe : path_edges) {
          if (cdg.count(pe.id) == 0 && cdg.creates_cycle(pe.tail, pe.head)) {
            ok = false;
            break;
          }
          cdg.add(pe.id);
          ++committed;
        }
        if (ok) {
          pair_layer[static_cast<std::size_t>(p.src_sw) * net.num_nodes() +
                     p.dst_sw] = static_cast<std::uint8_t>(l);
          placed = true;
        } else {
          for (std::size_t i = 0; i < committed; ++i) {
            cdg.remove(path_edges[i].id);
          }
        }
      }
    }
  }

  // VL per (source, destination): the switch pair's layer. Pure reads of
  // pair_layer into disjoint columns — exact at any thread count.
  parallel_for(agents, dests.size(), [&](std::size_t di) {
    const NodeId d = dests[di];
    const NodeId dsw = net.is_terminal(d) ? net.terminal_switch(d) : d;
    for (NodeId s = 0; s < net.num_nodes(); ++s) {
      if (!net.node_alive(s) || s == d) continue;
      const NodeId ssw =
          net.is_terminal(s) ? net.terminal_switch(s) : s;
      const std::uint8_t vl =
          ssw == dsw ? 0
                     : pair_layer[static_cast<std::size_t>(ssw) *
                                      net.num_nodes() +
                                  dsw];
      rr.set_source_vl(s, static_cast<std::uint32_t>(di), vl);
    }
  });

  if (stats) stats->vls_needed = static_cast<std::uint32_t>(layers.size());
  return rr;
}

}  // namespace nue
