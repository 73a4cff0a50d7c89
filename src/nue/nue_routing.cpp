#include "nue/nue_routing.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <unordered_map>

#include "graph/algorithms.hpp"
#include "heap/fibonacci_heap.hpp"
#include "nue/complete_cdg.hpp"
#include "routing/cdg_index.hpp"
#include "routing/dependency_order.hpp"
#include "routing/sssp_engine.hpp"
#include "routing/validate.hpp"
#include "telemetry/telemetry.hpp"
#include "util/arena.hpp"
#include "util/epoch.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace nue {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Backtracking alternatives remembered per node (§4.6.2).
constexpr std::uint32_t kAltStackLimit = 8;
/// Channel weights start at 1 + kBalanceDamping and grow by one per path,
/// which damps the early-step volatility of the balancing weights (see
/// docs/ALGORITHM.md §5). The offset is fixed, not tuned per fabric: on
/// fattree:8:3 at k = 1 it leaves 147 escape fallbacks where 500 leaves 0.
constexpr double kBalanceDamping = 50.0;
/// Escape-tree roots a hitless reroute tries besides the preferred one
/// before reverting to the escape-first setup; each try is one static
/// screen (a BFS tree, its escape dependencies and one acyclicity check)
/// per layer, so the cap bounds repair latency.
constexpr std::size_t kRerouteRootAttempts = 16;

/// The surviving dependencies of old column d (search orientation, in
/// ascending v): its consecutive still-alive hop pairs, which in-flight
/// packets hold until they reach the dead element or d. On a column
/// affected_destinations keeps, that is every dependency. `f(from, to)`
/// returns false to stop the walk, and the result says whether it ran on.
template <typename F>
bool for_each_surviving_dep(const Network& net, const RoutingResult& old,
                            NodeId d, F&& f) {
  const std::uint32_t odi = old.dest_index(d);
  for (NodeId v = 0; v < net.num_nodes(); ++v) {
    if (v == d || !net.node_alive(v)) continue;
    const ChannelId c = old.next(v, odi);  // traffic channel v -> p
    if (c == kInvalidChannel || !net.channel_alive(c)) continue;
    const NodeId p = net.dst(c);
    if (p == d || !net.node_alive(p)) continue;
    const ChannelId pc = old.next(p, odi);
    if (pc == kInvalidChannel || !net.channel_alive(pc)) continue;
    if (!f(reverse(pc), reverse(c))) return false;
  }
  return true;
}

/// The distinct dependencies the escape paths (Definition 7) of the BFS
/// spanning tree rooted at `root` impose toward `dests`, in search
/// orientation: the set LayerRouter::init_escape_paths force-marks for
/// that root. A packet that turns at tree node p from neighbour v onto
/// neighbour q heads for a destination on q's side of the tree edge
/// (p, q), and every other neighbour's packets to it turn there too, so
/// the turns (v -> p -> q) are dependencies iff some destination lies on
/// that side. Subtree counts decide that per edge, without a walk per
/// destination.
std::vector<std::pair<ChannelId, ChannelId>> escape_dependencies(
    const Network& net, NodeId root, const std::vector<NodeId>& dests) {
  const auto parent = bfs_tree(net, root);
  // Tree channels leaving each node.
  std::vector<std::vector<ChannelId>> adj(net.num_nodes());
  for (NodeId v = 0; v < net.num_nodes(); ++v) {
    if (parent[v] == kInvalidChannel) continue;
    adj[v].push_back(parent[v]);
    adj[net.dst(parent[v])].push_back(reverse(parent[v]));
  }
  std::vector<NodeId> order{root};  // parents before children
  for (std::size_t i = 0; i < order.size(); ++i) {
    for (ChannelId c : adj[order[i]]) {
      if (c != parent[order[i]]) order.push_back(net.dst(c));
    }
  }
  std::vector<std::uint32_t> below(net.num_nodes(), 0);  // in the subtree
  for (NodeId d : dests) below[d] = 1;
  for (std::size_t i = order.size(); i-- > 1;) {
    below[net.dst(parent[order[i]])] += below[order[i]];
  }
  std::vector<std::pair<ChannelId, ChannelId>> deps;
  for (NodeId p : order) {
    for (ChannelId out : adj[p]) {  // p -> q
      const std::uint32_t beyond = out == parent[p]
                                       ? below[root] - below[p]
                                       : below[net.dst(out)];
      if (beyond == 0) continue;
      for (ChannelId in : adj[p]) {  // p -> v, the search-side image of v -> p
        if (in != out) deps.emplace_back(reverse(out), in);
      }
    }
  }
  return deps;
}

/// Routes all destinations of one virtual layer inside that layer's
/// complete CDG.
///
/// All flat per-layer scratch — the balancing weights, the escape-tree
/// CSR, the backtracking alternative stacks, the step keep flags, and the
/// bounded worklists — is sliced from the caller's Arena instead of
/// individually heap-allocated. The constructor rewinds the arena, so at
/// most ONE router may be live per arena; reroute_nue exploits exactly
/// that by re-constructing a router per escape-root attempt on the same
/// arena with zero steady-state allocation. The dynamically-sized state
/// (the CDG's used-edge adjacency, the Fibonacci heap, the epoch-stamped
/// Dijkstra columns) stays owned — its size depends on routing history,
/// not on the fabric.
class LayerRouter {
 public:
  LayerRouter(const Network& net, const CdgIndex& idx, NodeId root,
              const NueOptions& opt, NueStats& stats, Arena& scratch)
      : net_(net),
        idx_(idx),
        opt_(opt),
        stats_(stats),
        scratch_(scratch),
        cdg_(net, idx),
        tree_parent_(bfs_tree(net, root)),
        node_dist_(net.num_nodes(), kInf),
        used_channel_(net.num_nodes(), kInvalidChannel),
        chan_dist_(net.num_channels(), kInf),
        heap_(net.num_channels()),
        terminals_(net.terminals()) {
    cdg_.set_keep_blocked(opt.sticky_restrictions);
    const std::size_t n = net.num_nodes();
    scratch_.reset();  // reclaim any previous router's slices
    weights_ = scratch_.alloc<double>(net.num_channels());
    escape_next_ = scratch_.alloc<ChannelId>(n);
    escape_seen_ = scratch_.alloc<std::uint8_t>(n);
    keep_flags_ = scratch_.alloc_filled<std::uint8_t>(idx.num_edges(), 0);
    alt_data_ = scratch_.alloc<ChannelId>(n * kAltStackLimit);
    alt_cnt_ = scratch_.alloc<std::uint32_t>(n);
    alt_gen_ = scratch_.alloc_filled<std::uint32_t>(n, 0);
    bfs_ = FixedVec<NodeId>(scratch_, n);
    islands_ = FixedVec<NodeId>(scratch_, n);
    // Escape spanning tree as a CSR over the arena; per-node entry order
    // matches the old per-node vectors (same ascending-v fill), which
    // compute_escape_next's BFS tie-breaks depend on.
    tree_adj_begin_ = scratch_.alloc_filled<std::uint32_t>(n + 1, 0);
    for (NodeId v = 0; v < n; ++v) {
      const ChannelId up = tree_parent_[v];
      if (up == kInvalidChannel) continue;
      ++tree_adj_begin_[v + 1];
      ++tree_adj_begin_[net.dst(up) + 1];
    }
    for (NodeId v = 0; v < n; ++v) {
      tree_adj_begin_[v + 1] += tree_adj_begin_[v];
    }
    tree_adj_pool_ = scratch_.alloc<ChannelId>(tree_adj_begin_[n]);
    std::uint32_t* cursor = scratch_.alloc_filled<std::uint32_t>(n, 0);
    for (NodeId v = 0; v < n; ++v) {
      const ChannelId up = tree_parent_[v];
      if (up == kInvalidChannel) continue;
      const NodeId p = net.dst(up);
      tree_adj_pool_[tree_adj_begin_[v] + cursor[v]++] = up;
      tree_adj_pool_[tree_adj_begin_[p] + cursor[p]++] = reverse(up);
    }
  }

  /// Pre-mark the escape paths (Definition 7) toward every destination of
  /// this layer as `used` with one shared subgraph id. Returns false when
  /// the spanning tree's dependencies would close a cycle with ones
  /// already present (incremental rerouting pre-seeds the old table's):
  /// the caller must then discard this router. On a fresh router the tree
  /// alone is acyclic, so the setup always succeeds.
  bool init_escape_paths(const std::vector<NodeId>& dests) {
    std::fill(weights_, weights_ + net_.num_channels(),
              1.0 + kBalanceDamping);
    std::vector<ChannelId> escape_channels;
    for (NodeId d : dests) {
      compute_escape_next(d);
      for (NodeId v = 0; v < net_.num_nodes(); ++v) {
        const ChannelId tn = escape_next_[v];  // traffic channel v -> parent
        if (tn == kInvalidChannel) continue;
        const ChannelId mark = reverse(tn);  // search orientation
        if (!cdg_.channel_used(mark)) escape_channels.push_back(mark);
        cdg_.mark_channel_used(mark);
        const NodeId p = net_.dst(tn);
        if (p != d &&
            !cdg_.try_force_edge_used(reverse(escape_next_[p]), mark)) {
          return false;
        }
      }
    }
    cdg_.unify_components(escape_channels);
    return true;
  }

  /// Pre-seed the CDG with a preserved forwarding column's dependencies
  /// (traffic orientation mirrored into search orientation), so the new
  /// columns cannot form a cycle with the reused ones. Returns false when
  /// the column clashes with dependencies already present (escape paths or
  /// previously kept columns) — the caller then recomputes it instead.
  /// Partially placed marks stay: they are correct (they mirror real old
  /// dependencies) and only slightly over-constrain the layer.
  bool premark_column_checked(const RoutingResult& old, NodeId d) {
    return for_each_surviving_dep(
        net_, old, d, [&](ChannelId from, ChannelId to) {
          return cdg_.try_force_edge_used(from, to);
        });
  }

  /// Best-effort pre-marking of a broken column's STALE dependencies (its
  /// surviving dependencies). Routing the replacement column around these
  /// marks keeps the old+new union CDG acyclic — the resilience manager's
  /// condition for a hitless table swap. Unlike the kept-column premark
  /// this must not fail the column: a mark that would close a cycle is
  /// skipped (returned in the count) and the transition gate downstream
  /// gets the final say.
  std::size_t premark_stale_deps(const RoutingResult& old, NodeId d) {
    std::size_t skipped = 0;
    for_each_surviving_dep(net_, old, d, [&](ChannelId from, ChannelId to) {
      if (!cdg_.try_force_edge_used(from, to)) ++skipped;
      return true;
    });
    return skipped;
  }

  /// Bulk form of the column pre-marks (constraints-first rerouting): the
  /// surviving dependencies of one old layer are jointly acyclic — they
  /// all come from that layer's validated CDG — so they load into the
  /// fresh CDG with one topological pass instead of per-edge insertions.
  void premark_bulk(
      const std::vector<std::pair<ChannelId, ChannelId>>& deps) {
    cdg_.force_edges_bulk(deps);
  }

  /// Route destination d; fills column di of rr. Returns true when the
  /// graph search succeeded, false when the step fell back to the escape
  /// paths (counted in stats).
  bool route_destination(NodeId d, RoutingResult& rr, std::uint32_t di) {
    reset_scratch();
    cdg_.begin_step();
    seed_search(d);
    return finish_route(d, rr, di);
  }

  /// Partial-column repair (incremental rerouting): a failure orphans only
  /// the nodes whose old route runs into the dead element — often a small
  /// neighborhood of the failure. `old_col` is a route-only pass over the
  /// old table, run on column old_di: a node is intact iff its old route
  /// still reaches d (a dead next node kills the channel into it, so the
  /// pass ends such a route on a dead channel). Settle the intact region
  /// on its old channels (distance 0, so no relaxation displaces it) and
  /// run the modified Dijkstra only over the orphans attaching at the
  /// frontier. Requires this column's stale pre-marking to have skipped
  /// nothing: the intact entries' dependencies must already be in the CDG
  /// for the merged column's extraction to hold. Impasses fall back to the
  /// escape paths exactly like route_destination (the escape tree covers
  /// every node, orphaned or not).
  bool route_destination_partial(NodeId d, RoutingResult& rr,
                                 std::uint32_t di, const RoutingResult& old,
                                 std::uint32_t old_di,
                                 const ColumnPass& old_col) {
    reset_scratch();
    cdg_.begin_step();
    seed_partial(d, old, old_di, old_col);
    return finish_route(d, rr, di);
  }

  const CompleteCdg::Stats& cdg_stats() const { return cdg_.stats(); }

 private:
  /// Shared tail of the routing step: drain/backtrack until fully routed
  /// (or fall back to the escape paths), then extract column di.
  bool finish_route(NodeId d, RoutingResult& rr, std::uint32_t di) {
    while (true) {
      drain_heap();
      if (!find_islands(d)) break;  // fully routed
      if (!opt_.backtracking || !resolve_one_island(d)) {
        stats_.islands_unresolved += islands_.size();
        fallback_to_escape(d, rr, di);
        // Escape paths are permanently marked already; none of this
        // step's transient marks are real dependencies.
        cdg_.end_step(keep_flags_);
        return false;
      }
    }
    // Extract the destination-based table: traffic takes the reverse of
    // the search-orientation used channel. Keep exactly the dependencies
    // of the final in-tree (plus, transitively, the escape marks).
    std::vector<CdgIndex::EdgeId> kept;
    for (NodeId v = 0; v < net_.num_nodes(); ++v) {
      if (v == d || !net_.node_alive(v)) continue;
      const ChannelId c = used_channel_[v];
      NUE_DCHECK(c != kInvalidChannel);
      rr.set_next(v, di, reverse(c));
      const NodeId p = net_.src(c);
      if (p != d) {
        const auto e = idx_.edge_id(used_channel_[p], c);
        NUE_DCHECK(e != CdgIndex::kNoEdge);
        NUE_DCHECK(cdg_.edge_used(e));
        keep_flags_[e] = 1;
        kept.push_back(e);
      }
    }
    cdg_.end_step(keep_flags_);
    for (const auto e : kept) keep_flags_[e] = 0;
    update_weights(rr, di);
    return true;
  }

  /// Multi-source seeding for the partial repair: the intact region is
  /// settled at distance 0 on its old channels, and only the frontier —
  /// intact nodes (or the destination itself) with an orphaned neighbor —
  /// enters the heap, since any other relaxation could only land inside
  /// the settled region and be rejected on distance.
  void seed_partial(NodeId d, const RoutingResult& old, std::uint32_t old_di,
                    const ColumnPass& old_col) {
    const auto orphan = [&](NodeId v) {
      return v != d && old_col.end(v) != ColumnPass::End::kReached;
    };
    dest_ = d;
    node_dist_.set(d, 0.0);
    for (NodeId v = 0; v < net_.num_nodes(); ++v) {
      if (v == d || !net_.node_alive(v) || orphan(v)) continue;
      const ChannelId c = reverse(old.next(v, old_di));  // search orientation
      // The stale pre-marks covered channels with a downstream pair; leaf
      // channels next to d still need their ω entry for the relaxations
      // and backtracking probes touching them.
      cdg_.mark_channel_used(c);
      used_channel_.set(v, c);
      node_dist_.set(v, 0.0);
    }
    for (NodeId v = 0; v < net_.num_nodes(); ++v) {
      if (!net_.node_alive(v) || orphan(v)) continue;
      const auto out = net_.out(v);
      if (std::none_of(out.begin(), out.end(),
                       [&](ChannelId c) { return orphan(net_.dst(c)); })) {
        continue;  // not on the frontier
      }
      if (v == d) {
        // Intact heads are settled already: seed d's orphan heads only.
        seed_out_channels(d, orphan);
      } else {
        const ChannelId c = used_channel_[v];
        chan_dist_.set(c, 0.0);
        heap_.insert(c, 0.0);
      }
    }
  }

  // --- escape paths ---------------------------------------------------------

  /// BFS within the spanning tree: escape_next_[v] = the traffic channel
  /// (v -> tree parent toward d).
  void compute_escape_next(NodeId d) {
    const std::size_t n = net_.num_nodes();
    std::fill(escape_next_, escape_next_ + n, kInvalidChannel);
    bfs_.clear();
    bfs_.push_back(d);
    std::fill(escape_seen_, escape_seen_ + n, 0);
    escape_seen_[d] = 1;
    for (std::size_t i = 0; i < bfs_.size(); ++i) {
      const NodeId v = bfs_[i];
      const std::uint32_t te = tree_adj_begin_[v + 1];
      for (std::uint32_t t = tree_adj_begin_[v]; t < te; ++t) {
        const ChannelId c = tree_adj_pool_[t];  // c = (v -> nb)
        const NodeId nb = net_.dst(c);
        if (escape_seen_[nb]) continue;
        escape_seen_[nb] = 1;
        escape_next_[nb] = reverse(c);  // nb -> v, one hop toward d
        bfs_.push_back(nb);
      }
    }
  }

  void fallback_to_escape(NodeId d, RoutingResult& rr, std::uint32_t di) {
    ++stats_.fallbacks;
    compute_escape_next(d);
    for (NodeId v = 0; v < net_.num_nodes(); ++v) {
      if (v == d || !net_.node_alive(v)) continue;
      NUE_DCHECK(escape_next_[v] != kInvalidChannel);
      rr.set_next(v, di, escape_next_[v]);
    }
    update_weights(rr, di);
  }

  // --- Algorithm 1 ----------------------------------------------------------

  /// O(1) per-destination reset: the scratch vectors are generation-
  /// stamped, so bumping the epoch invalidates every slot without the
  /// full-size fills the serial engine performed (which dominate step
  /// setup on large low-diameter fabrics).
  void reset_scratch() {
    node_dist_.next_epoch();
    used_channel_.next_epoch();
    chan_dist_.next_epoch();
    if (++alts_epoch_ == 0) {
      std::fill(alt_gen_, alt_gen_ + net_.num_nodes(), 0);
      alts_epoch_ = 1;
    }
    heap_.clear();
    dest_ = kInvalidNode;
  }

  /// Backtracking alternatives of v recorded this step (empty if stale).
  std::span<const ChannelId> alts_of(NodeId v) const {
    if (alt_gen_[v] != alts_epoch_) return {};
    return {alt_data_ + static_cast<std::size_t>(v) * kAltStackLimit,
            alt_cnt_[v]};
  }

  void seed_search(NodeId d) {
    dest_ = d;
    node_dist_.set(d, 0.0);
    if (net_.is_terminal(d)) {
      const ChannelId c0 = net_.out(d)[0];
      cdg_.mark_channel_used(c0);
      chan_dist_.set(c0, 0.0);
      used_channel_.set(net_.dst(c0), c0);
      node_dist_.set(net_.dst(c0), 0.0);
      heap_.insert(c0, 0.0);
    } else {
      seed_out_channels(d, [](NodeId) { return true; });
    }
  }

  /// A switch source: the paper's fake channel (∅, n_0) feeding every
  /// outgoing channel of d, here those whose head passes `take`; seeding
  /// each at its own weight is equivalent.
  template <typename Take>
  void seed_out_channels(NodeId d, const Take& take) {
    for (ChannelId c : net_.out(d)) {
      const NodeId w = net_.dst(c);
      if (!take(w)) continue;
      const double nd = weights_[c];
      if (nd < node_dist_[w]) {
        if (used_channel_[w] != kInvalidChannel) {
          push_alt(w, used_channel_[w]);
        }
        cdg_.mark_channel_used(c);
        used_channel_.set(w, c);
        node_dist_.set(w, nd);
        chan_dist_.set(c, nd);
        heap_.insert_or_decrease(c, nd);
      } else {
        push_alt(w, c);  // losing parallel channel; backtracking option
      }
    }
  }

  void drain_heap() {
    while (!heap_.empty()) {
      const ChannelId cp = heap_.extract_min();
      const NodeId v = net_.dst(cp);
      if (used_channel_[v] != cp) {
        // Stale pop: the node switched to a better inbound channel while
        // cp waited. Keep cp as a backtracking alternative (§4.6.2).
        push_alt(v, cp);
        continue;
      }
      relax_from(cp);
    }
  }

  void relax_from(ChannelId cp) {
    const auto succ = idx_.successors(cp);
    CdgIndex::EdgeId e = idx_.first_edge(cp);
    for (const ChannelId cq : succ) {
      const CdgIndex::EdgeId eid = e++;
      if (cdg_.edge_blocked(eid)) continue;  // condition (a)
      const NodeId w = net_.dst(cq);
      const double nd = chan_dist_[cp] + weights_[cq];
      if (!(nd < node_dist_[w])) {
        push_alt(w, cq);
        continue;
      }
      // Current-step children of w constrain an inbound switch: their
      // dependencies (old_in, out) must be re-placeable as (cq, out).
      // Children can exist whenever w was reached before (it may have
      // relaxed neighbors during an earlier settled period and switched
      // since), so the scan keys on reachedness, not on the settled flag.
      children_.clear();
      if (used_channel_[w] != kInvalidChannel) {
        for (ChannelId out : net_.out(w)) {
          if (used_channel_[net_.dst(out)] == out) children_.push_back(out);
        }
      }
      if (children_.empty()) {
        if (!cdg_.try_use_edge_by_id(eid, cp, cq)) continue;
      } else {
        if (!opt_.shortcuts) continue;
        if (!cdg_.switch_feasible(cp, cq, children_)) continue;
        cdg_.commit_switch(cp, cq, children_);
        ++stats_.shortcuts_taken;
      }
      if (used_channel_[w] != kInvalidChannel && used_channel_[w] != cq) {
        push_alt(w, used_channel_[w]);
      }
      used_channel_.set(w, cq);
      node_dist_.set(w, nd);
      chan_dist_.set(cq, nd);
      heap_.insert_or_decrease(cq, nd);
    }
  }

  // --- impasse handling (§4.6.2) --------------------------------------------

  bool find_islands(NodeId d) {
    islands_.clear();
    for (NodeId v = 0; v < net_.num_nodes(); ++v) {
      if (net_.node_alive(v) && v != d && node_dist_[v] == kInf) {
        islands_.push_back(v);
      }
    }
    return !islands_.empty();
  }

  bool resolve_one_island(NodeId d) {
    for (NodeId v : islands_) {
      if (try_backtrack_into(v, d)) {
        ++stats_.islands_resolved;
        return true;
      }
    }
    return false;
  }

  /// Local backtracking: reach island v through a reached neighbor u,
  /// either via u's current inbound channel or by switching u to a stored
  /// alternative (validating u's existing child dependencies atomically).
  bool try_backtrack_into(NodeId v, NodeId d) {
    for (ChannelId out : net_.out(v)) {
      const ChannelId c = reverse(out);  // candidate inbound (u -> v)
      const NodeId u = net_.src(c);
      if (node_dist_[u] == kInf || u == d) continue;
      // Option 1: extend u's current chain.
      const ChannelId cur = used_channel_[u];
      if (cur != kInvalidChannel && cdg_.try_use_edge(cur, c)) {
        ++stats_.backtrack_option1;
        reach_island(v, c, node_dist_[u] + weights_[c]);
        return true;
      }
      // Option 2: switch u's inbound to a remembered alternative.
      for (const ChannelId a : alts_of(u)) {
        if (a == used_channel_[u]) continue;
        const NodeId x = net_.src(a);
        const ChannelId chain_in =
            x == d ? kInvalidChannel : used_channel_[x];
        if (x != d &&
            (chain_in == kInvalidChannel || node_dist_[x] == kInf)) {
          continue;
        }
        // u's current-step children keep their outgoing dependencies,
        // re-rooted onto channel a; plus the new edge (a -> c).
        children_.clear();
        children_.push_back(c);
        for (ChannelId o : net_.out(u)) {
          if (used_channel_[net_.dst(o)] == o) children_.push_back(o);
        }
        if (!switch_with_optional_chain(chain_in, a, children_)) continue;
        // Commit the switch of u.
        const double u_dist =
            (x == d ? 0.0 : node_dist_[x]) + weights_[a];
        ++stats_.backtrack_option2;
        push_alt(u, used_channel_[u]);
        used_channel_.set(u, a);
        node_dist_.set(u, std::min(node_dist_[u], u_dist));
        chan_dist_.set(a, node_dist_[u]);
        reach_island(v, c, node_dist_[u] + weights_[c]);
        return true;
      }
    }
    return false;
  }

  /// switch_feasible + commit, tolerating a missing inbound chain edge
  /// (alternatives whose tail is the destination itself have none).
  bool switch_with_optional_chain(ChannelId chain_in, ChannelId a,
                                  const std::vector<ChannelId>& outs) {
    if (chain_in != kInvalidChannel) {
      if (!cdg_.switch_feasible(chain_in, a, outs)) return false;
      cdg_.commit_switch(chain_in, a, outs);
      return true;
    }
    // No inbound edge: check only the out-star around `a`, atomically —
    // a failure mid-commit would leave earlier edges marked (sticky).
    if (!cdg_.switch_feasible_star(a, outs)) return false;
    cdg_.mark_channel_used(a);
    for (ChannelId o : outs) {
      const bool ok = cdg_.try_use_edge(a, o);
      NUE_CHECK(ok);
    }
    return true;
  }

  void reach_island(NodeId v, ChannelId c, double nd) {
    if (used_channel_[v] != kInvalidChannel) push_alt(v, used_channel_[v]);
    used_channel_.set(v, c);
    node_dist_.set(v, nd);
    chan_dist_.set(c, nd);
    heap_.insert_or_decrease(c, nd);
  }

  void push_alt(NodeId v, ChannelId c) {
    if (c == kInvalidChannel) return;
    if (alt_gen_[v] != alts_epoch_) {
      alt_gen_[v] = alts_epoch_;
      alt_cnt_[v] = 0;
    }
    ChannelId* a =
        alt_data_ + static_cast<std::size_t>(v) * kAltStackLimit;
    std::uint32_t& cnt = alt_cnt_[v];
    for (std::uint32_t i = 0; i < cnt; ++i) {
      if (a[i] == c) return;
    }
    if (cnt < kAltStackLimit) {
      a[cnt++] = c;
    } else if (cnt > 0) {
      // Keep the most recent alternatives (ring overwrite).
      a[alt_rr_++ % cnt] = c;
    }
  }

  // --- balancing ------------------------------------------------------------

  /// DFSSSP-style weight update: +1 per terminal-to-destination route on
  /// every search-orientation channel the route's reverse traffic uses,
  /// i.e. each channel of column di gains the load the column pass counts
  /// on it. The weights stay integer-valued, so the sum is exact in any
  /// order.
  void update_weights(const RoutingResult& rr, std::uint32_t di) {
    if (!loads_) loads_.emplace(net_, rr);
    loads_->run(di, terminals_);
    loads_->count_loads(terminals_);
    for (const ColumnPass::Visit& v : loads_->visits()) {
      NUE_CHECK_MSG(loads_->end(v.source) == ColumnPass::End::kReached,
                    "routing loop in Nue");
      weights_[reverse(rr.next(v.node, di))] += loads_->load(v);
    }
  }

  const Network& net_;
  const CdgIndex& idx_;
  const NueOptions& opt_;
  NueStats& stats_;
  Arena& scratch_;
  CompleteCdg cdg_;
  std::vector<ChannelId> tree_parent_;

  // arena slices (layer-lifetime flat scratch; see class comment)
  double* weights_ = nullptr;
  ChannelId* tree_adj_pool_ = nullptr;      // escape spanning tree, CSR
  std::uint32_t* tree_adj_begin_ = nullptr;
  ChannelId* alt_data_ = nullptr;           // nodes x kAltStackLimit
  std::uint32_t* alt_cnt_ = nullptr;
  std::uint32_t* alt_gen_ = nullptr;
  ChannelId* escape_next_ = nullptr;
  std::uint8_t* escape_seen_ = nullptr;
  std::uint8_t* keep_flags_ = nullptr;
  FixedVec<NodeId> bfs_;
  FixedVec<NodeId> islands_;

  // per-destination scratch (generation-stamped: reset_scratch is O(1))
  EpochVector<double> node_dist_;
  EpochVector<ChannelId> used_channel_;
  std::uint32_t alts_epoch_ = 1;
  EpochVector<double> chan_dist_;
  FibonacciHeap<double> heap_;
  std::vector<ChannelId> children_;
  NodeId dest_ = kInvalidNode;
  std::size_t alt_rr_ = 0;
  // balancing: the alive terminals, and one column pass over the table
  // this router writes (a router only ever writes one)
  std::vector<NodeId> terminals_;
  std::optional<ColumnPass> loads_;
};

/// Add the ω-search counters of the router that routed a layer.
void add_cdg_stats(NueStats& ls, const LayerRouter& router) {
  ls.cycle_searches += router.cdg_stats().dfs_searches;
  ls.cycle_search_steps += router.cdg_stats().dfs_steps;
  ls.fast_accepts += router.cdg_stats().fast_accepts;
}

/// Fold one layer's stats into the run total. Called in ascending layer
/// order after the (possibly concurrent) layer tasks finish, so the
/// aggregate — including the order of `roots` — matches the serial engine
/// exactly at every thread count.
void merge_stats(NueStats& into, const NueStats& from) {
  into.fallbacks += from.fallbacks;
  into.islands_resolved += from.islands_resolved;
  into.islands_unresolved += from.islands_unresolved;
  into.backtrack_option1 += from.backtrack_option1;
  into.backtrack_option2 += from.backtrack_option2;
  into.shortcuts_taken += from.shortcuts_taken;
  into.cycle_searches += from.cycle_searches;
  into.cycle_search_steps += from.cycle_search_steps;
  into.fast_accepts += from.fast_accepts;
  into.roots.insert(into.roots.end(), from.roots.begin(), from.roots.end());
}

/// reroute_nue's split of the old table's destinations by old layer.
struct LayerSplit {
  /// Surviving destinations, in the old table's order.
  std::vector<NodeId> alive;
  /// Columns broken by the failure (recomputed) and intact ones (kept).
  std::vector<std::vector<NodeId>> affected;
  std::vector<std::vector<NodeId>> kept;
  /// Destinations that died with their switch. They still leave stale
  /// columns behind: in-flight packets toward them occupy the surviving
  /// hops of the old column until they reach the dead element, so those
  /// dependencies constrain the replacement routes exactly like a broken
  /// column's.
  std::vector<std::vector<NodeId>> stale_only;
};

LayerSplit split_layers(const Network& net, const RoutingResult& old) {
  LayerSplit split;
  split.affected.resize(old.num_vls());
  split.kept.resize(old.num_vls());
  split.stale_only.resize(old.num_vls());
  // A column survives iff affected_destinations keeps it: its unchanged
  // pointer chains still end at the destination.
  std::vector<std::uint8_t> broken(net.num_nodes(), 0);
  for (NodeId d : affected_destinations(net, old)) broken[d] = 1;
  for (NodeId d : old.destinations()) {
    const std::uint32_t layer = old.vl(d, d, old.dest_index(d));
    if (!net.node_alive(d)) {
      split.stale_only[layer].push_back(d);
      continue;
    }
    split.alive.push_back(d);
    (broken[d] ? split.affected : split.kept)[layer].push_back(d);
  }
  return split;
}

/// One old layer's surviving dependencies (search orientation): those of
/// its broken, dead-destination and kept columns, in that order — the
/// constraints-first pre-marks.
std::vector<std::pair<ChannelId, ChannelId>> surviving_deps(
    const Network& net, const RoutingResult& old, const LayerSplit& split,
    std::size_t layer) {
  std::vector<std::pair<ChannelId, ChannelId>> deps;
  for (const auto* cols :
       {&split.affected[layer], &split.stale_only[layer], &split.kept[layer]}) {
    for (NodeId d : *cols) {
      for_each_surviving_dep(net, old, d, [&](ChannelId from, ChannelId to) {
        deps.emplace_back(from, to);
        return true;
      });
    }
  }
  return deps;
}

/// The escape-root screen over one layer's surviving dependencies, which
/// come from one validated table's per-layer CDG and so are acyclic.
DependencyOrder dependency_order(
    const Network& net,
    const std::vector<std::pair<ChannelId, ChannelId>>& deps) {
  DependencyOrder order(net.num_channels());
  order.add_edges(deps);
  NUE_CHECK_MSG(order.recompute_order(),
                "surviving dependencies must be acyclic");
  return order;
}

/// Publish a finished run's aggregate stats to the telemetry registry
/// (docs/OBSERVABILITY.md records the counter-name schema). The stats are
/// computed regardless; publishing is gated so disabled runs pay nothing.
void publish_stats(const NueStats& st) {
  if (!telemetry::enabled()) return;
  const auto add = [](const char* name, std::uint64_t v) {
    telemetry::counter(name).add_always(v);
  };
  add("nue.escape_fallbacks", st.fallbacks);
  add("nue.impasses", st.islands_resolved + st.islands_unresolved);
  add("nue.backtracks", st.backtrack_option1 + st.backtrack_option2);
  add("nue.shortcuts", st.shortcuts_taken);
  add("nue.omega_searches", st.cycle_searches);
  add("nue.omega_search_steps", st.cycle_search_steps);
  add("nue.omega_hits", st.fast_accepts);
}

}  // namespace

NodeId select_escape_root(const Network& net,
                          const std::vector<NodeId>& subset,
                          std::size_t pivots) {
  NUE_CHECK(!subset.empty());
  const auto mask = convex_subgraph(net, subset);
  const auto cb = betweenness_centrality_sampled(net, pivots, mask);
  NodeId best = subset[0];
  double best_cb = -1.0;
  for (NodeId v = 0; v < net.num_nodes(); ++v) {
    if (!net.node_alive(v) || !mask[v]) continue;
    // Prefer switches: a terminal root degenerates the spanning tree.
    const double score = cb[v] + (net.is_switch(v) ? 0.5 : 0.0);
    if (score > best_cb) {
      best_cb = score;
      best = v;
    }
  }
  if (net.is_terminal(best)) best = net.terminal_switch(best);
  return best;
}

std::size_t count_escape_dependencies(const Network& net, NodeId root,
                                      const std::vector<NodeId>& dests) {
  return escape_dependencies(net, root, dests).size();
}

RoutingResult reroute_nue(const Network& net, const RoutingResult& old,
                          const NueOptions& opt, RerouteStats* reroute_stats,
                          NueStats* stats) {
  TELEM_SPAN("nue.reroute");
  NueStats stats_local;
  NueStats& st = stats ? *stats : stats_local;
  st = NueStats{};
  RerouteStats rs_local;
  RerouteStats& rs = reroute_stats ? *reroute_stats : rs_local;
  rs = RerouteStats{};

  const LayerSplit split = split_layers(net, old);
  rs.dests_dropped = old.destinations().size() - split.alive.size();
  RoutingResult rr(net.num_nodes(), split.alive, old.num_vls(),
                   VlMode::kPerDest);
  const auto& affected = split.affected;
  const auto& kept = split.kept;
  const auto& stale_only = split.stale_only;
  // A kept column is reused verbatim at the alive nodes. Like the
  // resilience manager's splice, reroute copies alive nodes only: a
  // restored switch comes back as a hole that affected_destinations flags.
  const auto keep_column = [&](NodeId d, std::uint32_t layer) {
    const std::uint32_t old_di = old.dest_index(d);
    const std::uint32_t di = rr.dest_index(d);
    rr.set_dest_vl(di, static_cast<std::uint8_t>(layer));
    for (NodeId v = 0; v < net.num_nodes(); ++v) {
      if (v == d || !net.node_alive(v)) continue;
      rr.set_next(v, di, old.next(v, old_di));
    }
  };

  // Layers keep their original destination partition, so they stay
  // independent and recompute concurrently — same argument as route_nue,
  // and reroute draws no random numbers at all. Per-layer stats slots are
  // merged in layer order below.
  const CdgIndex idx(net);
  std::vector<NodeId> all_nodes(net.num_nodes());
  std::iota(all_nodes.begin(), all_nodes.end(), NodeId{0});
  std::vector<NueStats> layer_stats(old.num_vls());
  std::vector<RerouteStats> layer_rs(old.num_vls());
  parallel_for(
      resolve_threads(opt.num_threads), old.num_vls(),
      [&](std::size_t layer) {
        TELEM_SPAN("nue.reroute_layer");
        NueStats& ls = layer_stats[layer];
        RerouteStats& lrs = layer_rs[layer];
        if (kept[layer].empty() && affected[layer].empty()) {
          ls.roots.push_back(kInvalidNode);
          return;
        }
        if (affected[layer].empty()) {
          // Nothing to recompute: reuse every column verbatim.
          for (NodeId d : kept[layer]) keep_column(d, layer);
          lrs.dests_kept += kept[layer].size();
          ls.roots.push_back(kInvalidNode);  // no new escape tree this layer
          return;
        }
        // Escape paths must be marked for every destination we end up
        // routing (Lemma 3), preserved columns must be fully pre-marked
        // before anything new is placed, and the stale dependencies of the
        // columns being replaced (broken, demoted, or dead-destination —
        // in-flight packets hold their surviving hops until they drain)
        // should be in the CDG too, so old and new tables can coexist
        // during the swap. Every pre-mark mirrors the old table's own
        // per-layer CDG — acyclic by that table's validation — so the
        // pre-marks never clash with each other; only the escape tree can
        // clash with them. So the hitless-friendly order (all pre-marks,
        // then a checked escape tree) goes first, and the escape-first
        // order only when no candidate root's tree fits.
        std::vector<NodeId> to_route = affected[layer];
        std::vector<NodeId> keep_cols = kept[layer];
        // One scratch arena for every router of this layer: each router
        // construction rewinds it, so rebuilding runs with zero
        // steady-state allocation for the flat scratch.
        Arena arena;
        std::unique_ptr<LayerRouter> router;
        const auto build_router = [&](NodeId r) {
          router.reset();  // release the previous router before its arena
                           // slices are rewound by the next construction
          router = std::make_unique<LayerRouter>(net, idx, r, opt, ls, arena);
        };
        // The hint: the root this layer's previous escape tree grew from.
        // That tree was force-marked whole in the old table's CDG, so its
        // BFS re-derivation on the degraded fabric often fits the
        // surviving old dependencies (on most layer repairs of a storm).
        NodeId hint = layer < opt.escape_root_hints.size()
                          ? opt.escape_root_hints[layer]
                          : kInvalidNode;
        if (hint != kInvalidNode &&
            (hint >= net.num_nodes() || !net.node_alive(hint) ||
             !net.is_switch(hint))) {
          hint = kInvalidNode;
        }
        // The betweenness pass behind select_escape_root is the single
        // most expensive piece of the layer setup; memoize it and, when a
        // hint exists, don't even compute it until the hint fails.
        NodeId central = kInvalidNode;
        const auto preferred_root = [&]() -> NodeId {
          if (central == kInvalidNode) {
            central = opt.central_root
                          ? select_escape_root(net, to_route,
                                               opt.betweenness_pivots)
                          : net.switches().front();
          }
          return central;
        };
        // The roots after the hint: the paper's betweenness-central root
        // (it minimizes escape dependencies, Fig. 5), then capped
        // alternatives spread across the fabric — any one of them being
        // compatible is enough.
        const auto later_candidates = [&] {
          std::vector<NodeId> candidates;
          const NodeId pref = preferred_root();
          if (pref != hint) candidates.push_back(pref);
          std::vector<NodeId> alts;
          for (NodeId s : net.switches()) {
            if (s != pref && s != hint && net.node_alive(s)) {
              alts.push_back(s);
            }
          }
          if (alts.size() > kRerouteRootAttempts) {
            // Spread the capped attempts across the fabric instead of
            // clustering them on the lowest switch ids.
            const std::size_t step = alts.size() / kRerouteRootAttempts;
            for (std::size_t i = 0; i < kRerouteRootAttempts; ++i) {
              candidates.push_back(alts[i * step]);
            }
          } else {
            candidates.insert(candidates.end(), alts.begin(), alts.end());
          }
          return candidates;
        };
        // Stale-mark skip count per routed column of the final router: a
        // column with zero skips has its whole surviving dependency set in
        // the CDG and is eligible for the partial repair below.
        std::unordered_map<NodeId, std::size_t> col_skips;
        // Constraints-first: the old layer's surviving dependencies, kept
        // columns included, bulk-loaded into a fresh CDG in one
        // topological pass, then a checked escape tree fitted around
        // them. Succeeding here means zero skipped marks and zero
        // demotions: the old+new union CDG is acyclic by construction.
        const std::vector<std::pair<ChannelId, ChannelId>> old_deps =
            surviving_deps(net, old, split, layer);
        const auto fit_tree = [&](NodeId r) {
          ++lrs.root_attempts;
          build_router(r);
          router->premark_bulk(old_deps);
          return router->init_escape_paths(to_route);
        };
        NodeId root = kInvalidNode;
        if (hint != kInvalidNode && fit_tree(hint)) root = hint;
        if (root == kInvalidNode) {
          // Screen the later roots without a router: init_escape_paths'
          // checked insertions fail at the first one that closes a cycle,
          // and acyclicity is monotone, so the tree of root r fits iff
          // old_deps ∪ r's escape dependencies is acyclic. Only a root
          // that passes gets a router.
          DependencyOrder screen = dependency_order(net, old_deps);
          for (NodeId r : later_candidates()) {
            ++lrs.roots_screened;
            if (!screen.acyclic_with(escape_dependencies(net, r, to_route))) {
              continue;
            }
            const bool tree_ok = fit_tree(r);
            NUE_CHECK_MSG(tree_ok, "escape root " << r
                                                  << " passed the screen but "
                                                     "its tree does not fit");
            root = r;
            break;
          }
        }
        if (root != kInvalidNode) {
          for (NodeId d : to_route) col_skips[d] = 0;
        } else {
          // Escape-first fallback (Lemma 3's delivery guarantee outranks
          // hitlessness): the escape tree first, on the fresh CDG where it
          // always fits, then checked kept pre-marks — a kept column that
          // clashes is demoted into the routing set, which grows the
          // escape requirement, so iterate to a fixpoint (bounded by the
          // kept-column count) — then best-effort stale marks priced by
          // the transition gate downstream.
          root = preferred_root();
          while (true) {
            build_router(root);
            const bool tree_ok = router->init_escape_paths(to_route);
            NUE_CHECK_MSG(tree_ok, "escape paths must stay acyclic");
            bool demoted = false;
            std::vector<NodeId> still_kept;
            for (NodeId d : keep_cols) {
              if (router->premark_column_checked(old, d)) {
                still_kept.push_back(d);
              } else {
                to_route.push_back(d);
                ++lrs.dests_demoted;
                demoted = true;
              }
            }
            keep_cols.swap(still_kept);
            if (demoted) continue;  // rebuild with the enlarged routing set
            std::size_t skipped = 0;
            for (NodeId d : to_route) {
              const std::size_t sk = router->premark_stale_deps(old, d);
              col_skips[d] = sk;
              skipped += sk;
            }
            for (NodeId d : stale_only[layer]) {
              skipped += router->premark_stale_deps(old, d);
            }
            lrs.stale_marks_skipped += skipped;
            break;
          }
        }
        ls.roots.push_back(root);
        for (NodeId d : keep_cols) keep_column(d, layer);
        lrs.dests_kept += keep_cols.size();
        // The partial repairs' route-only pass over the old table, built
        // on this layer's first one.
        std::optional<ColumnPass> old_col;
        for (NodeId d : to_route) {
          const std::uint32_t di = rr.dest_index(d);
          rr.set_dest_vl(di, static_cast<std::uint8_t>(layer));
          // Partial repair when the column's stale marks all landed: the
          // intact region is settled verbatim (its dependencies are in the
          // CDG already) and only the orphaned nodes are re-searched. A
          // column with skipped marks falls back to a full recompute —
          // its surviving dependencies are not all in the CDG, so the
          // merged extraction could not account for them.
          const auto it = col_skips.find(d);
          if (it != col_skips.end() && it->second == 0) {
            const std::uint32_t old_di = old.dest_index(d);
            if (!old_col) old_col.emplace(net, old);
            old_col->run(old_di, all_nodes);
            router->route_destination_partial(d, rr, di, old, old_di,
                                              *old_col);
            ++lrs.dests_patched;
          } else {
            router->route_destination(d, rr, di);
          }
          ++lrs.dests_rerouted;
        }
        add_cdg_stats(ls, *router);
      });
  for (std::uint32_t layer = 0; layer < old.num_vls(); ++layer) {
    merge_stats(st, layer_stats[layer]);
    rs.dests_kept += layer_rs[layer].dests_kept;
    rs.dests_rerouted += layer_rs[layer].dests_rerouted;
    rs.dests_patched += layer_rs[layer].dests_patched;
    rs.dests_demoted += layer_rs[layer].dests_demoted;
    rs.stale_marks_skipped += layer_rs[layer].stale_marks_skipped;
    rs.root_attempts += layer_rs[layer].root_attempts;
    rs.roots_screened += layer_rs[layer].roots_screened;
  }
  publish_stats(st);
  if (telemetry::enabled()) {
    telemetry::counter("nue.reroute_root_attempts")
        .add_always(rs.root_attempts);
    telemetry::counter("nue.reroute_roots_screened")
        .add_always(rs.roots_screened);
  }
  return rr;
}

std::vector<EscapeRootVerdict> escape_root_verdicts(const Network& net,
                                                    const RoutingResult& old) {
  const LayerSplit split = split_layers(net, old);
  const CdgIndex idx(net);
  const NueOptions opt;
  NueStats stats;
  Arena arena;
  std::vector<EscapeRootVerdict> out;
  for (std::uint32_t layer = 0; layer < old.num_vls(); ++layer) {
    const std::vector<NodeId>& to_route = split.affected[layer];
    if (to_route.empty()) continue;
    const auto deps = surviving_deps(net, old, split, layer);
    DependencyOrder screen = dependency_order(net, deps);
    for (NodeId r : net.switches()) {
      if (!net.node_alive(r)) continue;
      EscapeRootVerdict v;
      v.layer = layer;
      v.root = r;
      v.screened = screen.acyclic_with(escape_dependencies(net, r, to_route));
      LayerRouter router(net, idx, r, opt, stats, arena);
      router.premark_bulk(deps);
      v.fitted = router.init_escape_paths(to_route);
      out.push_back(v);
    }
  }
  return out;
}

RoutingResult route_nue(const Network& net, const std::vector<NodeId>& dests,
                        const NueOptions& opt, NueStats* stats) {
  TELEM_SPAN("nue.route");
  NUE_CHECK(opt.num_vls >= 1);
  NueStats local;
  NueStats& st = stats ? *stats : local;
  st = NueStats{};

  // Sequential RNG prologue: every draw from the shared generator happens
  // here, in layer order — the partitioning, then each non-empty subset's
  // shuffle. The shuffle randomizes the routing order because consecutive
  // ids are usually terminals of the same switch whose near-identical
  // trees would pile dependencies onto the same channels before the
  // balancing weights can react. LayerRouter itself never draws, so the
  // layers below can run concurrently with output bit-identical to the
  // serial engine at every thread count (docs/PARALLELISM.md).
  Rng rng(opt.seed);
  std::vector<std::vector<NodeId>> parts;
  {
    TELEM_SPAN("nue.partition");
    parts = partition_destinations(net, dests, opt.num_vls, opt.partition,
                                   rng);
    for (std::uint32_t layer = 0; layer < opt.num_vls; ++layer) {
      if (!parts[layer].empty()) rng.shuffle(parts[layer]);
    }
  }

  RoutingResult rr(net.num_nodes(), dests, opt.num_vls, VlMode::kPerDest);
  const CdgIndex idx(net);

  // One task per virtual layer. Each writes only its own destinations'
  // table columns (disjoint memory) and its own stats slot; the merge
  // below runs in layer order, so nothing depends on scheduling.
  std::vector<NueStats> layer_stats(opt.num_vls);
  parallel_for(
      resolve_threads(opt.num_threads), opt.num_vls, [&](std::size_t layer) {
        TELEM_SPAN("nue.layer");
        const auto& subset = parts[layer];
        if (subset.empty()) {
          layer_stats[layer].roots.push_back(kInvalidNode);
          return;
        }
        NueStats& ls = layer_stats[layer];
        NodeId root;
        if (opt.central_root) {
          TELEM_SPAN("nue.escape_root");
          root = select_escape_root(net, subset, opt.betweenness_pivots);
        } else {
          // Ablation: arbitrary (first alive switch).
          root = kInvalidNode;
          for (NodeId v = 0; v < net.num_nodes() && root == kInvalidNode;
               ++v) {
            if (net.node_alive(v) && net.is_switch(v)) root = v;
          }
        }
        ls.roots.push_back(root);

        Arena arena;
        LayerRouter router(net, idx, root, opt, ls, arena);
        {
          TELEM_SPAN("nue.escape_paths");
          const bool tree_ok = router.init_escape_paths(subset);
          NUE_CHECK_MSG(tree_ok, "escape paths must stay acyclic");
        }
        for (NodeId d : subset) {
          TELEM_SPAN("nue.dest");
          const std::uint32_t di = rr.dest_index(d);
          rr.set_dest_vl(di, static_cast<std::uint8_t>(layer));
          router.route_destination(d, rr, di);
        }
        add_cdg_stats(ls, router);
      });
  for (std::uint32_t layer = 0; layer < opt.num_vls; ++layer) {
    merge_stats(st, layer_stats[layer]);
  }
  publish_stats(st);
  return rr;
}

}  // namespace nue
