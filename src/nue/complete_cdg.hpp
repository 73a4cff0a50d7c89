// Per-virtual-layer state of the complete channel dependency graph
// (Definitions 5 and 6) with the ω subgraph-numbering optimization of
// Section 4.6.1.
//
// Vertices are the network's channels; edges come from a shared CdgIndex.
// Vertex state lives in two structures sized for 10^5+-switch fabrics
// (docs/SCALING.md):
//   * used_  — a word-packed bitset: the ω membership test (is this
//     channel part of the used subgraph?) is the single hottest query of
//     the layer Dijkstra, and it now costs one bit probe on a cache line
//     holding 512 neighbouring channels instead of a byte load per id.
//   * comp_  — a flat component label per used channel (0 = unused). The
//     paper relabels whole arrays on every merge; the old code used a
//     union–find (pointer chasing on every test); here equality of two
//     labels IS the component test — O(1), no chasing — and merges
//     relabel the smaller member list into the larger (amortized
//     O(log C) relabels per channel). Component ids are recycled through
//     a free list so long layers don't grow the table without bound.
// Edge state: unused / used / blocked(-1). Escape-path dependencies and the
// dependencies of completed routing steps are permanent (never removed, as
// in the paper); the *transient* marks of the step in flight are journaled
// and purged by end_step() so that the maintained graph stays exactly the
// routing-induced CDG of Definition 4 plus the escape paths.
//
// The purge is incremental: each reverted mark is swap-removed from the
// used-edge adjacency and a per-channel incident-degree counter retires
// channels whose last dependency disappears. (The previous implementation
// rebuilt ω and the adjacency from the permanent journal — O(channels)
// per destination, the quadratic wall this file used to hit at scale.)
// Component labels are deliberately NOT split on removal: labels only
// ever merge, so they describe a supergraph of the surviving
// dependencies, and "labels differ" still proves "no path" — condition
// (c) stays exact in the only direction that matters for correctness,
// while a stale same-label answer merely downgrades to the condition (d)
// cycle search that the Pearce–Kelly order resolves in O(1) when it
// already agrees with the new edge. Routing tables are bit-identical
// either way (both conditions run the same topo_insert); only the
// merge/search statistics shift.
//
// The Pearce–Kelly order is a permutation held twice: ord_ maps a channel
// to its position and at_ maps a position back to its channel; every
// write goes through place(), which keeps the two inverse. An insertion
// against the order reorders only the window [ord(b), ord(a)]: after the
// forward and backward searches, one walk of the window's positions
// through at_ meets both regions already in position order, together
// with their pooled positions in ascending order, so the repair needs no
// sort. A window with more than kScanRatio positions per region member
// (long windows with few members, common on 10^5-switch tori) is cheaper
// to sort than to walk, so there one sort of (position, channel) keys
// yields the same ordered pass. Either way the result is the permutation
// the textbook repair gets from sorting both regions and the pool, so
// ord_ — and every decision that reads it — is unchanged.
//
// Orientation: everything here lives in *search orientation* (paths grow
// from the destination outward, Algorithm 1); the traffic-induced CDG is
// the edge-reversed image under c -> reverse(c), an isomorphism that
// preserves acyclicity, so Theorem 1 applies to the real traffic.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "graph/network.hpp"
#include "routing/cdg_index.hpp"
#include "util/bitset.hpp"
#include "util/error.hpp"

namespace nue {

class CompleteCdg {
 public:
  using EdgeId = CdgIndex::EdgeId;

  struct Stats {
    std::uint64_t dfs_searches = 0;   // condition (d) cycle searches
    std::uint64_t dfs_steps = 0;      // channels visited by those searches
    std::uint64_t merges = 0;         // condition (c) subgraph merges
    std::uint64_t blocked_edges = 0;  // edges turned into restrictions
    std::uint64_t fast_accepts = 0;   // conditions (a)/(b) resolved O(1)
  };

  CompleteCdg(const Network& net, const CdgIndex& idx)
      : net_(&net),
        idx_(&idx),
        used_(net.num_channels()),
        comp_(net.num_channels(), 0),
        used_deg_(net.num_channels(), 0),
        estate_(idx.num_edges(), 0),
        used_succ_(net.num_channels()),
        used_pred_(net.num_channels()),
        ord_(net.num_channels()),
        at_(net.num_channels()),
        stamp_f_(net.num_channels(), 0),
        stamp_b_(net.num_channels(), 0) {
    comp_members_.emplace_back();  // component ids start at 1
    for (std::uint32_t i = 0; i < ord_.size(); ++i) ord_[i] = at_[i] = i;
  }

  // --- state queries --------------------------------------------------------

  bool channel_used(ChannelId c) const { return used_[c]; }
  bool edge_used(EdgeId e) const { return estate_[e] == 1; }
  bool edge_blocked(EdgeId e) const { return estate_[e] == -1; }
  /// The channel's position in the maintained topological order.
  std::uint32_t order_position(ChannelId c) const { return ord_[c]; }
  const Stats& stats() const { return stats_; }

  // --- mutation -------------------------------------------------------------

  /// Mark a channel used in a fresh subgraph component (no-op if used).
  void mark_channel_used(ChannelId c) {
    if (!used_[c]) {
      used_.set(c);
      const std::uint32_t id = new_component();
      comp_[c] = id;
      comp_members_[id].push_back(c);
    }
  }

  /// Mark edge (c1 -> c2) used and merge components, permanently (it
  /// survives every step purge), unless it would close a cycle with the
  /// dependencies already present: escape-path setup on a fresh CDG never
  /// does, but incremental rerouting pre-marks the preserved columns'
  /// dependencies, and a fresh escape tree is not guaranteed to be
  /// compatible with them. Returns false on a cycle, leaving the edge
  /// unused.
  bool try_force_edge_used(ChannelId c1, ChannelId c2) {
    const EdgeId e = idx_->edge_id(c1, c2);
    NUE_CHECK_MSG(e != CdgIndex::kNoEdge, "not a complete-CDG edge");
    if (estate_[e] == 1) {
      // Already used; promote a step mark to permanent.
      for (auto it = step_edges_.begin(); it != step_edges_.end(); ++it) {
        if (it->e == e) {
          permanent_edges_.push_back(*it);
          step_edges_.erase(it);
          break;
        }
      }
      return true;
    }
    if (estate_[e] == -1) return false;
    mark_channel_used(c1);
    mark_channel_used(c2);
    if (!topo_insert(c1, c2)) return false;
    set_edge_used(e, c1, c2, /*permanent=*/true);
    return true;
  }

  /// Bulk-load a jointly-acyclic permanent dependency set into an EMPTY
  /// CDG. Incremental rerouting pre-marks the old table's surviving
  /// per-layer dependencies — all drawn from one validated, acyclic CDG,
  /// so they cannot conflict with each other — before anything else is
  /// placed; loading them edge-by-edge would pay one Pearce–Kelly
  /// insertion each, which dominates the repair latency. Here a single
  /// Kahn pass over the loaded subgraph assigns the topological order:
  /// the participating channels' current ord_ positions are pooled and
  /// handed back in topological order, so ord_ stays a permutation and
  /// every untouched channel keeps its position. Acceptance is exact
  /// either way (topo_insert is an exact cycle check), so routing results
  /// are unchanged — only the setup cost drops from O(E) insertions to
  /// one linear pass. Dies on a cyclic input (caller contract).
  void force_edges_bulk(
      const std::vector<std::pair<ChannelId, ChannelId>>& edges) {
    NUE_CHECK_MSG(permanent_edges_.empty() && step_edges_.empty(),
                  "bulk dependency load needs an empty CDG");
    for (const auto& [c1, c2] : edges) {
      const EdgeId e = idx_->edge_id(c1, c2);
      NUE_CHECK_MSG(e != CdgIndex::kNoEdge, "not a complete-CDG edge");
      if (estate_[e] == 1) continue;  // duplicate across columns
      NUE_CHECK(estate_[e] == 0);
      mark_channel_used(c1);
      mark_channel_used(c2);
      set_edge_used(e, c1, c2, /*permanent=*/true);
    }
    ++generation_;
    std::vector<ChannelId> region;
    const auto touch = [&](ChannelId c) {
      if (stamp_f_[c] != generation_) {
        stamp_f_[c] = generation_;
        region.push_back(c);
      }
    };
    for (const auto& rec : permanent_edges_) {
      touch(rec.c1);
      touch(rec.c2);
    }
    std::sort(region.begin(), region.end());  // deterministic worklist
    pool_.clear();
    for (ChannelId c : region) pool_.push_back(ord_[c]);
    std::sort(pool_.begin(), pool_.end());
    std::vector<std::uint32_t> indeg(net_->num_channels(), 0);
    for (ChannelId c : region) {
      for (ChannelId w : used_succ_[c]) ++indeg[w];
    }
    fnodes_.clear();
    for (ChannelId c : region) {
      if (indeg[c] == 0) fnodes_.push_back(c);
    }
    std::size_t taken = 0;
    for (std::size_t i = 0; i < fnodes_.size(); ++i) {
      const ChannelId c = fnodes_[i];
      place(c, pool_[taken++]);
      for (ChannelId w : used_succ_[c]) {
        if (--indeg[w] == 0) fnodes_.push_back(w);
      }
    }
    NUE_CHECK_MSG(taken == region.size(),
                  "bulk-loaded dependencies must be acyclic");
  }

  // --- per-destination step lifecycle ----------------------------------------
  //
  // During one routing step (one destination), Algorithm 1 marks every
  // accepted relaxation `used` and every rejected one `blocked`. Most of
  // the used marks are superseded when a node later finds a better inbound
  // channel; only the dependencies of the *final* tree are real (the CDG
  // of Definition 4 is induced by the routing function, not by the search
  // history). end_step() therefore reverts all non-final marks of the step
  // and clears the step's blocked memoization (which was relative to the
  // larger transient graph), retiring channels whose last incident
  // dependency disappears. Without this purge the restrictions pile
  // up and the escape-path fallback rate explodes on dense multigraphs.

  void begin_step() {
    step_edges_.clear();
    step_blocked_.clear();
  }

  /// `keep` flags (indexed by dense edge id, num_edges entries) select
  /// which of this step's used marks are real dependencies of the final
  /// paths. Incremental: cost is O(reverted marks), independent of fabric
  /// size. Taken as a raw pointer so arena-sliced flag arrays pass
  /// without an owning container.
  void end_step(const std::uint8_t* keep) {
    for (const auto& rec : step_edges_) {
      if (keep[rec.e]) {
        permanent_edges_.push_back(rec);
      } else {
        remove_used_edge(rec);
      }
    }
    if (!keep_blocked_across_steps_) {
      for (const EdgeId e : step_blocked_) estate_[e] = 0;
      step_blocked_.clear();
    }
    step_edges_.clear();
  }

  /// Internal consistency check (used by the property tests):
  ///  - the topological order is consistent with every used edge, and
  ///    ord_ is a permutation whose inverse is at_,
  ///  - the used-successor adjacency matches the permanent + step journals,
  ///  - every journaled edge is in the `used` state,
  ///  - ω marks exactly cover the channels with incident used edges plus
  ///    the explicitly marked roots, and component labels never separate
  ///    the endpoints of a used edge.
  bool check_invariants() const {
    for (ChannelId c = 0; c < ord_.size(); ++c) {
      if (ord_[c] >= at_.size() || at_[ord_[c]] != c) return false;
    }
    for (ChannelId c = 0; c < used_succ_.size(); ++c) {
      for (ChannelId w : used_succ_[c]) {
        if (!(ord_[c] < ord_[w])) return false;
        if (!used_[c] || !used_[w]) return false;
        if (comp_[c] == 0 || comp_[c] != comp_[w]) return false;
      }
    }
    std::size_t adjacency_edges = 0;
    for (const auto& sl : used_succ_) adjacency_edges += sl.size();
    if (adjacency_edges != permanent_edges_.size() + step_edges_.size()) {
      return false;
    }
    for (const auto& rec : permanent_edges_) {
      if (estate_[rec.e] != 1) return false;
    }
    for (const auto& rec : step_edges_) {
      if (estate_[rec.e] != 1) return false;
    }
    return true;
  }

  /// Policy knob (ablation): retain blocked marks across destination
  /// steps. Restrictions then accumulate as in the paper's text, trading
  /// search freedom for fewer repeated cycle searches.
  void set_keep_blocked(bool keep) { keep_blocked_across_steps_ = keep; }

  /// Assign one shared component id to a set of channels (the paper marks
  /// all escape paths with ω = 1; sharing an id across disconnected parts
  /// is conservative — condition (d) just falls back to a DFS).
  void unify_components(const std::vector<ChannelId>& channels) {
    std::uint32_t root = 0;
    for (ChannelId c : channels) {
      mark_channel_used(c);
      if (root == 0) {
        root = comp_[c];
      } else {
        root = unite(root, comp_[c]);
      }
    }
  }

  /// Algorithm 3 with check-before-mark semantics: try to use dependency
  /// (c1 -> c2), where c1 is already used. Returns true and marks the edge
  /// used on success; returns false and marks the edge blocked when the
  /// dependency would close a cycle. Edges already used return true in
  /// O(1); already blocked return false in O(1).
  bool try_use_edge(ChannelId c1, ChannelId c2) {
    const EdgeId e = idx_->edge_id(c1, c2);
    NUE_DCHECK(e != CdgIndex::kNoEdge);
    return try_use_edge_by_id(e, c1, c2);
  }

  bool try_use_edge_by_id(EdgeId e, ChannelId c1, ChannelId c2) {
    NUE_DCHECK(used_[c1]);
    if (estate_[e] == -1) {  // condition (a)
      ++stats_.fast_accepts;
      return false;
    }
    if (estate_[e] == 1) {  // condition (b)
      ++stats_.fast_accepts;
      return true;
    }
    if (!used_[c2] || comp_[c1] != comp_[c2]) {
      // condition (c): connecting disjoint acyclic subgraphs cannot close
      // a cycle; the insertion below only restores the topological order.
      // (Labels only merge, never split, so "labels differ" is an exact
      // disconnection proof even after step purges.)
      ++stats_.merges;
      const bool ok = topo_insert(c1, c2);
      NUE_DCHECK(ok);
      (void)ok;
      set_edge_used(e, c1, c2);
      return true;
    }
    // condition (d): same component — a cycle search is required. The
    // incremental topological order makes it O(1) whenever the order
    // already agrees with the new edge, and bounded otherwise.
    ++stats_.dfs_searches;
    if (!topo_insert(c1, c2)) {
      estate_[e] = -1;
      step_blocked_.push_back(e);
      ++stats_.blocked_edges;
      return false;
    }
    set_edge_used(e, c1, c2);
    return true;
  }

  /// Atomic feasibility check for re-pointing a node's inbound channel
  /// (impasse backtracking §4.6.2 / shortcuts §4.6.3): would using edge
  /// (c_in -> c_new) together with edges (c_new -> out_i) for every out_i
  /// close a cycle? No state is modified; commit with commit_switch().
  /// Any already-blocked member edge fails the check.
  bool switch_feasible(ChannelId c_in, ChannelId c_new,
                       const std::vector<ChannelId>& outs) {
    {
      const EdgeId e = idx_->edge_id(c_in, c_new);
      if (e == CdgIndex::kNoEdge || estate_[e] == -1) return false;
    }
    for (ChannelId o : outs) {
      const EdgeId e = idx_->edge_id(c_new, o);
      if (e == CdgIndex::kNoEdge || estate_[e] == -1) return false;
    }
    // Cycle possibilities through the new edges:
    //  - c_in reachable from c_new           (closes via c_in -> c_new)
    //  - c_new or c_in reachable from out_i  (closes via c_new -> out_i
    //                                         [+ c_in -> c_new])
    if (channel_used(c_new) && reachable(c_new, c_in)) return false;
    for (ChannelId o : outs) {
      if (!channel_used(o)) continue;
      if (reachable2(o, c_new, c_in)) return false;
    }
    return true;
  }

  /// switch_feasible() without an inbound edge: only the out-star
  /// (c_new -> out_i). Used when c_new starts at the search source.
  bool switch_feasible_star(ChannelId c_new,
                            const std::vector<ChannelId>& outs) {
    for (ChannelId o : outs) {
      const EdgeId e = idx_->edge_id(c_new, o);
      if (e == CdgIndex::kNoEdge || estate_[e] == -1) return false;
    }
    for (ChannelId o : outs) {
      if (!channel_used(o)) continue;
      if (reachable(o, c_new)) return false;
    }
    return true;
  }

  /// Commit a switch previously validated by switch_feasible().
  void commit_switch(ChannelId c_in, ChannelId c_new,
                     const std::vector<ChannelId>& outs) {
    const bool ok1 = try_use_edge(c_in, c_new);
    NUE_CHECK(ok1);
    for (ChannelId o : outs) {
      const bool ok = try_use_edge(c_new, o);
      NUE_CHECK(ok);
    }
  }

 private:
  /// topo_insert walks a reorder window of up to this many positions per
  /// member of the regions it moves; a sparser window sorts the members.
  static constexpr std::size_t kScanRatio = 16;

  struct EdgeRec {
    EdgeId e;
    ChannelId c1, c2;
  };

  std::uint32_t new_component() {
    if (!free_comps_.empty()) {
      const std::uint32_t id = free_comps_.back();
      free_comps_.pop_back();
      return id;
    }
    comp_members_.emplace_back();
    return static_cast<std::uint32_t>(comp_members_.size() - 1);
  }

  /// Merge two component labels: relabel the smaller member list into the
  /// larger and recycle the losing id. Member lists may hold stale
  /// entries for channels that were retired or relabeled since; they are
  /// dropped when their list is walked. Returns the surviving label.
  std::uint32_t unite(std::uint32_t a, std::uint32_t b) {
    if (a == b) return a;
    if (comp_members_[a].size() < comp_members_[b].size()) std::swap(a, b);
    auto& winner = comp_members_[a];
    for (ChannelId c : comp_members_[b]) {
      if (comp_[c] == b) {
        comp_[c] = a;
        winner.push_back(c);
      }
    }
    comp_members_[b].clear();
    free_comps_.push_back(b);
    return a;
  }

  void set_edge_used(EdgeId e, ChannelId c1, ChannelId c2,
                     bool permanent = false) {
    estate_[e] = 1;
    mark_channel_used(c2);
    used_succ_[c1].push_back(c2);
    used_pred_[c2].push_back(c1);
    ++used_deg_[c1];
    ++used_deg_[c2];
    unite(comp_[c1], comp_[c2]);
    (permanent ? permanent_edges_ : step_edges_).push_back({e, c1, c2});
  }

  /// Revert one step mark: O(degree) swap-removal from the used-edge
  /// adjacency plus retirement of channels losing their last dependency.
  void remove_used_edge(const EdgeRec& rec) {
    estate_[rec.e] = 0;
    swap_erase(used_succ_[rec.c1], rec.c2);
    swap_erase(used_pred_[rec.c2], rec.c1);
    drop_incident(rec.c1);
    drop_incident(rec.c2);
    // ord_ stays valid: removing edges never invalidates a topological
    // order of the remaining graph.
  }

  static void swap_erase(std::vector<ChannelId>& list, ChannelId value) {
    for (std::size_t i = 0; i < list.size(); ++i) {
      if (list[i] == value) {
        list[i] = list.back();
        list.pop_back();
        return;
      }
    }
    NUE_CHECK_MSG(false, "used-edge adjacency out of sync");
  }

  /// A channel whose last incident used edge was reverted leaves ω (its
  /// stale component-member entry is dropped lazily on the next merge).
  void drop_incident(ChannelId c) {
    if (--used_deg_[c] == 0) {
      used_.reset(c);
      comp_[c] = 0;
    }
  }

  /// DFS over used edges: is `target` reachable from `from`?
  /// Prunes with the maintained topological order: any path only moves to
  /// larger positions, so subtrees at positions past the target are dead.
  bool reachable(ChannelId from, ChannelId target) {
    return reachable2(from, target, target);
  }

  /// DFS: does `from` reach target1 or target2?
  bool reachable2(ChannelId from, ChannelId t1, ChannelId t2) {
    const std::uint32_t bound = std::max(ord_[t1], ord_[t2]);
    if (ord_[from] > bound) return false;
    ++generation_;
    dfs_stack_.clear();
    dfs_stack_.push_back(from);
    stamp_f_[from] = generation_;
    while (!dfs_stack_.empty()) {
      const ChannelId v = dfs_stack_.back();
      dfs_stack_.pop_back();
      for (ChannelId w : used_succ_[v]) {
        ++stats_.dfs_steps;
        if (w == t1 || w == t2) return true;
        if (ord_[w] < bound && stamp_f_[w] != generation_) {
          stamp_f_[w] = generation_;
          dfs_stack_.push_back(w);
        }
      }
    }
    return false;
  }

  /// Pearce–Kelly incremental topological order maintenance: make the
  /// order consistent with a new edge (a -> b), or report a cycle (and
  /// change nothing). The search is confined to the affected region
  /// [ord(b), ord(a)], which keeps the common case O(1).
  bool topo_insert(ChannelId a, ChannelId b) {
    if (ord_[a] < ord_[b]) return true;
    const std::uint32_t lb = ord_[b];
    const std::uint32_t ub = ord_[a];
    // Forward region: reachable from b with ord <= ub.
    ++generation_;
    fnodes_.clear();
    fnodes_.push_back(b);
    stamp_f_[b] = generation_;
    for (std::size_t i = 0; i < fnodes_.size(); ++i) {
      for (ChannelId w : used_succ_[fnodes_[i]]) {
        ++stats_.dfs_steps;
        if (w == a) return false;  // cycle
        if (ord_[w] < ub && stamp_f_[w] != generation_) {
          stamp_f_[w] = generation_;
          fnodes_.push_back(w);
        }
      }
    }
    // Backward region: reaching a with ord >= lb.
    bnodes_.clear();
    bnodes_.push_back(a);
    stamp_b_[a] = generation_;
    for (std::size_t i = 0; i < bnodes_.size(); ++i) {
      for (ChannelId w : used_pred_[bnodes_[i]]) {
        ++stats_.dfs_steps;
        if (ord_[w] > lb && stamp_b_[w] != generation_) {
          stamp_b_[w] = generation_;
          bnodes_.push_back(w);
        }
      }
    }
    // Redistribute the affected positions: all of B (in relative order)
    // before all of F (in relative order). One pass over the members in
    // position order lists each set and pools their positions; a dense
    // window is walked through at_, a sparse one sorted by key.
    const auto take = [&](ChannelId x, std::uint32_t p) {
      (stamp_b_[x] == generation_ ? bnodes_ : fnodes_).push_back(x);
      pool_.push_back(p);
    };
    if (ub - lb > kScanRatio * (fnodes_.size() + bnodes_.size())) {
      keys_.clear();
      for (ChannelId x : bnodes_) keys_.push_back(order_key(x));
      for (ChannelId x : fnodes_) keys_.push_back(order_key(x));
      std::sort(keys_.begin(), keys_.end());
      bnodes_.clear();
      fnodes_.clear();
      pool_.clear();
      for (const std::uint64_t k : keys_) {
        take(static_cast<ChannelId>(k), static_cast<std::uint32_t>(k >> 32));
      }
    } else {
      bnodes_.clear();
      fnodes_.clear();
      pool_.clear();
      for (std::uint32_t p = lb; p <= ub; ++p) {
        const ChannelId x = at_[p];
        if (stamp_b_[x] == generation_ || stamp_f_[x] == generation_) {
          take(x, p);
        }
      }
    }
    std::size_t i = 0;
    for (ChannelId x : bnodes_) place(x, pool_[i++]);
    for (ChannelId x : fnodes_) place(x, pool_[i++]);
    return true;
  }

  /// A channel's sort key by order position: the position in the high
  /// half, the channel (unique per position) in the low half.
  std::uint64_t order_key(ChannelId c) const {
    return std::uint64_t{ord_[c]} << 32 | c;
  }

  void place(ChannelId c, std::uint32_t pos) {
    ord_[c] = pos;
    at_[pos] = c;
  }

  const Network* net_;
  const CdgIndex* idx_;
  std::vector<EdgeRec> permanent_edges_;
  std::vector<EdgeRec> step_edges_;
  std::vector<EdgeId> step_blocked_;
  DynamicBitset used_;                   // ω membership, word-packed
  std::vector<std::uint32_t> comp_;      // flat ω component labels
  std::vector<std::uint32_t> used_deg_;  // incident used edges per channel
  std::vector<std::vector<ChannelId>> comp_members_;
  std::vector<std::uint32_t> free_comps_;
  std::vector<std::int8_t> estate_;
  std::vector<std::vector<ChannelId>> used_succ_;
  std::vector<std::vector<ChannelId>> used_pred_;
  std::vector<std::uint32_t> ord_;       // channel -> order position
  std::vector<ChannelId> at_;            // order position -> channel
  std::vector<std::uint32_t> stamp_f_;
  std::vector<std::uint32_t> stamp_b_;
  std::vector<ChannelId> dfs_stack_;
  std::vector<ChannelId> fnodes_;
  std::vector<ChannelId> bnodes_;
  std::vector<std::uint32_t> pool_;
  std::vector<std::uint64_t> keys_;
  std::uint32_t generation_ = 0;
  bool keep_blocked_across_steps_ = false;
  Stats stats_;
};

}  // namespace nue
