// Nue routing (Section 4): deadlock-free, oblivious, destination-based
// routing computed *inside* the complete channel dependency graph, for any
// fixed number of virtual lanes k >= 1.
//
// Pipeline per virtual layer (Algorithm 2):
//   1. partition destinations into k subsets (multilevel k-way / random /
//      clustered, §4.5),
//   2. convex subgraph of the subset + Brandes betweenness to pick the
//      escape-tree root (§4.3),
//   3. escape paths from a BFS spanning tree pre-marked `used` (§4.2),
//   4. per destination: modified Dijkstra within the complete CDG
//      (Algorithm 1) with the ω cycle-search memoization (§4.6.1, Alg. 3),
//      local impasse backtracking (§4.6.2) and island shortcuts (§4.6.3),
//   5. DFSSSP-style channel weight updates for global balance.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/network.hpp"
#include "partition/partition.hpp"
#include "routing/routing.hpp"
#include "util/rng.hpp"

namespace nue {

struct NueOptions {
  std::uint32_t num_vls = 1;
  PartitionStrategy partition = PartitionStrategy::kKway;
  /// Escape-tree root selection: betweenness-central node of the convex
  /// subgraph (paper) vs. an arbitrary node (ablation).
  bool central_root = true;
  /// §4.6.2 local backtracking on impasses (ablation switch). When off,
  /// any impasse immediately falls back to the escape paths.
  bool backtracking = true;
  /// §4.6.3 shortcuts: let resolved islands shorten already-settled nodes.
  bool shortcuts = true;
  /// Keep blocked-edge marks across destination steps, so routing
  /// restrictions accumulate for the layer's lifetime exactly as in the
  /// paper (§4.6.1 relies on it: a condition-(d) search runs at most once
  /// per edge per layer). Transient `used` marks of superseded relaxations
  /// are still purged per step — only real dependencies persist
  /// (Definition 4). Disabling this re-evaluates every restriction per
  /// step: marginally fewer escape fallbacks on some fabrics, but several
  /// times slower (ablation bench compares both).
  bool sticky_restrictions = true;
  /// Incremental rerouting only: escape-root hints indexed by virtual
  /// layer (kInvalidNode = no hint; dead or non-switch entries ignored).
  /// The previous table's roots are the natural candidates — their full
  /// escape trees were force-marked in that table's CDG, so a BFS tree
  /// from the same root on the degraded fabric is almost always
  /// compatible with the surviving old dependencies, making the hitless
  /// repair succeed on the first attempt instead of sweeping roots.
  std::vector<NodeId> escape_root_hints;
  /// Pivot count for the sampled Brandes betweenness behind the escape-root
  /// selection (betweenness_centrality_sampled): 0 = exact Brandes, the
  /// right default for Fig.-scale fabrics; a few hundred pivots make root
  /// selection tractable at 10^5+ switches with near-identical root
  /// rankings (docs/SCALING.md). Changing the pivot count can change the
  /// selected roots — tables remain deterministic for a fixed value.
  std::size_t betweenness_pivots = 0;
  std::uint64_t seed = 1;
  /// Worker threads for routing the virtual layers (0 = process default
  /// from --threads, 1 = serial). Layers are independent by construction
  /// (§4.5 partitions the destinations), and all RNG draws happen in a
  /// sequential prologue, so the result is bit-identical to the serial
  /// engine at every thread count (docs/PARALLELISM.md).
  std::uint32_t num_threads = 0;
};

struct NueStats {
  std::size_t fallbacks = 0;         // destinations routed via escape paths
  std::size_t islands_resolved = 0;  // impasses fixed by backtracking
  std::size_t islands_unresolved = 0;  // impasses that forced a fallback
  std::size_t backtrack_option1 = 0;   // resolved via the current chain
  std::size_t backtrack_option2 = 0;   // resolved via an alternative switch
  std::size_t shortcuts_taken = 0;   // settled nodes improved via islands
  std::uint64_t cycle_searches = 0;  // condition-(d) DFS invocations
  std::uint64_t cycle_search_steps = 0;
  std::uint64_t fast_accepts = 0;    // O(1) accepts via conditions (a)/(b)
  /// Escape root per virtual layer (layer-indexed; kInvalidNode for a
  /// layer that routed nothing — empty subset, or every column reused).
  std::vector<NodeId> roots;
};

/// Route every node in `dests` (paths from all nodes to each destination).
/// Never fails on a connected network: Lemma 3 guarantees connectivity for
/// any k >= 1.
RoutingResult route_nue(const Network& net, const std::vector<NodeId>& dests,
                        const NueOptions& opt = {},
                        NueStats* stats = nullptr);

/// Escape-root selection for one destination subset (exposed for tests and
/// the root-selection ablation bench): the node of the convex subgraph of
/// `subset` with maximum betweenness centrality. `pivots` != 0 swaps the
/// exact Brandes pass for the pivot-sampled estimator (see NueOptions).
NodeId select_escape_root(const Network& net,
                          const std::vector<NodeId>& subset,
                          std::size_t pivots = 0);

/// Number of distinct channel dependencies the escape paths of a BFS
/// spanning tree rooted at `root` impose toward the destinations `dests`
/// (the quantity Fig. 5 compares across root choices, §4.3): fewer initial
/// dependencies leave Nue more routing freedom.
std::size_t count_escape_dependencies(const Network& net, NodeId root,
                                      const std::vector<NodeId>& dests);

// --- fail-in-place incremental rerouting ------------------------------------

struct RerouteStats {
  std::size_t dests_kept = 0;       // columns reused unchanged
  std::size_t dests_rerouted = 0;   // columns recomputed
  /// Of the recomputed columns: how many went through the partial repair
  /// (intact region settled on its old channels, only the nodes orphaned
  /// by the failure re-searched). Requires the column's stale pre-marking
  /// to have skipped nothing; the rest pay a full column recompute.
  std::size_t dests_patched = 0;
  std::size_t dests_dropped = 0;    // destinations that died with a switch
  std::size_t dests_demoted = 0;    // intact columns recomputed anyway
                                    // because their dependencies clashed
                                    // with the new escape paths
  /// Stale dependencies of broken columns (still-alive hop pairs that
  /// in-flight packets may occupy until they hit the dead element) that
  /// could not be pre-marked because they clashed with the escape tree or
  /// other marks. 0 means the old+new union CDG is acyclic by
  /// construction — a hitless table swap (docs/RESILIENCE.md).
  std::size_t stale_marks_skipped = 0;
  /// Constraints-first escape trees fitted on a built router: the hint,
  /// and the first later root that passed the screen.
  std::size_t root_attempts = 0;
  /// Later roots (after a failed or missing hint) judged by the static
  /// screen — one acyclicity check each, no router built.
  std::size_t roots_screened = 0;
};

/// Fail-in-place rerouting (the paper's deployment context [7]): `net` is
/// the degraded fabric — same node/channel id space as when `old` was
/// computed, with elements removed. Forwarding columns untouched by the
/// failures are reused verbatim; only destinations whose routes crossed a
/// failed element (or that died themselves) are recomputed, inside a CDG
/// pre-seeded with the preserved columns' dependencies so the merged
/// routing stays deadlock-free (Theorem 1 applies to the union).
/// `stats` reports the work of the router that routed each layer, as
/// route_nue does; the ω-search counters of escape-root attempts that
/// were discarded (an incompatible escape tree, or a demotion restart)
/// are not counted.
RoutingResult reroute_nue(const Network& net, const RoutingResult& old,
                          const NueOptions& opt = {},
                          RerouteStats* reroute_stats = nullptr,
                          NueStats* stats = nullptr);

/// One escape-root decision of reroute_nue's constraints-first setup,
/// made both ways (see escape_root_verdicts).
struct EscapeRootVerdict {
  std::uint32_t layer = 0;
  NodeId root = kInvalidNode;
  bool screened = false;  // the static screen passes the root
  bool fitted = false;    // init_escape_paths accepts its tree on a router
                          // bulk-loaded with the layer's surviving deps
};

/// For every layer of `old` with columns to recompute on the degraded
/// `net`, and every alive switch as the escape root: the static screen's
/// verdict and the router's. reroute_nue builds a router only for a root
/// the screen passes, so its choice is the router's iff the two agree
/// everywhere. Exposed for the tests that hold them equal.
std::vector<EscapeRootVerdict> escape_root_verdicts(const Network& net,
                                                    const RoutingResult& old);

}  // namespace nue
