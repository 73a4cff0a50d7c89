// Shared engine for SSSP-based routing functions (MinHop-like, DFSSSP,
// LASH's per-destination trees): weighted single-destination shortest-path
// trees in traffic orientation with DFSSSP-style channel-weight updates
// for global path balancing [8, 17].
#pragma once

#include <cstdint>
#include <vector>

#include "graph/network.hpp"

namespace nue {

/// Shortest-path in-tree toward one destination.
/// next[v] = first channel of v's route toward the destination (traffic
/// direction), kInvalidChannel for the destination itself and dead nodes.
struct DestTree {
  NodeId dest = kInvalidNode;
  std::vector<ChannelId> next;
  std::vector<double> distance;
  /// Nodes in settle order (destination first); farthest-first iteration
  /// is the reverse.
  std::vector<NodeId> settle_order;
};

/// Hop-count dominance constant: effective channel cost is
/// kHopWeight + weight, so Dijkstra minimizes hop count first and uses the
/// accumulated balancing weights only to break ties among shortest paths —
/// DFSSSP/LASH are shortest-path routings (§5.1 reports max length 6 = the
/// topological optimum for them). Balancing weights stay far below this
/// (they sum path counts, < 1e9 in any of our experiments), and doubles
/// keep exact integer semantics till 2^53.
constexpr double kHopWeight = 1e10;

/// Dijkstra toward `dest` over `weights` (indexed by channel, traffic
/// direction), hop-minimal with weight tiebreak. Deterministic: exact ties
/// keep the first-found channel.
DestTree dest_tree(const Network& net, NodeId dest,
                   const std::vector<double>& weights);

/// Balanced tree set with the DFSSSP weight feedback: one tree per
/// destination in order, each computed over the weights left by the
/// trees before it (weights[c] += the tree's usage of c). Serial by
/// nature — tree i depends on trees 0..i-1 — and reuses one heap.
std::vector<DestTree> build_balanced_trees(const Network& net,
                                           const std::vector<NodeId>& dests,
                                           std::vector<double>& weights);

/// Number of terminal sources whose route crosses each channel of the
/// tree; used for both weight updates and forwarding-index accounting.
std::vector<std::uint32_t> tree_channel_usage(const Network& net,
                                              const DestTree& tree);

/// DFSSSP weight update: weights[c] += usage[c] for every used channel.
void apply_weight_update(std::vector<double>& weights,
                         const std::vector<std::uint32_t>& usage);

}  // namespace nue
