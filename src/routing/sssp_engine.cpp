#include "routing/sssp_engine.hpp"

#include <limits>

#include "heap/dary_heap.hpp"
#include "telemetry/telemetry.hpp"
#include "util/error.hpp"

namespace nue {

namespace {

/// dest_tree with caller-provided heap scratch (cleared on entry), so the
/// balanced sweep reuses one heap across all its trees.
DestTree dest_tree_with(const Network& net, NodeId dest,
                        const std::vector<double>& weights,
                        DaryHeap<double>& heap) {
  NUE_CHECK(net.node_alive(dest));
  NUE_CHECK(weights.size() == net.num_channels());
  heap.clear();
  DestTree t;
  t.dest = dest;
  t.next.assign(net.num_nodes(), kInvalidChannel);
  t.distance.assign(net.num_nodes(),
                    std::numeric_limits<double>::infinity());
  t.settle_order.reserve(net.num_alive_nodes());
  t.distance[dest] = 0.0;
  heap.insert(dest, 0.0);
  // Decrease-keys are tallied locally and flushed once per tree so the
  // hot relaxation loop never touches a shared atomic.
  std::uint64_t decrease_keys = 0;
  while (!heap.empty()) {
    const NodeId v = heap.extract_min();
    t.settle_order.push_back(v);
    // Relax the predecessors of v: traffic channel e = (w -> v) is the
    // reverse of the out-channel (v -> w).
    for (ChannelId c : net.out(v)) {
      const NodeId w = net.dst(c);
      const ChannelId e = reverse(c);
      NUE_DCHECK(weights[e] > 0.0);
      const double nd = t.distance[v] + kHopWeight + weights[e];
      if (nd < t.distance[w]) {
        if (t.next[w] != kInvalidChannel) ++decrease_keys;
        t.distance[w] = nd;
        t.next[w] = e;
        heap.insert_or_decrease(w, nd);
      }
    }
  }
  if (decrease_keys != 0 && telemetry::enabled()) {
    static auto& counter = telemetry::counter("sssp.heap_decrease_keys");
    counter.add_always(decrease_keys);
  }
  return t;
}

}  // namespace

DestTree dest_tree(const Network& net, NodeId dest,
                   const std::vector<double>& weights) {
  DaryHeap<double> heap(net.num_nodes());
  return dest_tree_with(net, dest, weights, heap);
}

std::vector<DestTree> build_balanced_trees(const Network& net,
                                           const std::vector<NodeId>& dests,
                                           std::vector<double>& weights) {
  TELEM_SPAN("sssp.balanced_trees");
  std::vector<DestTree> trees;
  trees.reserve(dests.size());
  DaryHeap<double> heap(net.num_nodes());
  for (NodeId d : dests) {
    trees.push_back(dest_tree_with(net, d, weights, heap));
    apply_weight_update(weights, tree_channel_usage(net, trees.back()));
  }
  return trees;
}

std::vector<std::uint32_t> tree_channel_usage(const Network& net,
                                              const DestTree& tree) {
  std::vector<std::uint32_t> usage(net.num_channels(), 0);
  std::vector<std::uint32_t> subtree(net.num_nodes(), 0);
  // Farthest-first accumulation of terminal counts down the in-tree.
  for (auto it = tree.settle_order.rbegin(); it != tree.settle_order.rend();
       ++it) {
    const NodeId v = *it;
    if (v == tree.dest) continue;
    std::uint32_t cnt = subtree[v];
    if (net.is_terminal(v)) ++cnt;
    if (cnt == 0) continue;
    const ChannelId e = tree.next[v];
    NUE_DCHECK(e != kInvalidChannel);
    usage[e] += cnt;
    subtree[net.dst(e)] += cnt;
  }
  return usage;
}

void apply_weight_update(std::vector<double>& weights,
                         const std::vector<std::uint32_t>& usage) {
  NUE_CHECK(weights.size() == usage.size());
  for (std::size_t c = 0; c < weights.size(); ++c) {
    weights[c] += static_cast<double>(usage[c]);
  }
}

}  // namespace nue
