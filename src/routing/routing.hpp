// Routing function representation (Definition 3) shared by all routing
// engines (Nue and the baselines).
//
// A RoutingResult is a destination-based forwarding table: for every routed
// destination d and every node v, `next(v, d)` is the unique channel a
// packet at v takes toward d. Virtual-lane assignment comes in three
// flavours matching how real engines drive InfiniBand SL/VL:
//
//   kPerDest        — VL is a function of the destination only
//                     (DFSSSP without path-level moves, Nue: layer of d).
//   kPerSource      — VL is a function of (source node, destination)
//                     fixed at injection (LASH: switch-pair layers,
//                     DFSSSP: per-path layers). The packet keeps the VL.
//   kPerHop         — VL is a function of (current node, destination) and
//                     may change along the path (torus dateline scheme,
//                     emulating Torus-2QoS's SL2VL tricks).
//
// Deadlock analysis and the flit simulator treat (channel, VL) pairs as
// the resource vertices, so all three flavours validate uniformly.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "graph/network.hpp"
#include "util/error.hpp"

namespace nue {

enum class VlMode : std::uint8_t { kPerDest, kPerSource, kPerHop };

class RoutingResult {
 public:
  /// `dests` = routed destinations (ids into net). `num_nodes` = net size.
  RoutingResult(std::size_t num_nodes, std::vector<NodeId> dests,
                std::uint32_t num_vls, VlMode mode)
      : num_nodes_(num_nodes),
        destinations_(std::move(dests)),
        dest_index_(num_nodes, kNoDest),
        next_(destinations_.size() * num_nodes, kInvalidChannel),
        num_vls_(num_vls),
        vl_mode_(mode),
        lanes_(mode == VlMode::kPerDest ? destinations_.size() : next_.size(),
               0) {
    NUE_CHECK(num_vls >= 1);
    for (std::size_t i = 0; i < destinations_.size(); ++i) {
      dest_index_[destinations_[i]] = static_cast<std::uint32_t>(i);
    }
  }

  static constexpr std::uint32_t kNoDest = static_cast<std::uint32_t>(-1);

  const std::vector<NodeId>& destinations() const { return destinations_; }
  std::size_t num_nodes() const { return num_nodes_; }
  std::uint32_t num_vls() const { return num_vls_; }
  VlMode vl_mode() const { return vl_mode_; }

  /// Index of a destination in the table (kNoDest if not routed).
  std::uint32_t dest_index(NodeId d) const { return dest_index_[d]; }
  bool is_destination(NodeId d) const { return dest_index_[d] != kNoDest; }

  // --- forwarding table ----------------------------------------------------

  ChannelId next(NodeId at, std::uint32_t dest_idx) const {
    return next_[idx(at, dest_idx)];
  }
  void set_next(NodeId at, std::uint32_t dest_idx, ChannelId c) {
    next_[idx(at, dest_idx)] = c;
  }

  // --- virtual lanes --------------------------------------------------------

  void set_dest_vl(std::uint32_t dest_idx, std::uint8_t vl) {
    NUE_DCHECK(vl_mode_ == VlMode::kPerDest);
    lanes_[dest_idx] = vl;
  }
  void set_source_vl(NodeId src, std::uint32_t dest_idx, std::uint8_t vl) {
    NUE_DCHECK(vl_mode_ == VlMode::kPerSource);
    lanes_[idx(src, dest_idx)] = vl;
  }
  void set_hop_vl(NodeId at, std::uint32_t dest_idx, std::uint8_t vl) {
    NUE_DCHECK(vl_mode_ == VlMode::kPerHop);
    lanes_[idx(at, dest_idx)] = vl;
  }

  /// VL used on the channel a packet (injected at `src`, heading to
  /// destination index `dest_idx`) takes when leaving node `at`.
  std::uint8_t vl(NodeId at, NodeId src, std::uint32_t dest_idx) const {
    if (vl_mode_ == VlMode::kPerDest) return lanes_[dest_idx];
    return lanes_[idx(vl_mode_ == VlMode::kPerSource ? src : at, dest_idx)];
  }

  /// Copy column `from_di` of `from` (a table of the same VL mode) into
  /// column `di`: every node's lane entries, verbatim, dead nodes
  /// included. Next pointers are not copied — callers choose which
  /// nodes' pointers carry over.
  void copy_lanes(std::uint32_t di, const RoutingResult& from,
                  std::uint32_t from_di) {
    NUE_CHECK(from.vl_mode_ == vl_mode_ && from.num_nodes_ == num_nodes_);
    if (vl_mode_ == VlMode::kPerDest) {
      lanes_[di] = from.lanes_[from_di];
      return;
    }
    std::copy_n(&from.lanes_[from.idx(0, from_di)], num_nodes_,
                &lanes_[idx(0, di)]);
  }

  /// Move every lane up by `shift` and widen the VL budget to match: the
  /// routes stay, the table now occupies lanes [shift, shift + num_vls).
  void shift_lanes(std::uint32_t shift) {
    for (std::uint8_t& vl : lanes_) {
      vl = static_cast<std::uint8_t>(vl + shift);
    }
    num_vls_ += shift;
  }

  /// True if column `di` routes like column `other_di` of `other` over the
  /// alive fabric: the same next pointer and lane at every alive node but
  /// the destination (for kPerDest, the column's one lane). Entries at
  /// dead nodes are ignored — no packet can be there.
  bool same_column(const Network& net, std::uint32_t di,
                   const RoutingResult& other, std::uint32_t other_di) const {
    NUE_DCHECK(other.vl_mode_ == vl_mode_);
    const NodeId d = destinations_[di];
    const bool per_node = vl_mode_ != VlMode::kPerDest;
    for (NodeId v = 0; v < num_nodes_; ++v) {
      if (v == d || !net.node_alive(v)) continue;
      if (next(v, di) != other.next(v, other_di)) return false;
      if (per_node &&
          lanes_[idx(v, di)] != other.lanes_[other.idx(v, other_di)]) {
        return false;
      }
    }
    return per_node || lanes_[di] == other.lanes_[other_di];
  }

  // --- path helpers ---------------------------------------------------------

  /// Channels of the route src -> dst (traffic direction). Throws if the
  /// table has a hole or the walk exceeds num_nodes hops (cycle guard).
  std::vector<ChannelId> trace(const Network& net, NodeId src,
                               NodeId dst) const {
    const std::uint32_t di = dest_index(dst);
    NUE_CHECK_MSG(di != kNoDest, "node " << dst << " is not a destination");
    std::vector<ChannelId> path;
    NodeId at = src;
    while (at != dst) {
      const ChannelId c = next(at, di);
      NUE_CHECK_MSG(c != kInvalidChannel,
                    "no route at node " << at << " toward " << dst);
      NUE_CHECK(net.src(c) == at);
      path.push_back(c);
      at = net.dst(c);
      NUE_CHECK_MSG(path.size() <= num_nodes_,
                    "routing loop on route " << src << " -> " << dst);
    }
    return path;
  }

 private:
  std::size_t idx(NodeId at, std::uint32_t dest_idx) const {
    NUE_DCHECK(at < num_nodes_ && dest_idx < destinations_.size());
    return static_cast<std::size_t>(dest_idx) * num_nodes_ + at;
  }

  std::size_t num_nodes_;
  std::vector<NodeId> destinations_;
  std::vector<std::uint32_t> dest_index_;
  std::vector<ChannelId> next_;
  std::uint32_t num_vls_;
  VlMode vl_mode_;
  /// One lane per column (kPerDest) or per (node, column), indexed like
  /// next_.
  std::vector<std::uint8_t> lanes_;
};

/// Thrown by routing engines when they cannot route the given network
/// within their constraints (e.g. DFSSSP/LASH exceeding the VL cap,
/// Torus-2QoS facing two failures in one ring). Bench harnesses catch this
/// and report the algorithm as inapplicable, like the missing bars/dots in
/// the paper's figures.
class RoutingFailure : public std::runtime_error {
 public:
  explicit RoutingFailure(const std::string& what)
      : std::runtime_error(what) {}
};

}  // namespace nue
