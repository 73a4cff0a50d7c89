// Routing validation: the three validity properties of Definition 3 plus
// deadlock-freedom via Theorem 1 (acyclicity of the induced channel
// dependency graph), evaluated over (channel, VL) resource pairs so that
// per-source and per-hop VL schemes are handled exactly.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "graph/network.hpp"
#include "routing/routing.hpp"

namespace nue {

struct ValidationReport {
  bool connected = true;        // every source reaches every destination
  /// No path visits a node twice. On a destination-based table a route
  /// that reaches its destination cannot revisit a node (a revisit
  /// repeats forever), so a forwarding loop is reported as
  /// connected=false and this stays true.
  bool cycle_free = true;
  bool deadlock_free = true;    // induced CDG over (channel, VL) is acyclic
  bool vl_in_range = true;      // all VLs < num_vls
  /// Stale-table detection: false when the table routes to a destination
  /// that has been removed from the fabric, or some route crosses a dead
  /// channel — the signature of forwarding state that predates a runtime
  /// fault and was never repaired (docs/RESILIENCE.md).
  bool live_elements = true;
  std::size_t num_paths = 0;
  std::size_t max_path_length = 0;
  double avg_path_length = 0.0;
  std::string detail;           // first failure description

  bool ok() const {
    return connected && cycle_free && deadlock_free && vl_in_range &&
           live_elements;
  }
};

/// The per-column checks (validate_routing, validate_columns, induced_cdg
/// and verify_compiled) and compile_ib_tables run over contiguous chunks
/// of columns (or nodes) on resolve_threads(0) agents and fold the chunks
/// in order, so their results do not depend on the thread count. A chunk
/// holds about this many node visits; a check whose whole table fits in
/// one chunk runs inline on the calling thread (docs/PARALLELISM.md).
inline constexpr std::size_t kColumnChunkVisits = std::size_t{1} << 16;

/// Items per chunk when each item (a column: about one visit per node; a
/// node: one per destination) costs `visits_per_item` node visits.
inline std::size_t chunk_grain(std::size_t visits_per_item) {
  return std::max<std::size_t>(
      1, kColumnChunkVisits / std::max<std::size_t>(1, visits_per_item));
}

/// Validate routing `rr` for all (src, dst) pairs with src in `sources`
/// and dst in rr.destinations(). Sources default to all alive terminals.
ValidationReport validate_routing(const Network& net, const RoutingResult& rr,
                                  std::vector<NodeId> sources = {});

/// Column-subset validation for incremental repairs: the per-path checks
/// of validate_routing restricted to the columns of `dests` (sources
/// default to all alive terminals). The induced-CDG acyclicity pass is
/// NOT run — deadlock_free stays true — because the caller must already
/// cover it for the whole table: the resilience manager's union-CDG
/// transition gate implies it (the new table's dependency set is a subset
/// of the old+new union the gate proves acyclic), and a drained
/// recompute goes through the full validate_routing instead. A `dests`
/// entry the table does not route fails the report as disconnected.
ValidationReport validate_columns(const Network& net, const RoutingResult& rr,
                                  const std::vector<NodeId>& dests,
                                  std::vector<NodeId> sources = {});

/// Induced channel dependency graph of `rr` over (channel, VL) vertices
/// (vertex id = channel * (num_vls + 1) + vl), as an adjacency list. Each
/// dependency appears once, however many columns exercise it, and every
/// row is in ascending order, at any thread count. Slot num_vls of each
/// channel is a dedicated overflow vertex: hops whose VL is out of range
/// land there instead of being clamped onto a legal layer, so a broken
/// table can never alias onto (or hide behind) a legal dependency. Only
/// dependencies exercised by (src in sources) -> (dst in destinations)
/// traffic are included, mirroring Definition 4.
std::vector<std::vector<std::uint32_t>> induced_cdg(
    const Network& net, const RoutingResult& rr,
    const std::vector<NodeId>& sources);

/// True if the directed graph given as adjacency lists is acyclic
/// (Kahn's algorithm). When `topo_pos` is given (sized like `adj`), it
/// receives each vertex's position in a topological order; after a false
/// return only the vertices outside every cycle's reach are filled.
bool is_acyclic(const std::vector<std::vector<std::uint32_t>>& adj,
                std::vector<std::uint32_t>* topo_pos = nullptr);

/// One memoized pass over a forwarding column. Definition 3 makes every
/// column an in-tree toward its destination, so what Definition 4 and
/// Theorem 1 ask of a route (it arrives, its lanes are in range, and the
/// (channel, VL) dependencies it exercises) is decided per column: each
/// walk stops at the first node an earlier walk settled, so every (node,
/// lane class) is visited once. The lane class is the source's lane slot
/// for kPerSource tables (a packet keeps its injection VL) and a single
/// class otherwise. A hole (missing or foreign entry) or a dead channel
/// ends a walk; the hops before it still count — they are resources an
/// in-flight packet can hold. Dependency vertices are channel * stride +
/// slot; a VL at or above `lane_limit` lands on the overflow slot
/// stride - 1. A pass built without a stride follows routes only (next
/// pointers do not depend on the lane): one lane class, no lanes, no
/// dependencies — all that end(), depth() and the loads need.
class ColumnPass {
 public:
  enum class End : std::uint8_t { kReached, kHole, kDeadChannel, kLoop };
  struct Visit {
    NodeId node;
    NodeId source;  // whose walk settled `node`
  };
  using Edge = std::pair<std::uint32_t, std::uint32_t>;

  ColumnPass(const Network& net, const RoutingResult& rr,
             std::uint32_t stride = 0, std::uint32_t lane_limit = 0);

  /// Walk column `di` from every alive source other than its destination,
  /// in order, replacing the previous run's results.
  void run(std::uint32_t di, const std::vector<NodeId>& sources);

  std::uint32_t lane_class(NodeId s) const {
    return classes_ > 1 ? slot(rr_.vl(s, s, di_)) : 0;
  }
  /// How the route from a source of the last run ends, and (for
  /// kReached) its hop count.
  End end(NodeId s) const { return state_[idx(s, lane_class(s))]; }
  std::uint32_t depth(NodeId s) const { return depth_[idx(s, lane_class(s))]; }
  /// Settled nodes source by source, each walk's new prefix in path order.
  const std::vector<Visit>& visits() const { return visits_; }
  /// The column's dependencies, each once per lane class.
  const std::vector<Edge>& edges() const { return edges_; }
  /// True if some hop of the last run used a VL >= rr.num_vls().
  bool vl_out_of_range() const { return vl_out_of_range_; }

  /// Count the routes of `sources` (the last run's) leaving each settled
  /// (node, lane class) on its next channel: its own sources plus its
  /// children's loads. A walk prefix ends where an older one settled, so
  /// newest prefix first, each source first, sums children before
  /// parents in one O(visits) sweep. Defined only when every source
  /// reached the destination; callers check end() first.
  void count_loads(const std::vector<NodeId>& sources);
  std::uint32_t load(const Visit& v) const {
    return load_[idx(v.node, lane_class(v.source))];
  }

 private:
  // Memo states besides the End values: not yet seen, on the open walk.
  static constexpr End kUnseen = static_cast<End>(4);
  static constexpr End kOnWalk = static_cast<End>(5);

  std::size_t idx(NodeId v, std::uint32_t k) const {
    return static_cast<std::size_t>(v) * classes_ + k;
  }
  std::uint32_t slot(std::uint8_t vl) const {
    return vl < lane_limit_ ? vl : stride_ - 1;
  }
  void walk(NodeId s);

  const Network& net_;
  const RoutingResult& rr_;
  std::uint32_t stride_;
  std::uint32_t lane_limit_;
  std::uint32_t classes_;
  std::uint32_t di_ = 0;
  NodeId dest_ = kInvalidNode;
  std::vector<End> state_;  // per (node, lane class)
  std::vector<std::uint32_t> depth_;
  std::vector<std::uint32_t> load_;
  std::vector<Visit> visits_;
  std::vector<Edge> edges_;
  bool vl_out_of_range_ = false;
};

// --- runtime reconfiguration helpers ----------------------------------------

/// Destinations of `rr` whose forwarding column no longer matches the
/// current fabric: the destination itself is dead, some alive node's next
/// pointer is a dead channel, or an alive node has no entry at all (a node
/// that was down when the table was computed and has since been restored).
/// The complement can be spliced verbatim into a successor table — this is
/// the table diff driving incremental repair (src/resilience).
std::vector<NodeId> affected_destinations(const Network& net,
                                          const RoutingResult& rr);

/// Transition-safety gate for hitless reconfiguration (UPR compatibility):
/// while a new routing function is being installed, in-flight packets may
/// still hold (channel, VL) resources according to the old one, so
/// deadlock freedom through the swap window requires the UNION of both
/// induced CDGs to be acyclic, not merely each on its own. Walks tolerate
/// the old table's stale entries — a route stops at a dead channel, its
/// prefix dependencies (resources packets can actually occupy) still
/// count. Per-destination and per-hop VL columns are walked from every
/// alive node, a conservative superset of the terminal-sourced
/// Definition 4 set; per-source columns are walked from `sources`
/// (default: all alive terminals).
bool union_cdg_acyclic(const Network& net, const RoutingResult& old_rr,
                       const RoutingResult& new_rr,
                       std::vector<NodeId> sources = {});

}  // namespace nue
