// Wave scheduler for zero-drain reconfiguration (UPR compatibility,
// arXiv:2006.02332). When the union CDG of the active and the candidate
// routing function is cyclic, the two cannot coexist in the fabric — the
// resilience manager used to drain. But the cycle is a property of the
// WHOLE pair: migrating the changed destination columns a few at a time
// can keep every intermediate union acyclic even though the end-to-end
// union is not, because a column's old dependencies leave the fabric as
// soon as the epoch that replaced it has drained its predecessor
// (progressive drain — the same two-adjacent-epochs coexistence model the
// per-event gate already assumes).
//
// schedule_waves() partitions the changed columns into an ordered
// sequence of migration waves by greedy coloring of the per-destination
// dependency deltas: it maintains the dependency graph of the current
// intermediate state and admits a destination into the open wave only if
// adding its new column's dependencies keeps the graph acyclic (checked
// against a maintained topological order — candidates whose edges all go
// forward are admitted in O(|edges|); for the others a search from the
// back edges' heads, confined to the order window they span, decides,
// and only an admitted one pays a Kahn pass to reorder; see
// routing/dependency_order.hpp). After a
// wave commits, the old dependencies of its members are retired. A
// bounded wave count (resilience::kMaxWaves) and a stuck wave (no
// admissible destination) are the only failure modes, both reported as a
// distinct verdict so the caller's drained fallback is never silent.
//
// Intermediate tables (blend_tables) may carry broken or stale old
// columns — destinations hit by the fault that are scheduled into a later
// wave keep serving their pre-fault column until their wave lands. That
// bounded staleness window (WavePlan::max_affected_wave) is exactly the
// exposure the pre-existing hitless path already had between the event
// and its single swap; intermediates are therefore gated on pairwise
// union acyclicity only, and full validation applies to the final epoch.
//
// When per-column waves are stuck (a full-recompute candidate can change
// every column, and wave 1 must then beat the entire old dependency
// graph) the manager escapes through a VL-shift chain (shift_vls): the
// candidate committed on the unused upper lanes has no (channel, VL)
// vertex in common with the old epoch, so both unions of the 2-epoch
// chain old -> shifted -> candidate are acyclic by construction. It only
// needs lane headroom: old_vls + candidate_vls <= RepairPolicy::max_vls.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "graph/network.hpp"
#include "routing/routing.hpp"

namespace nue::resilience {

struct WavePlan {
  /// Destination columns to migrate, wave by wave, each wave sorted by
  /// node id. Every changed destination appears in exactly one wave.
  std::vector<std::vector<NodeId>> waves;
  /// Columns that differ between the two tables (joined and dropped
  /// destinations included).
  std::size_t changed_dests = 0;
  /// 1-based index of the wave that migrates the last fault-affected
  /// (broken or joined) column — the staleness bound: no stale column
  /// outlives this many epochs.
  std::size_t max_affected_wave = 0;
  /// Empty when a schedule exists; otherwise why not ("wave budget
  /// exhausted...", "stuck...", "vl-mode mismatch...").
  std::string failure;

  bool ok() const { return failure.empty(); }
};

/// Compute a migration-wave schedule taking `old_rr` (the active, already
/// committed table) to `new_rr` (a validated candidate) such that the
/// union CDG of every adjacent pair of intermediate tables is acyclic.
/// Precondition relaxations are reported via WavePlan::failure, never
/// thrown: the two tables must share a VL mode. A schedule with a single
/// wave cannot exist when the direct union gate failed (it IS the direct
/// union), so callers should expect >= 2 waves from a useful plan.
WavePlan schedule_waves(const Network& net, const RoutingResult& old_rr,
                        const RoutingResult& new_rr, std::size_t max_waves);

/// Materialize the intermediate table with the columns in `take_new`
/// (indexed by new_rr destination index, 1 = migrated) copied from
/// new_rr and every other column carried over verbatim from old_rr.
/// Destinations only new_rr routes (joined with a restored switch) stay
/// holes until their wave migrates them; destinations only old_rr routes
/// (dropped with a failed switch) are absent from every intermediate.
/// The result's VL budget is max(old, new) so both tables' lanes stay
/// in range.
RoutingResult blend_tables(const Network& net, const RoutingResult& old_rr,
                           const RoutingResult& new_rr,
                           const std::vector<std::uint8_t>& take_new);

/// Copy of `rr` with every lane assignment moved up by `shift` and the
/// VL budget widened to shift + rr.num_vls(): routes are untouched, but
/// the table occupies only lanes [shift, shift + num_vls). Against any
/// table confined to lanes [0, shift) the union CDG is vertex-disjoint,
/// hence acyclic — the guarantee behind the VL-shift migration chain.
RoutingResult shift_vls(const RoutingResult& rr, std::uint32_t shift);

}  // namespace nue::resilience
