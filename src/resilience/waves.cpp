#include "resilience/waves.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "routing/dependency_order.hpp"
#include "routing/validate.hpp"
#include "telemetry/telemetry.hpp"

namespace nue::resilience {

namespace {

/// Dependency edge in the shared (channel, VL) vertex space of a table
/// pair: vertex = channel * stride + slot, stride = max VL budget + 1,
/// slot stride-1 the overflow vertex for out-of-range lanes (same
/// aliasing argument as induced_cdg). Committed tables are validated
/// vl_in_range, so the overflow slot never fires here in practice — it
/// only keeps a hypothetically broken lane from hiding behind a legal
/// dependency.
using Edge = ColumnPass::Edge;

/// Dependencies of one forwarding column (see union_cdg_acyclic for the
/// walk seeds), sorted and deduplicated so the incremental admission
/// checks stay proportional to the real delta.
std::vector<Edge> column_edges(ColumnPass& pass, std::uint32_t di,
                               const std::vector<NodeId>& seeds) {
  pass.run(di, seeds);
  std::vector<Edge> edges = pass.edges();
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  return edges;
}

}  // namespace

WavePlan schedule_waves(const Network& net, const RoutingResult& old_rr,
                        const RoutingResult& new_rr, std::size_t max_waves) {
  TELEM_SPAN("resilience.wave_schedule");
  WavePlan plan;
  if (old_rr.vl_mode() != new_rr.vl_mode()) {
    plan.failure = "vl-mode mismatch between old and new table";
    return plan;
  }
  if (max_waves == 0) {
    plan.failure = "wave budget is zero";
    return plan;
  }
  const std::uint32_t stride =
      std::max(old_rr.num_vls(), new_rr.num_vls()) + 1;
  // Seeds as in union_cdg_acyclic: per-source lanes are walked from the
  // terminals, all other columns from every alive node.
  const std::vector<NodeId> seeds = new_rr.vl_mode() == VlMode::kPerSource
                                        ? net.terminals()
                                        : net.alive_nodes();
  ColumnPass old_pass(net, old_rr, stride, stride - 1);
  ColumnPass new_pass(net, new_rr, stride, stride - 1);

  // Classify every column: shared (byte-equal over the alive fabric, its
  // dependencies are immutable background), changed (migrates in some
  // wave), or dropped (only the old table routes it — its dependencies
  // retire with the first wave, exactly when the epoch that dropped the
  // column starts draining its predecessor).
  struct Delta {
    NodeId d = 0;
    bool affected = false;  // broken by the fault or newly joined
    std::vector<Edge> e_old, e_new;
  };
  std::vector<Delta> deltas;
  std::vector<Edge> base_edges;
  std::vector<Edge> dropped_edges;

  std::vector<std::uint8_t> broken(net.num_nodes(), 0);
  for (NodeId d : affected_destinations(net, old_rr)) broken[d] = 1;

  for (std::size_t di = 0; di < new_rr.destinations().size(); ++di) {
    const NodeId d = new_rr.destinations()[di];
    const auto di32 = static_cast<std::uint32_t>(di);
    const std::uint32_t old_di = old_rr.dest_index(d);
    if (old_di == RoutingResult::kNoDest) {
      Delta dl;
      dl.d = d;
      dl.affected = true;
      dl.e_new = column_edges(new_pass, di32, seeds);
      deltas.push_back(std::move(dl));
      continue;
    }
    if (new_rr.same_column(net, di32, old_rr, old_di)) {
      const std::vector<Edge> es = column_edges(new_pass, di32, seeds);
      base_edges.insert(base_edges.end(), es.begin(), es.end());
      continue;
    }
    Delta dl;
    dl.d = d;
    dl.affected = broken[d] != 0;
    dl.e_old = column_edges(old_pass, old_di, seeds);
    dl.e_new = column_edges(new_pass, di32, seeds);
    deltas.push_back(std::move(dl));
  }
  std::size_t dropped = 0;
  for (std::size_t di = 0; di < old_rr.destinations().size(); ++di) {
    const NodeId d = old_rr.destinations()[di];
    if (new_rr.is_destination(d)) continue;
    ++dropped;
    const std::vector<Edge> es =
        column_edges(old_pass, static_cast<std::uint32_t>(di), seeds);
    dropped_edges.insert(dropped_edges.end(), es.begin(), es.end());
  }
  plan.changed_dests = deltas.size() + dropped;
  if (deltas.empty()) {
    plan.failure = "no changed columns to migrate";
    return plan;
  }

  // Migration order: fault-affected and joined columns first (they are
  // the ones serving stale/absent routes until their wave lands — front
  // placement minimizes the staleness bound), then by node id. Stable and
  // input-deterministic, so the schedule is too.
  std::stable_sort(deltas.begin(), deltas.end(),
                   [](const Delta& a, const Delta& b) {
                     if (a.affected != b.affected) return a.affected;
                     return a.d < b.d;
                   });

  const std::size_t num_vertices = net.num_channels() * stride;
  std::vector<std::uint8_t> migrated(deltas.size(), 0);
  std::size_t remaining = deltas.size();
  while (remaining > 0) {
    if (plan.waves.size() >= max_waves) {
      std::ostringstream os;
      os << "wave budget exhausted: " << remaining
         << " columns unscheduled after " << plan.waves.size() << " waves";
      plan.failure = os.str();
      plan.waves.clear();
      return plan;
    }
    // Rebuild the intermediate state's dependency graph: shared columns,
    // the old dependencies of everything not yet migrated (including this
    // wave's own candidates — old and new coexist while the wave's epoch
    // drains its predecessor), the new dependencies of everything already
    // migrated, and — first wave only — the dropped columns still held by
    // in-flight traffic of the pre-transition epoch.
    DependencyOrder g(num_vertices);
    g.add_edges(base_edges);
    if (plan.waves.empty()) g.add_edges(dropped_edges);
    for (std::size_t i = 0; i < deltas.size(); ++i) {
      g.add_edges(migrated[i] ? deltas[i].e_new : deltas[i].e_old);
    }
    if (!g.recompute_order()) {
      // The base state mirrors an already-committed (or by-construction
      // acyclic) table, so this is unreachable unless a producer broke
      // its contract; report, never crash the repair path.
      plan.failure = "intermediate dependency graph cyclic before the wave";
      plan.waves.clear();
      return plan;
    }
    std::vector<NodeId> wave;
    bool wave_affected = false;
    for (std::size_t i = 0; i < deltas.size(); ++i) {
      if (migrated[i]) continue;
      if (!g.try_add(deltas[i].e_new)) continue;
      migrated[i] = 1;
      --remaining;
      wave.push_back(deltas[i].d);
      wave_affected = wave_affected || deltas[i].affected;
    }
    if (wave.empty()) {
      std::ostringstream os;
      os << "stuck: none of the " << remaining
         << " remaining columns admissible in wave "
         << plan.waves.size() + 1;
      plan.failure = os.str();
      plan.waves.clear();
      return plan;
    }
    std::sort(wave.begin(), wave.end());
    plan.waves.push_back(std::move(wave));
    if (wave_affected) plan.max_affected_wave = plan.waves.size();
  }
  return plan;
}

RoutingResult shift_vls(const RoutingResult& rr, std::uint32_t shift) {
  RoutingResult out = rr;
  out.shift_lanes(shift);
  return out;
}

// Blends copy next pointers verbatim, dead nodes included: a route query
// that races the chain still walks the old column through a switch that
// just failed, and the churn bench counts such a query as failed. The
// repair producers (splice, reroute) copy alive nodes only, so that a
// restored switch comes back as a hole affected_destinations flags.
RoutingResult blend_tables(const Network& net, const RoutingResult& old_rr,
                           const RoutingResult& new_rr,
                           const std::vector<std::uint8_t>& take_new) {
  const std::uint32_t vls = std::max(old_rr.num_vls(), new_rr.num_vls());
  RoutingResult rr(net.num_nodes(), new_rr.destinations(), vls,
                   new_rr.vl_mode());
  for (std::size_t di = 0; di < new_rr.destinations().size(); ++di) {
    const NodeId d = new_rr.destinations()[di];
    const auto di32 = static_cast<std::uint32_t>(di);
    const std::uint32_t old_di = old_rr.dest_index(d);
    const bool use_new = take_new[di] != 0;
    if (!use_new && old_di == RoutingResult::kNoDest) {
      continue;  // joined, not yet migrated: the column stays holes
    }
    const RoutingResult& src = use_new ? new_rr : old_rr;
    const std::uint32_t sdi = use_new ? di32 : old_di;
    for (NodeId v = 0; v < net.num_nodes(); ++v) {
      if (v == d) continue;
      rr.set_next(v, di32, src.next(v, sdi));
    }
    rr.copy_lanes(di32, src, sdi);
  }
  return rr;
}

}  // namespace nue::resilience
