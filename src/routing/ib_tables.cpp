#include "routing/ib_tables.hpp"

#include <algorithm>
#include <exception>

#include "routing/validate.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace nue {

IbTables compile_ib_tables(const Network& net, const RoutingResult& rr) {
  IbTables t;
  t.num_vls = rr.num_vls();

  // --- LID assignment -------------------------------------------------------
  t.lid_of_node.assign(net.num_nodes(), kInvalidLid);
  t.node_of_lid.push_back(kInvalidNode);  // LID 0 is reserved, as in IB
  for (NodeId v = 0; v < net.num_nodes(); ++v) {
    if (!net.node_alive(v)) continue;
    t.lid_of_node[v] = static_cast<Lid>(t.node_of_lid.size());
    t.node_of_lid.push_back(v);
  }
  const std::size_t lid_space = t.node_of_lid.size();
  NUE_CHECK_MSG(lid_space <= 0xC000, "LID space exhausted");

  // --- ports ----------------------------------------------------------------
  t.port_channel.assign(net.num_nodes(), {});
  for (NodeId v = 0; v < net.num_nodes(); ++v) {
    if (!net.node_alive(v)) continue;
    t.port_channel[v].assign(net.out(v).begin(), net.out(v).end());
    NUE_CHECK_MSG(t.port_channel[v].size() < kInvalidPort,
                  "switch radix exceeds the port-number encoding");
  }

  // --- per-node tables ------------------------------------------------------
  // Rows are allocated here on the calling thread, in node order, so the
  // compiled state lies in memory as a serial build lays it out. SL2VL:
  // identity maps, SL n -> VL n on every input port (sufficient for the
  // fixed-VL engines; the per-hop torus scheme uses vl_by_dest instead,
  // standing in for Torus-2QoS's per-port-pair SL2VL programming).
  const bool per_hop = rr.vl_mode() == VlMode::kPerHop;
  std::vector<std::vector<std::uint8_t>> vl_by_dest;
  if (per_hop) vl_by_dest.assign(net.num_nodes(), {});
  t.lft.assign(net.num_nodes(), {});
  for (NodeId v = 0; v < net.num_nodes(); ++v) {
    if (!net.node_alive(v) || !net.is_switch(v)) continue;
    t.lft[v].assign(lid_space, kInvalidPort);
    if (per_hop) vl_by_dest[v].assign(lid_space, 0);
  }
  t.sl.assign(net.num_nodes(), {});
  for (NodeId v = 0; v < net.num_nodes(); ++v) {
    if (net.node_alive(v)) t.sl[v].assign(lid_space, 0);
  }
  t.sl2vl.assign(net.num_nodes(), {});
  std::vector<std::uint8_t> identity(16);
  for (std::uint8_t s = 0; s < 16; ++s) identity[s] = s % t.num_vls;
  for (NodeId v = 0; v < net.num_nodes(); ++v) {
    if (!net.node_alive(v)) continue;
    t.sl2vl[v].assign(std::max<std::size_t>(t.port_channel[v].size(), 1),
                      identity);
  }

  // Each node's entries depend on that node alone, so nodes are filled in
  // contiguous chunks across the pool. A chunk stops at its first failed
  // check; the first failing chunk in node order throws, as the serial
  // loop would.
  const std::vector<NodeId>& dests = rr.destinations();
  const auto fill_node = [&](NodeId v) {
    if (!net.node_alive(v)) return;
    // LFT + per-destination VL helper table.
    if (net.is_switch(v)) {
      const auto& ports = t.port_channel[v];
      for (std::size_t di = 0; di < dests.size(); ++di) {
        const NodeId d = dests[di];
        if (d == v || !net.node_alive(d)) continue;
        const ChannelId c = rr.next(v, static_cast<std::uint32_t>(di));
        if (c == kInvalidChannel) continue;
        const auto it = std::find(ports.begin(), ports.end(), c);
        NUE_CHECK(it != ports.end());
        t.lft[v][t.lid_of_node[d]] =
            static_cast<std::uint8_t>(it - ports.begin());
        if (per_hop) {
          vl_by_dest[v][t.lid_of_node[d]] =
              rr.vl(v, v, static_cast<std::uint32_t>(di));
        }
      }
    }
    // SL table (v as a source). For kPerDest/kPerSource the VL is fixed at
    // injection: the SL *is* the VL. Per-hop schemes resolve VLs via
    // vl_by_dest, and their SLs stay 0.
    if (per_hop) return;
    for (std::size_t di = 0; di < dests.size(); ++di) {
      const NodeId d = dests[di];
      if (!net.node_alive(d)) continue;
      t.sl[v][t.lid_of_node[d]] = rr.vl(v, v, static_cast<std::uint32_t>(di));
    }
  };
  const std::size_t grain = chunk_grain(dests.size());
  std::vector<std::exception_ptr> errors((net.num_nodes() + grain - 1) /
                                         grain);
  parallel_for_chunks(resolve_threads(0), net.num_nodes(), grain,
                      [&](std::size_t begin, std::size_t end) {
                        try {
                          for (std::size_t v = begin; v < end; ++v) {
                            fill_node(static_cast<NodeId>(v));
                          }
                        } catch (...) {
                          errors[begin / grain] = std::current_exception();
                        }
                      });
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  t.vl_by_dest = std::move(vl_by_dest);
  return t;
}

namespace {

/// The channel a packet at `at` heading for `dlid` takes, from the
/// compiled state alone; throws on an LFT hole or a dead port.
ChannelId compiled_hop(const Network& net, const IbTables& tables, NodeId at,
                       Lid dlid) {
  ChannelId c;
  if (net.is_terminal(at)) {
    c = tables.port_channel[at].at(0);
  } else {
    const std::uint8_t port = tables.lft[at].at(dlid);
    NUE_CHECK_MSG(port != kInvalidPort,
                  "LFT hole at node " << at << " toward LID " << dlid);
    c = tables.port_channel[at].at(port);
  }
  NUE_CHECK(net.channel_alive(c));
  return c;
}

}  // namespace

std::vector<ChannelId> ib_walk(const Network& net, const IbTables& tables,
                               NodeId src, NodeId dst) {
  const Lid dlid = tables.lid_of_node[dst];
  NUE_CHECK(dlid != kInvalidLid);
  std::vector<ChannelId> path;
  // Room for routes of up to 32 hops: one allocation per lookup instead
  // of one per doubling.
  path.reserve(32);
  for (NodeId at = src; at != dst; at = net.dst(path.back())) {
    path.push_back(compiled_hop(net, tables, at, dlid));
    NUE_CHECK_MSG(path.size() <= net.num_nodes(), "LFT loop");
  }
  return path;
}

bool verify_compiled(const Network& net, const RoutingResult& rr,
                     const IbTables& tables) {
  // Per column: if every settled (node, lane class) of the routing
  // function's walks takes the same channel and VL in the compiled state,
  // then by induction along each path every terminal's compiled route
  // equals its routed one.
  const std::vector<NodeId> terminals = net.terminals();
  const bool sl_lanes = tables.vl_by_dest.empty();
  const auto verify_column = [&](ColumnPass& pass, std::vector<int>& class_sl,
                                 std::uint32_t di) {
    const NodeId d = rr.destinations()[di];
    if (!net.node_alive(d)) return true;
    const Lid dlid = tables.lid_of_node[d];
    pass.run(di, terminals);
    for (const auto& [at, s] : pass.visits()) {
      const ColumnPass::End end = pass.end(s);
      NUE_CHECK_MSG(
          end != ColumnPass::End::kHole && end != ColumnPass::End::kLoop,
          "no loop-free route " << s << " -> " << d);
      NUE_CHECK(dlid != kInvalidLid);
      if (compiled_hop(net, tables, at, dlid) != rr.next(at, di)) {
        return false;
      }
      const std::uint8_t want = rr.vl(at, s, di);
      std::uint8_t have;
      if (!sl_lanes && net.is_switch(at) && !tables.vl_by_dest[at].empty()) {
        have = tables.vl_by_dest[at][dlid];
      } else if (!sl_lanes) {
        have = want;  // terminal hop of a per-hop scheme: VL immaterial
      } else {
        have = tables.sl2vl[at][0][tables.sl[s][dlid]];
      }
      if (have != want) return false;
    }
    if (!sl_lanes) return true;
    // The walks checked each lane class with its first terminal's SL; the
    // class's other terminals must inject with that same SL.
    std::fill(class_sl.begin(), class_sl.end(), -1);
    for (NodeId s : terminals) {
      if (s == d) continue;
      int& sl = class_sl[pass.lane_class(s)];
      if (sl < 0) sl = tables.sl[s][dlid];
      if (sl != tables.sl[s][dlid]) return false;
    }
    return true;
  };

  // Columns run in chunks across the pool. A chunk stops at its first
  // failing column (a mismatch or a throw); the first failing chunk in
  // column order decides, as the serial loop would.
  struct ChunkVerdict {
    bool ok = true;
    std::exception_ptr error;
  };
  const std::size_t n = rr.destinations().size();
  const std::size_t grain = chunk_grain(net.num_nodes());
  std::vector<ChunkVerdict> verdicts((n + grain - 1) / grain);
  parallel_for_chunks(
      resolve_threads(0), n, grain, [&](std::size_t begin, std::size_t end) {
        ChunkVerdict& verdict = verdicts[begin / grain];
        ColumnPass pass(net, rr, rr.num_vls() + 1, rr.num_vls());
        std::vector<int> class_sl(rr.num_vls() + 1);
        try {
          for (std::size_t di = begin; di < end && verdict.ok; ++di) {
            verdict.ok = verify_column(pass, class_sl,
                                       static_cast<std::uint32_t>(di));
          }
        } catch (...) {
          verdict.error = std::current_exception();
        }
      });
  for (const ChunkVerdict& verdict : verdicts) {
    if (verdict.error) std::rethrow_exception(verdict.error);
    if (!verdict.ok) return false;
  }
  return true;
}

}  // namespace nue
