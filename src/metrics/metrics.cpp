#include "metrics/metrics.hpp"

#include "graph/algorithms.hpp"
#include "routing/validate.hpp"
#include "util/error.hpp"

namespace nue {

namespace {

/// Walk column `di` from every terminal; throws unless every route
/// arrives.
void run_complete(ColumnPass& pass, std::uint32_t di, NodeId d,
                  const std::vector<NodeId>& terminals) {
  pass.run(di, terminals);
  for (NodeId s : terminals) {
    if (s == d) continue;
    const ColumnPass::End end = pass.end(s);
    NUE_CHECK_MSG(end != ColumnPass::End::kLoop, "routing loop");
    NUE_CHECK_MSG(end == ColumnPass::End::kReached,
                  "incomplete routing tables");
  }
}

}  // namespace

std::vector<std::uint64_t> edge_forwarding_index(const Network& net,
                                                 const RoutingResult& rr) {
  std::vector<std::uint64_t> gamma(net.num_channels(), 0);
  const auto terminals = net.terminals();
  ColumnPass pass(net, rr);
  for (std::size_t i = 0; i < rr.destinations().size(); ++i) {
    const NodeId d = rr.destinations()[i];
    if (!net.is_terminal(d)) continue;
    const auto di = static_cast<std::uint32_t>(i);
    run_complete(pass, di, d, terminals);
    pass.count_loads(terminals);
    for (const ColumnPass::Visit& v : pass.visits()) {
      gamma[rr.next(v.node, di)] += pass.load(v);
    }
  }
  return gamma;
}

ForwardingIndexSummary summarize_forwarding_index(
    const Network& net, const std::vector<std::uint64_t>& gamma) {
  Stats st;
  for (ChannelId c = 0; c < net.num_channels(); ++c) {
    if (!net.channel_alive(c)) continue;
    if (net.is_terminal(net.src(c)) || net.is_terminal(net.dst(c))) continue;
    st.add(static_cast<double>(gamma[c]));
  }
  return {st.min(), st.max(), st.mean(), st.stddev()};
}

PathLengthSummary path_length_stats(const Network& net,
                                    const RoutingResult& rr) {
  PathLengthSummary r;
  std::uint64_t total = 0, total_sp = 0, pairs = 0;
  const auto terminals = net.terminals();
  ColumnPass pass(net, rr);
  for (std::size_t i = 0; i < rr.destinations().size(); ++i) {
    const NodeId d = rr.destinations()[i];
    if (!net.is_terminal(d)) continue;
    const auto sp = bfs_distances(net, d);
    run_complete(pass, static_cast<std::uint32_t>(i), d, terminals);
    for (NodeId s : terminals) {
      if (s == d) continue;
      const std::size_t hops = pass.depth(s);
      total += hops;
      r.max = std::max(r.max, hops);
      NUE_CHECK(sp[s] != kUnreachable);
      total_sp += sp[s];
      r.max_shortest = std::max<std::size_t>(r.max_shortest, sp[s]);
      ++pairs;
    }
  }
  if (pairs > 0) {
    r.avg = static_cast<double>(total) / static_cast<double>(pairs);
    r.avg_shortest = static_cast<double>(total_sp) / static_cast<double>(pairs);
  }
  return r;
}

}  // namespace nue
