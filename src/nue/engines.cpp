#include "nue/engines.hpp"

#include <algorithm>

#include "nue/nue_routing.hpp"
#include "routing/dfsssp.hpp"
#include "routing/fattree_routing.hpp"
#include "routing/lash.hpp"
#include "routing/torus_qos.hpp"
#include "routing/updown.hpp"
#include "util/error.hpp"

namespace nue {

std::optional<Engine> engine_from_name(const std::string& name) {
  for (std::size_t i = 0; i < kNumEngines; ++i) {
    if (name == kEngines[i].name) return static_cast<Engine>(i);
  }
  return std::nullopt;
}

std::string engine_names() {
  std::string out;
  for (const EngineInfo& row : kEngines) {
    if (!out.empty()) out += '|';
    out += row.name;
  }
  return out;
}

RoutingResult route_engine(Engine e, const Network& net,
                           const std::vector<NodeId>& dests,
                           const EngineArgs& args, EngineStats* stats) {
  EngineStats local;
  EngineStats& st = stats != nullptr ? *stats : local;
  const std::uint32_t max_vls = std::max(args.vls, 1u);  // DFSSSP, LASH
  switch (e) {
    case Engine::kNue: {
      NueOptions opt;
      opt.num_vls = args.vls;
      opt.betweenness_pivots = args.betweenness_pivots;
      opt.seed = args.seed;
      opt.num_threads = args.threads;
      NueStats nst;
      RoutingResult rr = route_nue(net, dests, opt, &nst);
      st.fallbacks = nst.fallbacks;
      st.roots = std::move(nst.roots);
      return rr;
    }
    case Engine::kUpDown:
      return route_updown(net, dests);
    case Engine::kMinHop:
      return route_minhop(net, dests);
    case Engine::kDfsssp: {
      DfssspStats dst;
      RoutingResult rr = route_dfsssp(
          net, dests, {.max_vls = max_vls, .num_threads = args.threads}, &dst);
      st.vls_needed = dst.vls_needed;
      return rr;
    }
    case Engine::kLash: {
      LashStats lst;
      RoutingResult rr = route_lash(
          net, dests, {.max_vls = max_vls, .num_threads = args.threads}, &lst);
      st.vls_needed = lst.vls_needed;
      return rr;
    }
    case Engine::kTorusQos:
      NUE_CHECK_MSG(args.torus.has_value(),
                    "torus-qos routing needs a torus generator spec");
      return route_torus_qos(net, *args.torus, dests);
    case Engine::kFatTree:
      NUE_CHECK_MSG(args.fattree.has_value(),
                    "fattree routing needs a fattree generator spec");
      return route_fattree(net, *args.fattree, dests);
  }
  NUE_CHECK_MSG(false, "unknown routing engine");
  return route_updown(net, dests);
}

}  // namespace nue
