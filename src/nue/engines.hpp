// Engine catalogue: Nue and the six OpenSM baselines the paper compares it
// with, as one enum, one row of promises per engine and one dispatch. The
// fuzzer's oracle, the repair ladder, the daemon and nue_route all name,
// pick and run engines through it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "graph/network.hpp"
#include "routing/routing.hpp"
#include "topology/torus.hpp"
#include "topology/trees.hpp"

namespace nue {

/// The fuzz smoke matrix and the reconfig family iterate engines in this
/// order and their scenario seeds are positional, so it must not change.
enum class Engine : std::uint8_t {
  kNue, kUpDown, kMinHop, kDfsssp, kLash, kTorusQos, kFatTree,
};

/// When an engine's tables are hop-minimal: never (routing restrictions
/// forbid some shortest paths), always, or only on a pristine fabric
/// (fault avoidance legitimately detours).
enum class Minimality : std::uint8_t { kNever, kAlways, kPristine };

struct EngineInfo {
  const char* name;
  bool deadlock_free;  // promises an acyclic channel dependency graph
  Minimality minimality;
  bool needs_pristine;    // declines a degraded fabric
  bool repairs;           // routes any degraded fabric: drives repair
  const char* generator;  // generator kind it needs ("" = any fabric)
  std::uint32_t min_vls;  // VLs taken whatever the budget

  constexpr bool minimal(bool degraded) const {
    return minimality == Minimality::kAlways ||
           (minimality == Minimality::kPristine && !degraded);
  }
};

/// One row per Engine, in enum order.
inline constexpr EngineInfo kEngines[] = {
    {"nue", true, Minimality::kNever, false, true, "", 1},
    {"updown", true, Minimality::kNever, false, true, "", 1},
    {"minhop", false, Minimality::kAlways, false, false, "", 1},
    {"dfsssp", true, Minimality::kAlways, false, true, "", 1},
    {"lash", true, Minimality::kAlways, false, true, "", 1},
    {"torus-qos", true, Minimality::kPristine, false, false, "torus", 2},
    {"fattree", true, Minimality::kPristine, true, false, "fattree", 1},
};
inline constexpr std::size_t kNumEngines = std::size(kEngines);
static_assert(kNumEngines == static_cast<std::size_t>(Engine::kFatTree) + 1);

constexpr const EngineInfo& engine_info(Engine e) {
  return kEngines[static_cast<std::size_t>(e)];
}
inline const char* engine_name(Engine e) { return engine_info(e).name; }
std::optional<Engine> engine_from_name(const std::string& name);
std::string engine_names();  // "nue|updown|...", in table order

struct EngineArgs {
  std::uint32_t vls = 1;      // VL budget
  std::uint64_t seed = 1;     // Nue
  std::uint32_t threads = 0;  // 0 = process default
  std::size_t betweenness_pivots = 0;  // Nue; 0 = exact Brandes
  std::optional<TorusSpec> torus{};      // torus-qos
  std::optional<FatTreeSpec> fattree{};  // fattree
};

struct EngineStats {
  std::optional<std::size_t> fallbacks;     // Nue: escape-path destinations
  std::vector<NodeId> roots;                // Nue: escape root per layer
  std::optional<std::uint32_t> vls_needed;  // DFSSSP and LASH
};

/// Route every node in `dests` with engine `e`. Throws RoutingFailure when
/// the engine declines, std::logic_error when its wiring spec is missing.
RoutingResult route_engine(Engine e, const Network& net,
                           const std::vector<NodeId>& dests,
                           const EngineArgs& args,
                           EngineStats* stats = nullptr);

}  // namespace nue
