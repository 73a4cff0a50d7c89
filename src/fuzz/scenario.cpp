// Scenario construction: fabric generation, deterministic fault
// injection, engine dispatch, deliberate mutations, and batch drawing.
#include "fuzz/fuzz.hpp"

#include <algorithm>
#include <sstream>

#include "graph/algorithms.hpp"
#include "topology/faults.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace nue::fuzz {

namespace {

// Distinct salts so faults, mutation placement, and engine seeding draw
// from independent streams of the one scenario seed.
constexpr std::uint64_t kFaultSalt = 0xFA017C0DEULL;
constexpr std::uint64_t kMutationSalt = 0x5CA1AB1EULL;

/// Apply one minimizer removal; throws on anything unsafe so trial
/// removals are rejected instead of producing degenerate fabrics.
void apply_removal(Network& net, const Removal& r) {
  if (r.is_switch) {
    const NodeId v = r.id;
    NUE_CHECK_MSG(v < net.num_nodes() && net.node_alive(v),
                  "removal: switch " << v << " not alive");
    NUE_CHECK_MSG(net.is_switch(v), "removal: node " << v << " not a switch");
    NUE_CHECK_MSG(net.num_alive_switches() > 1, "removal: last switch");
    std::vector<NodeId> orphans;
    for (ChannelId c : net.out(v)) {
      if (net.is_terminal(net.dst(c))) orphans.push_back(net.dst(c));
    }
    net.remove_node(v);
    for (NodeId t : orphans) net.remove_node(t);
  } else {
    const ChannelId c = r.id & ~1u;
    NUE_CHECK_MSG(c < net.num_channels() && net.channel_alive(c),
                  "removal: link " << c << " not alive");
    NUE_CHECK_MSG(net.is_switch(net.src(c)) && net.is_switch(net.dst(c)),
                  "removal: link " << c << " is a terminal access link");
    net.remove_link(c);
  }
  NUE_CHECK_MSG(net.num_alive_terminals() >= 2,
                "removal leaves fewer than 2 terminals");
  NUE_CHECK_MSG(is_connected(net), "removal disconnects the fabric");
}

/// Catalogue engines the generator spec's kind admits, in enum order.
std::vector<Engine> engines_for(const std::string& gen) {
  const std::string kind = gen.substr(0, gen.find(':'));
  std::vector<Engine> out;
  for (std::size_t i = 0; i < kNumEngines; ++i) {
    const char* need = kEngines[i].generator;
    if (*need == '\0' || kind == need) out.push_back(static_cast<Engine>(i));
  }
  return out;
}

}  // namespace

const char* mutation_name(Mutation m) {
  switch (m) {
    case Mutation::kNone: return "none";
    case Mutation::kVlOverflow: return "vl-overflow";
    case Mutation::kDropEntry: return "drop-entry";
  }
  return "?";
}

std::optional<Mutation> mutation_from_name(const std::string& s) {
  for (Mutation m :
       {Mutation::kNone, Mutation::kVlOverflow, Mutation::kDropEntry}) {
    if (s == mutation_name(m)) return m;
  }
  return std::nullopt;
}

std::string ScenarioSpec::label() const {
  std::stringstream ss;
  ss << generate << " engine=" << engine_name(engine) << " vls=" << vls
     << " faults=" << fail_links << "L+" << fail_switches << "S"
     << " seed=" << seed;
  if (reconfig_events > 0) ss << " reconfig=" << reconfig_events;
  if (mutation != Mutation::kNone) ss << " mutation=" << mutation_name(mutation);
  return ss.str();
}

ScenarioBuild build_scenario(const ScenarioSpec& spec,
                             const std::vector<Removal>& removals) {
  ScenarioBuild b{generate_topology(spec.generate)};
  // Every engine's contract assumes a connected fabric (a folded Clos
  // whose uplink count divides the spine count, say, splits into islands);
  // reject such specs here instead of crashing inside an engine.
  NUE_CHECK_MSG(is_connected(b.net), "generator spec '"
                                         << spec.generate
                                         << "' yields a disconnected fabric");
  Rng fault_rng(spec.seed ^ kFaultSalt);
  // Switches first: a dead switch changes which links are left to draw.
  b.switch_faults = inject_switch_failures(b.net, spec.fail_switches,
                                           fault_rng);
  b.link_faults = inject_link_failures(b.net, spec.fail_links, fault_rng);
  for (const Removal& r : removals) apply_removal(b.net, r);
  b.degraded =
      b.switch_faults + b.link_faults + removals.size() > 0;
  return b;
}

EngineOutcome run_engine(const ScenarioSpec& spec, const ScenarioBuild& build) {
  EngineOutcome out;
  // Fat-tree d-mod-k on a degraded tree is outside its contract.
  if (engine_info(spec.engine).needs_pristine && build.degraded) {
    out.error = std::string(engine_name(spec.engine)) +
                " routing requires a pristine fabric";
    return out;
  }
  // 1 thread: scenarios parallelize across, not within.
  const EngineArgs args{.vls = spec.vls, .seed = spec.seed, .threads = 1,
                        .torus = build.torus, .fattree = build.fattree};
  try {
    out.rr = route_engine(spec.engine, build.net, build.net.terminals(), args);
  } catch (const RoutingFailure& e) {
    out.error = e.what();
  } catch (const std::exception& e) {
    out.error = e.what();
    out.crashed = true;
  }
  return out;
}

void apply_mutation(const ScenarioSpec& spec, const ScenarioBuild& build,
                    RoutingResult& rr) {
  if (spec.mutation == Mutation::kNone) return;
  const Network& net = build.net;
  Rng rng(spec.seed ^ kMutationSalt);
  const auto& dests = rr.destinations();
  NUE_CHECK_MSG(!dests.empty(), "mutation on a routing with no destinations");
  const auto di = static_cast<std::uint32_t>(rng.next_below(dests.size()));
  const NodeId d = dests[di];
  // A source terminal other than the destination: every oracle run walks
  // src -> d, so breakage placed on that walk is guaranteed visible.
  std::vector<NodeId> sources;
  for (NodeId t : net.terminals()) {
    if (t != d) sources.push_back(t);
  }
  NUE_CHECK_MSG(!sources.empty(), "mutation needs a second terminal");
  const NodeId s = sources[rng.next_below(sources.size())];
  const NodeId sw = net.terminal_switch(s);
  switch (spec.mutation) {
    case Mutation::kNone:
      break;
    case Mutation::kVlOverflow: {
      const auto bad = static_cast<std::uint8_t>(rr.num_vls() + 3);
      switch (rr.vl_mode()) {
        case VlMode::kPerDest:
          rr.set_dest_vl(di, bad);
          break;
        case VlMode::kPerSource:
          rr.set_source_vl(s, di, bad);
          break;
        case VlMode::kPerHop:
          rr.set_hop_vl(sw, di, bad);
          break;
      }
      break;
    }
    case Mutation::kDropEntry:
      // s's first switch hop toward d disappears: s can no longer reach d.
      rr.set_next(sw, di, kInvalidChannel);
      break;
  }
}

ScenarioSpec draw_scenario(std::uint64_t base_seed, std::uint64_t index) {
  Rng rng(base_seed ^ ((index + 1) * 0x9E3779B97F4A7C15ULL));
  ScenarioSpec s;
  s.seed = rng.next_u64();
  std::stringstream gen;
  switch (rng.next_below(7)) {
    case 0: {  // torus, 2-3 dims
      const auto nd = 2 + rng.next_below(2);
      gen << "torus:";
      for (std::uint64_t i = 0; i < nd; ++i) {
        gen << (i ? "x" : "") << 2 + rng.next_below(nd == 2 ? 3 : 2);
      }
      gen << ":" << 1 + rng.next_below(2);
      break;
    }
    case 1: {  // k-ary n-tree
      gen << "fattree:" << 2 + rng.next_below(2) << ":" << 2 + rng.next_below(2)
          << ":" << 1 + rng.next_below(2);
      break;
    }
    case 2: {  // 2-stage folded Clos; uplinks >= spines keeps the
               // round-robin wiring connected (complete bipartite core)
      const auto leaves = 4 + rng.next_below(5);
      const auto spines = 2 + rng.next_below(3);
      gen << "clos:" << leaves << "," << spines << ":"
          << spines + rng.next_below(2) << ":"
          << leaves * (1 + rng.next_below(2));
      break;
    }
    case 3:
      gen << "kautz:" << 2 + rng.next_below(2) << ":2:" << 1 + rng.next_below(2)
          << ":" << 1 + rng.next_below(2);
      break;
    case 4: {  // dragonfly with a*h >= g-1 so every group pair gets a link
      const auto a = 2 + rng.next_below(3);
      const auto h = 1 + rng.next_below(2);
      const auto g = 2 + rng.next_below(std::min<std::uint64_t>(a * h, 5));
      gen << "dragonfly:" << a << ":" << 1 + rng.next_below(2) << ":" << h
          << ":" << g;
      break;
    }
    case 5: {  // hyperx, 1-2 dims
      const auto nd = 1 + rng.next_below(2);
      gen << "hyperx:";
      for (std::uint64_t i = 0; i < nd; ++i) {
        gen << (i ? "x" : "") << (nd == 1 ? 3 + rng.next_below(4)
                                          : 2 + rng.next_below(3));
      }
      gen << ":" << 1 + rng.next_below(2);
      break;
    }
    default: {  // seeded random multigraph
      const auto sw = 6 + rng.next_below(20);
      gen << "random:" << sw << ":" << sw - 1 + rng.next_below(2 * sw) << ":"
          << 1 + rng.next_below(2) << ":" << rng.next_below(1'000'000);
      break;
    }
  }
  s.generate = gen.str();
  const std::vector<Engine> engines = engines_for(s.generate);
  s.engine = engines[rng.next_below(engines.size())];
  const std::uint32_t vl_choices[] = {1, 2, 4, 8};
  s.vls = std::max(vl_choices[rng.next_below(4)],
                   engine_info(s.engine).min_vls);
  if (rng.next_bool(0.65)) {
    s.fail_links = rng.next_below(4);
    s.fail_switches = rng.next_bool(0.3) ? 1 : 0;
  }
  return s;
}

std::vector<ScenarioSpec> smoke_corpus(std::uint64_t base_seed) {
  // One small instance per generator family; every fabric stays under the
  // differential-sim size bound so the simulator cross-check runs on the
  // entire corpus.
  const char* const topos[] = {
      "torus:3x3:2",     "fattree:2:3:2",     "clos:6,3:2:12",
      "kautz:2:2:2:1",   "dragonfly:4:1:2:4", "hyperx:3x3:1",
      "random:10:20:2:5",
  };
  std::vector<ScenarioSpec> specs;
  for (const char* topo : topos) {
    for (Engine e : engines_for(topo)) {
      for (std::uint32_t vls : {engine_info(e).min_vls, 4u}) {
        for (std::size_t faults : {std::size_t{0}, std::size_t{2}}) {
          ScenarioSpec s;
          s.seed = base_seed + specs.size();
          s.generate = topo;
          s.engine = e;
          s.vls = vls;
          s.fail_links = faults;
          specs.push_back(std::move(s));
        }
      }
    }
  }
  // Reconfiguration family: the live resilience manager driving a drawn
  // fault/repair trace. Appended last — corpus seeds are positional
  // (base_seed + index), so earlier entries must never shift.
  struct ReconfigEntry {
    const char* gen;
    Engine engine;
    std::uint32_t vls;
  };
  const ReconfigEntry reconfigs[] = {
      {"torus:3x3:2", Engine::kNue, 2},
      {"torus:3x3:2", Engine::kDfsssp, 4},
      {"random:10:20:2:5", Engine::kNue, 4},
      {"fattree:2:3:2", Engine::kUpDown, 1},
      {"hyperx:3x3:1", Engine::kLash, 4},
  };
  for (const auto& rc : reconfigs) {
    ScenarioSpec s;
    s.seed = base_seed + specs.size();
    s.generate = rc.gen;
    s.engine = rc.engine;
    s.vls = rc.vls;
    s.reconfig_events = 4;
    specs.push_back(std::move(s));
  }
  return specs;
}

std::vector<ScenarioOutcome> run_batch(const std::vector<ScenarioSpec>& specs,
                                       const FuzzConfig& cfg) {
  std::vector<ScenarioOutcome> out(specs.size());
  parallel_for(resolve_threads(cfg.threads), specs.size(), [&](std::size_t i) {
    ScenarioBuild build;
    OracleReport rep = run_scenario(specs[i], {}, cfg.oracle, &build);
    out[i] = {specs[i], build.link_faults, build.switch_faults,
              std::move(rep)};
  });
  return out;
}

}  // namespace nue::fuzz
