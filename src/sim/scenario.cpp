#include "sim/scenario.hpp"

#include <algorithm>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "util/error.hpp"
#include "util/parse.hpp"

namespace nue {

namespace {

[[noreturn]] void bad_scenario(const std::string& what) {
  throw std::logic_error("scenario: " + what);
}

/// Random source/destination pair with self-pairs redrawn (never skipped,
/// same contract as the traffic generators). A single-entry destination
/// pool redraws the source instead, so the loop always terminates.
std::pair<NodeId, NodeId> random_pair(const std::vector<NodeId>& sources,
                                      const std::vector<NodeId>& dests,
                                      Rng& rng) {
  NodeId s = sources[rng.next_below(sources.size())];
  NodeId d = dests[rng.next_below(dests.size())];
  while (d == s) {
    if (dests.size() > 1) {
      d = dests[rng.next_below(dests.size())];
    } else {
      s = sources[rng.next_below(sources.size())];
    }
  }
  return {s, d};
}

std::vector<NodeId> resolve_pool(const Network& net,
                                 const std::vector<NodeId>& dest_pool) {
  if (!dest_pool.empty()) return dest_pool;
  const auto t = net.terminals();
  return {t.begin(), t.end()};
}

}  // namespace

std::size_t Scenario::total_messages() const {
  std::size_t n = 0;
  for (const auto& ph : phases) n += ph.messages.size();
  return n;
}

std::uint64_t Scenario::total_bytes() const {
  std::uint64_t b = 0;
  for (const auto& ph : phases) {
    for (const auto& tm : ph.messages) b += tm.msg.bytes;
  }
  return b;
}

ScenarioResult simulate_scenario(const Network& net, const RoutingResult& rr,
                                 const Scenario& sc, const SimConfig& cfg,
                                 std::uint32_t adaptive_vls) {
  EventSimulator sim(net, rr, cfg, adaptive_vls);
  ScenarioResult out;
  out.phases.reserve(sc.phases.size());
  std::vector<std::size_t> open;  // injected phases awaiting their barrier
  std::uint64_t base = 1;
  bool stopped = false;
  const auto drain = [&]() {
    out.status = sim.run();
    for (const std::size_t idx : open) out.phases[idx].end_cycle = sim.now();
    open.clear();
    if (out.status != SimRunStatus::kCompleted) stopped = true;
  };
  for (const ScenarioPhase& ph : sc.phases) {
    if (ph.barrier && !open.empty()) {
      drain();
      if (stopped) break;
      base = sim.now() + 1;
    }
    PhaseSpan span;
    span.label = ph.label;
    span.start_cycle = base;
    for (const TimedMessage& tm : ph.messages) {
      sim.inject(tm.msg, base + tm.time);
      ++span.messages;
      span.bytes += tm.msg.bytes;
    }
    open.push_back(out.phases.size());
    out.phases.push_back(std::move(span));
  }
  if (!stopped && !open.empty()) drain();
  out.sim = sim.result();
  return out;
}

ScenarioPhase uniform_arrivals_phase(const Network& net, std::size_t count,
                                     std::uint32_t message_bytes,
                                     std::uint64_t duration, Rng& rng,
                                     const std::vector<NodeId>& dest_pool) {
  const auto terminals = net.terminals();
  NUE_CHECK(terminals.size() >= 2);
  const std::vector<NodeId> sources(terminals.begin(), terminals.end());
  const std::vector<NodeId> dests = resolve_pool(net, dest_pool);
  ScenarioPhase ph;
  ph.label = "uniform";
  ph.messages.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto [s, d] = random_pair(sources, dests, rng);
    ph.messages.push_back(
        {{s, d, message_bytes}, duration > 0 ? rng.next_below(duration) : 0});
  }
  return ph;
}

ScenarioPhase burst_arrivals_phase(const Network& net, std::size_t bursts,
                                   std::size_t per_burst,
                                   std::uint32_t message_bytes,
                                   std::uint64_t gap, Rng& rng,
                                   const std::vector<NodeId>& dest_pool) {
  const auto terminals = net.terminals();
  NUE_CHECK(terminals.size() >= 2);
  const std::vector<NodeId> sources(terminals.begin(), terminals.end());
  const std::vector<NodeId> dests = resolve_pool(net, dest_pool);
  ScenarioPhase ph;
  ph.label = "burst";
  ph.messages.reserve(bursts * per_burst);
  for (std::size_t b = 0; b < bursts; ++b) {
    const std::uint64_t at = b * gap;
    for (std::size_t i = 0; i < per_burst; ++i) {
      const auto [s, d] = random_pair(sources, dests, rng);
      ph.messages.push_back({{s, d, message_bytes}, at});
    }
  }
  return ph;
}

ScenarioPhase hotspot_drift_phase(const Network& net, std::size_t count,
                                  std::uint32_t message_bytes,
                                  double hot_fraction, std::uint64_t duration,
                                  std::size_t steps, Rng& rng,
                                  const std::vector<NodeId>& dest_pool) {
  const auto terminals = net.terminals();
  NUE_CHECK(terminals.size() >= 2);
  NUE_CHECK(hot_fraction >= 0.0 && hot_fraction <= 1.0);
  const std::vector<NodeId> sources(terminals.begin(), terminals.end());
  const std::vector<NodeId> dests = resolve_pool(net, dest_pool);
  const std::size_t nsteps = std::max<std::size_t>(steps, 1);
  ScenarioPhase ph;
  ph.label = "hotspot-drift";
  ph.messages.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    // Deterministic even spread over the duration; the hot terminal walks
    // through `steps` evenly spaced pool positions as time advances.
    const std::uint64_t at = count > 0 ? (i * duration) / count : 0;
    const std::size_t step = count > 0 ? (i * nsteps) / count : 0;
    const NodeId hot = dests[(step * dests.size()) / nsteps];
    NodeId s = sources[rng.next_below(sources.size())];
    NodeId d;
    if (rng.next_bool(hot_fraction)) {
      d = hot;
      while (s == d) s = sources[rng.next_below(sources.size())];
    } else {
      d = dests[rng.next_below(dests.size())];
      while (d == s) {
        if (dests.size() > 1) {
          d = dests[rng.next_below(dests.size())];
        } else {
          s = sources[rng.next_below(sources.size())];
        }
      }
    }
    ph.messages.push_back({{s, d, message_bytes}, at});
  }
  return ph;
}

Scenario allreduce_ring_scenario(const Network& net, std::uint64_t bytes) {
  const auto terminals = net.terminals();
  const std::size_t t = terminals.size();
  NUE_CHECK(t >= 2);
  // Bandwidth-optimal ring: reduce-scatter then allgather, each T-1
  // neighbor-exchange steps of one bytes/T chunk.
  const auto chunk = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(std::max<std::uint64_t>(bytes / t, 1),
                              0xFFFFFFFFu));
  Scenario sc;
  for (int half = 0; half < 2; ++half) {
    for (std::size_t s = 0; s + 1 < t; ++s) {
      ScenarioPhase ph;
      ph.label = (half == 0 ? "reduce-scatter " : "allgather ") +
                 std::to_string(s);
      ph.messages.reserve(t);
      for (std::size_t i = 0; i < t; ++i) {
        ph.messages.push_back({{terminals[i], terminals[(i + 1) % t], chunk}, 0});
      }
      sc.phases.push_back(std::move(ph));
    }
  }
  return sc;
}

Scenario allreduce_tree_scenario(const Network& net, std::uint64_t bytes) {
  const auto terminals = net.terminals();
  const std::size_t t = terminals.size();
  NUE_CHECK(t >= 2);
  const auto sz = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(std::max<std::uint64_t>(bytes, 1), 0xFFFFFFFFu));
  std::size_t levels = 0;
  while ((std::size_t{1} << levels) < t) ++levels;
  Scenario sc;
  // Reduce up: at level k, odd multiples of 2^k send to their even
  // partner 2^k below; broadcast down mirrors it.
  for (std::size_t k = 0; k < levels; ++k) {
    ScenarioPhase ph;
    ph.label = "reduce " + std::to_string(k);
    const std::size_t stride = std::size_t{1} << (k + 1);
    for (std::size_t i = (std::size_t{1} << k); i < t; i += stride) {
      ph.messages.push_back({{terminals[i], terminals[i - (std::size_t{1} << k)], sz}, 0});
    }
    if (!ph.messages.empty()) sc.phases.push_back(std::move(ph));
  }
  for (std::size_t k = levels; k-- > 0;) {
    ScenarioPhase ph;
    ph.label = "broadcast " + std::to_string(k);
    const std::size_t stride = std::size_t{1} << (k + 1);
    for (std::size_t i = 0; i + (std::size_t{1} << k) < t; i += stride) {
      ph.messages.push_back({{terminals[i], terminals[i + (std::size_t{1} << k)], sz}, 0});
    }
    if (!ph.messages.empty()) sc.phases.push_back(std::move(ph));
  }
  return sc;
}

Scenario alltoall_phased_scenario(const Network& net,
                                  std::uint32_t message_bytes,
                                  std::uint32_t shift_samples) {
  const auto terminals = net.terminals();
  const auto t = static_cast<std::uint32_t>(terminals.size());
  NUE_CHECK(t >= 2);
  const std::uint32_t num_shifts =
      shift_samples == 0 ? t - 1 : std::min(shift_samples, t - 1);
  Scenario sc;
  for (std::uint32_t k = 0; k < num_shifts; ++k) {
    const std::uint32_t s =
        1 + static_cast<std::uint32_t>(
                (static_cast<std::uint64_t>(k) * (t - 1)) / num_shifts);
    ScenarioPhase ph;
    ph.label = "shift " + std::to_string(s);
    ph.messages.reserve(t);
    for (std::uint32_t i = 0; i < t; ++i) {
      ph.messages.push_back(
          {{terminals[i], terminals[(i + s) % t], message_bytes}, 0});
    }
    sc.phases.push_back(std::move(ph));
  }
  return sc;
}

// --- trace replay -----------------------------------------------------------

void write_trace(std::ostream& os, const Scenario& sc) {
  os << "# nue-trace v1\n";
  for (const auto& ph : sc.phases) {
    os << "phase " << (ph.barrier ? 1 : 0) << ' ' << ph.label << '\n';
    for (const auto& tm : ph.messages) {
      os << "msg " << tm.msg.src << ' ' << tm.msg.dst << ' ' << tm.msg.bytes
         << ' ' << tm.time << '\n';
    }
  }
}

Scenario read_trace(std::istream& is) {
  std::string line;
  if (!std::getline(is, line) || line != "# nue-trace v1") {
    bad_scenario("trace missing '# nue-trace v1' header");
  }
  Scenario sc;
  std::size_t lineno = 1;
  while (std::getline(is, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ss(line);
    std::string tok;
    ss >> tok;
    if (tok == "phase") {
      int barrier = 0;
      if (!(ss >> barrier)) {
        bad_scenario("trace line " + std::to_string(lineno) + ": bad phase");
      }
      ScenarioPhase ph;
      ph.barrier = barrier != 0;
      std::getline(ss, ph.label);
      if (!ph.label.empty() && ph.label[0] == ' ') ph.label.erase(0, 1);
      sc.phases.push_back(std::move(ph));
    } else if (tok == "msg") {
      if (sc.phases.empty()) {
        bad_scenario("trace line " + std::to_string(lineno) +
                     ": msg before any phase");
      }
      TimedMessage tm;
      if (!(ss >> tm.msg.src >> tm.msg.dst >> tm.msg.bytes >> tm.time)) {
        bad_scenario("trace line " + std::to_string(lineno) + ": bad msg");
      }
      sc.phases.back().messages.push_back(tm);
    } else {
      bad_scenario("trace line " + std::to_string(lineno) +
                   ": unknown record '" + tok + "'");
    }
  }
  return sc;
}

void save_trace_file(const std::string& path, const Scenario& sc) {
  std::ofstream os(path);
  if (!os) bad_scenario("cannot write trace file " + path);
  write_trace(os, sc);
}

Scenario load_trace_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) bad_scenario("cannot read trace file " + path);
  return read_trace(is);
}

// --- CLI grammar ------------------------------------------------------------

namespace {

std::uint64_t parse_u64(const std::string& s, const std::string& directive) {
  const auto v = parse_uint(s);
  if (!v) {
    bad_scenario("bad number '" + s + "' in directive '" + directive + "'");
  }
  return *v;
}

void expect_args(const std::vector<std::string>& parts, std::size_t n,
                 const std::string& directive) {
  if (parts.size() != n + 1) {
    bad_scenario("directive '" + directive + "' wants " + std::to_string(n) +
                 " arguments");
  }
}

}  // namespace

Scenario parse_scenario(const Network& net, const std::string& spec, Rng& rng,
                        const std::vector<NodeId>& dest_pool) {
  Scenario sc;
  for (const std::string& directive : split(spec, ';')) {
    if (directive.empty()) continue;
    const auto parts = split(directive, ':');
    const std::string& kind = parts[0];
    if (kind == "uniform") {
      expect_args(parts, 3, directive);
      sc.phases.push_back(uniform_arrivals_phase(
          net, parse_u64(parts[1], directive),
          static_cast<std::uint32_t>(parse_u64(parts[2], directive)),
          parse_u64(parts[3], directive), rng, dest_pool));
    } else if (kind == "burst") {
      expect_args(parts, 4, directive);
      sc.phases.push_back(burst_arrivals_phase(
          net, parse_u64(parts[1], directive), parse_u64(parts[2], directive),
          static_cast<std::uint32_t>(parse_u64(parts[3], directive)),
          parse_u64(parts[4], directive), rng, dest_pool));
    } else if (kind == "hotspot") {
      expect_args(parts, 5, directive);
      sc.phases.push_back(hotspot_drift_phase(
          net, parse_u64(parts[1], directive),
          static_cast<std::uint32_t>(parse_u64(parts[2], directive)),
          static_cast<double>(parse_u64(parts[3], directive)) / 100.0,
          parse_u64(parts[4], directive), parse_u64(parts[5], directive), rng,
          dest_pool));
    } else if (kind == "alltoall") {
      expect_args(parts, 2, directive);
      Scenario a = alltoall_phased_scenario(
          net, static_cast<std::uint32_t>(parse_u64(parts[1], directive)),
          static_cast<std::uint32_t>(parse_u64(parts[2], directive)));
      for (auto& ph : a.phases) sc.phases.push_back(std::move(ph));
    } else if (kind == "allreduce-ring") {
      expect_args(parts, 1, directive);
      Scenario a = allreduce_ring_scenario(net, parse_u64(parts[1], directive));
      for (auto& ph : a.phases) sc.phases.push_back(std::move(ph));
    } else if (kind == "allreduce-tree") {
      expect_args(parts, 1, directive);
      Scenario a = allreduce_tree_scenario(net, parse_u64(parts[1], directive));
      for (auto& ph : a.phases) sc.phases.push_back(std::move(ph));
    } else if (kind == "trace") {
      expect_args(parts, 1, directive);
      Scenario a = load_trace_file(parts[1]);
      for (auto& ph : a.phases) sc.phases.push_back(std::move(ph));
    } else {
      bad_scenario("unknown directive '" + kind + "'");
    }
  }
  if (sc.phases.empty()) bad_scenario("empty scenario spec '" + spec + "'");
  return sc;
}

}  // namespace nue
