// Fault injection for the fail-in-place experiments (Figs. 1 and 11):
// remove random switch-to-switch links or whole switches while keeping the
// fabric connected and every terminal attached — plus the runtime side of
// the same story: repair APIs (restore_link / restore_switch), a typed
// fault/repair event stream, and a replayable text trace format consumed
// by the live resilience manager (src/resilience, docs/RESILIENCE.md).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "graph/network.hpp"
#include "util/rng.hpp"

namespace nue {

/// Remove `count` switch-to-switch links chosen uniformly at random.
/// Links whose removal would disconnect the alive fabric are skipped and
/// redrawn (up to a bounded number of attempts, and no further once no
/// removable link is left). Returns the number of links actually removed.
std::size_t inject_link_failures(Network& net, std::size_t count, Rng& rng);

/// Remove `count` random switches (with all their links, including the
/// terminals' access links — the terminals become orphans and are removed
/// too, matching a dead switch taking its nodes offline). Switches whose
/// removal would disconnect the remaining fabric are redrawn, until no
/// removable switch is left. Returns the number of switches actually
/// removed.
std::size_t inject_switch_failures(Network& net, std::size_t count, Rng& rng);

// --- runtime repair ---------------------------------------------------------

/// Re-add one failed switch-to-switch link. Throws std::logic_error if the
/// pair is alive, is a terminal access link, or has a dead endpoint (a
/// link only comes back once both of its switches are up).
void restore_link(Network& net, ChannelId c);

/// Revive a dead switch: the node itself, every failed link from it to an
/// alive switch, and its orphaned terminals with their access links.
/// Links toward switches that are still dead stay down (they return when
/// that switch is restored). Note the deliberate simplification: a link
/// that was failed *individually* before the switch died is revived with
/// the switch — the trace event stream, not per-element bookkeeping, is
/// the source of truth for replay. Returns the number of duplex links
/// restored. Throws std::logic_error if `sw` is alive or not a switch.
std::size_t restore_switch(Network& net, NodeId sw);

// --- fault/repair event streams ---------------------------------------------

enum class FaultEventKind : std::uint8_t {
  kLinkDown,
  kSwitchDown,
  kLinkRestore,
  kSwitchRestore,
};

const char* fault_event_name(FaultEventKind k);

struct FaultEvent {
  FaultEventKind kind = FaultEventKind::kLinkDown;
  /// Even ChannelId of the duplex pair for link events, NodeId for switch
  /// events — always in the pristine fabric's id space (ids are stable
  /// across removal and restoration).
  std::uint32_t id = 0;

  std::string label() const;
};

/// Apply one event to the live fabric. Down events mirror the injection
/// discipline (switch-to-switch links only, dead switches take their
/// terminals along); restore events mirror restore_link/restore_switch.
/// Throws std::logic_error on an illegal event: dead/alive mismatch, a
/// terminal target, or a removal that would disconnect the alive fabric
/// or leave fewer than two terminals.
void apply_fault_event(Network& net, const FaultEvent& e);

/// A replayable runtime fault scenario: the generator spec that produced
/// the pristine fabric, the seed the events were drawn from (provenance),
/// and the ordered event sequence. Like the fuzzer's reproducers, the
/// trace alone replays the scenario byte-for-byte on any machine:
///
///   nue-fault-trace v1
///   generate <generator spec>
///   seed <u64>
///   link-down <even channel id>       (zero or more, in order)
///   switch-down <node id>
///   link-restore <even channel id>
///   switch-restore <node id>
struct FaultTrace {
  std::string generate;
  std::uint64_t seed = 1;
  std::vector<FaultEvent> events;
};

void write_fault_trace(std::ostream& os, const FaultTrace& t);
FaultTrace read_fault_trace(std::istream& is);
FaultTrace load_fault_trace_file(const std::string& path);
void save_fault_trace_file(const std::string& path, const FaultTrace& t);

/// Draw a random, always-legal event sequence of (up to) `count` events
/// against a scratch copy of `net`: each step restores a failed element
/// with probability `restore_fraction` (when one exists) and fails an
/// alive one otherwise, redrawing unsafe candidates with the same bounded
/// discipline as inject_*. Returns fewer events only when the fabric runs
/// out of legal moves. `net` itself is not modified.
FaultTrace draw_fault_trace(const Network& net, const std::string& generate,
                            std::uint64_t seed, std::size_t count,
                            double restore_fraction = 0.3);

}  // namespace nue
