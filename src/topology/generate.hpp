// Colon-separated topology generator specs ("torus:4x4x3:4",
// "random:125:1000:8", "fattree:4:3", ...) resolved into a built fabric.
// This is the one grammar every front end shares: nue_route's --generate
// flag, fault traces (FaultTrace::generate re-instantiates the fabric a
// trace was drawn on), the fabric-manager daemon's `load` op and --load
// flag (docs/SERVICE.md), and the fuzzer's scenarios and reproducers
// (docs/FUZZING.md) all parse their specs here, so a spec recorded by
// one tool always means the same fabric to the others.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "graph/network.hpp"
#include "topology/torus.hpp"
#include "topology/trees.hpp"

namespace nue {

/// A generated fabric plus the geometry the topology-aware engines need
/// (torus-qos wants the ring structure, fat-tree d-mod-k the level
/// layout); empty for the geometry-free generators.
struct GeneratedTopology {
  Network net;
  std::optional<TorusSpec> torus;
  std::optional<FatTreeSpec> fattree;
};

/// Largest node count, and largest link count, a generator spec may ask
/// for: 2^24 each, room for the million-switch tori of docs/SCALING.md
/// with terminals. Larger fabrics are refused before anything is
/// allocated, so a well-formed but huge spec (torus:3x3:4000000000) is
/// an error, not an exhausted machine.
inline constexpr std::uint64_t kMaxGeneratedElements = std::uint64_t{1}
                                                       << 24;

/// Build the fabric a generator spec describes. Grammar (arguments in
/// brackets are optional and take the default shown):
///
///   torus:AxBx...[:terminals=1[:redundancy=1]]
///   random[:switches=125[:links=1000[:terminals=8[:seed=1]]]]
///   fattree[:k=4[:n=3[:terminals=k]]]
///   kautz[:d=5[:k=3[:terminals=7[:redundancy=2]]]]
///   dragonfly[:a=12[:p=6[:h=6[:g=15]]]]
///   hyperx:AxB...[:terminals=2[:redundancy=1]]
///   hypercube[:dims=4[:terminals=1]]
///   clos:S0,S1,...:U0,...:terminals  (stage sizes bottom-up, one uplink
///                                     count per stage below the top)
///   cascade | tsubame
///
/// Parsing is strict. Fields split on ':' with empty fields kept; every
/// number, and every entry of an 'x' or ',' list, is one or more ASCII
/// digits that fit in 32 bits. Dimensions and structural sizes must be
/// >= 1; terminal counts, link counts and seeds may be 0. An empty
/// field, a sign, trailing characters, or more fields than the kind
/// takes throws std::logic_error (NUE_CHECK) naming the field and the
/// spec, as does an unknown kind, and so does a fabric whose node or
/// link total (counted with overflow-safe arithmetic from the fields
/// alone) exceeds kMaxGeneratedElements. Deterministic: the same spec always
/// yields the same fabric, which is what lets the daemon's tables be
/// diffed against a one-shot nue_route run.
GeneratedTopology generate_topology(const std::string& spec);

}  // namespace nue
