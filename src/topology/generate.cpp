#include "topology/generate.hpp"

#include <limits>
#include <vector>

#include "topology/misc_topologies.hpp"
#include "util/error.hpp"
#include "util/parse.hpp"
#include "util/rng.hpp"

namespace nue {

namespace {

/// A spec's `:`-separated fields under the strict rules of the grammar.
/// Every read names its field, so a malformed spec fails with a message
/// saying which field of which spec is wrong.
class SpecFields {
 public:
  explicit SpecFields(const std::string& spec)
      : spec_(spec), parts_(split(spec, ':')) {}

  const std::string& kind() const { return parts_[0]; }

  /// Reject fields past the kind's `n` arguments.
  void takes(std::size_t n) const {
    NUE_CHECK_MSG(parts_.size() <= n + 1,
                  "generator spec '" << spec_ << "': " << kind()
                                     << " takes at most " << n
                                     << " arguments, extra field '"
                                     << parts_[n + 1] << "'");
  }

  /// Argument `i` (1-based after the kind), `def` when the spec ends
  /// before it. `min` is 1 for dimensions and structural sizes, 0 for
  /// terminal counts, link counts and seeds.
  std::uint32_t num(std::size_t i, const char* what, std::uint32_t def,
                    std::uint32_t min = 1) const {
    return parts_.size() > i ? value(parts_[i], what, min) : def;
  }

  /// Required argument `i` as a `sep`-separated list of sizes >= 1.
  std::vector<std::uint32_t> list(std::size_t i, char sep,
                                  const char* what) const {
    NUE_CHECK_MSG(parts_.size() > i, "generator spec '" << spec_ << "': "
                                         << kind() << " needs " << what
                                         << "s");
    std::vector<std::uint32_t> out;
    for (const auto& field : split(parts_[i], sep)) {
      out.push_back(value(field, what, 1));
    }
    return out;
  }

  /// Required argument `i` as a number >= `min`.
  std::uint32_t need(std::size_t i, const char* what,
                     std::uint32_t min) const {
    NUE_CHECK_MSG(parts_.size() > i, "generator spec '" << spec_ << "': "
                                         << kind() << " needs " << what);
    return value(parts_[i], what, min);
  }

 private:
  std::uint32_t value(const std::string& field, const char* what,
                      std::uint32_t min) const {
    const auto v =
        parse_uint(field, std::numeric_limits<std::uint32_t>::max());
    NUE_CHECK_MSG(v.has_value() && *v >= min,
                  "generator spec '" << spec_ << "': " << what << " '"
                                     << field << "' must be "
                                     << (min > 0 ? "a positive"
                                                 : "an unsigned")
                                     << " 32-bit integer");
    return static_cast<std::uint32_t>(*v);
  }

  const std::string& spec_;
  std::vector<std::string> parts_;
};

}  // namespace

GeneratedTopology generate_topology(const std::string& spec) {
  GeneratedTopology g;
  const SpecFields f(spec);
  const std::string& kind = f.kind();
  if (kind == "torus") {
    f.takes(3);
    TorusSpec t;
    t.dims = f.list(1, 'x', "dimension");
    t.terminals_per_switch = f.num(2, "terminals", 1, 0);
    t.redundancy = f.num(3, "redundancy", 1);
    g.net = make_torus(t);
    g.torus = t;
  } else if (kind == "random") {
    f.takes(4);
    RandomSpec r;
    r.switches = f.num(1, "switches", 125);
    r.links = f.num(2, "links", 1000, 0);
    r.terminals_per_switch = f.num(3, "terminals", 8, 0);
    Rng rng(f.num(4, "seed", 1, 0));
    g.net = make_random(r, rng);
  } else if (kind == "fattree") {
    f.takes(3);
    FatTreeSpec t;
    t.k = f.num(1, "k", 4);
    t.n = f.num(2, "n", 3);
    t.terminals_per_leaf = f.num(3, "terminals", t.k, 0);
    g.net = make_kary_ntree(t);
    g.fattree = t;
  } else if (kind == "kautz") {
    f.takes(4);
    KautzSpec k;
    k.d = f.num(1, "d", 5);
    k.k = f.num(2, "k", 3);
    k.terminals_per_switch = f.num(3, "terminals", 7, 0);
    k.redundancy = f.num(4, "redundancy", 2);
    g.net = make_kautz(k);
  } else if (kind == "dragonfly") {
    f.takes(4);
    DragonflySpec d;
    d.a = f.num(1, "a", 12);
    d.p = f.num(2, "p", 6, 0);
    d.h = f.num(3, "h", 6);
    d.g = f.num(4, "g", 15);
    g.net = make_dragonfly(d);
  } else if (kind == "hyperx") {
    f.takes(3);
    HyperXSpec h;
    h.shape = f.list(1, 'x', "dimension");
    h.terminals_per_switch = f.num(2, "terminals", 2, 0);
    h.redundancy = f.num(3, "redundancy", 1);
    g.net = make_hyperx(h);
  } else if (kind == "hypercube") {
    f.takes(2);
    const std::uint32_t dims = f.num(1, "dimensions", 4);
    g.net = make_hypercube(dims, f.num(2, "terminals", 1, 0));
  } else if (kind == "clos") {
    f.takes(3);
    ClosSpec c;
    c.stage_sizes = f.list(1, ',', "stage size");
    c.uplinks = f.list(2, ',', "uplink count");
    c.num_terminals = f.need(3, "terminals", 0);
    NUE_CHECK_MSG(c.stage_sizes.size() >= 2 &&
                      c.uplinks.size() == c.stage_sizes.size() - 1,
                  "generator spec '" << spec << "': clos wants two or more "
                                        "stage sizes and one uplink count "
                                        "per stage below the top");
    g.net = make_folded_clos(c);
  } else if (kind == "cascade") {
    f.takes(0);
    g.net = make_cascade(CascadeSpec{});
  } else if (kind == "tsubame") {
    f.takes(0);
    ClosSpec c;
    g.net = make_tsubame25_like(c);
  } else {
    NUE_CHECK_MSG(false, "generator spec '" << spec
                                             << "': unknown topology kind '"
                                             << kind << "'");
  }
  return g;
}

}  // namespace nue
