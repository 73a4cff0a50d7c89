#include "topology/generate.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
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

/// Overflow-safe node and link totals: every operation saturates at
/// UINT64_MAX, so a hostile spec's size compares against the ceiling
/// instead of wrapping to a small number.
std::uint64_t sat_add(std::uint64_t a, std::uint64_t b) {
  return a > UINT64_MAX - b ? UINT64_MAX : a + b;
}

std::uint64_t sat_mul(std::uint64_t a, std::uint64_t b) {
  return a != 0 && b > UINT64_MAX / a ? UINT64_MAX : a * b;
}

std::uint64_t product(const std::vector<std::uint32_t>& v) {
  std::uint64_t p = 1;
  for (const std::uint32_t x : v) p = sat_mul(p, x);
  return p;
}

std::uint64_t sum(const std::vector<std::uint32_t>& v) {
  std::uint64_t s = 0;
  for (const std::uint32_t x : v) s = sat_add(s, x);
  return s;
}

/// `base` to the power `exp`, saturating; it stops multiplying once the
/// result is past the ceiling, which is all check_size needs to know.
std::uint64_t power(std::uint64_t base, std::uint32_t exp) {
  std::uint64_t p = 1;
  for (std::uint32_t i = 0; i < exp && base > 1 && p <= kMaxGeneratedElements;
       ++i) {
    p = sat_mul(p, base);
  }
  return p;
}

/// Refuse a fabric past kMaxGeneratedElements before it is built.
/// `links` may be an upper bound of what the generator adds.
void check_size(const std::string& spec, std::uint64_t nodes,
                std::uint64_t links) {
  NUE_CHECK_MSG(nodes <= kMaxGeneratedElements &&
                    links <= kMaxGeneratedElements,
                "generator spec '" << spec << "': the fabric exceeds the "
                                      "ceiling of "
                                   << kMaxGeneratedElements
                                   << " nodes and as many links");
}

/// A fabric of `switches` switches carrying `terminals` terminals each
/// (one link apiece) and at most `switch_links` switch-to-switch links.
void check_size(const std::string& spec, std::uint64_t switches,
                std::uint64_t terminals, std::uint64_t switch_links) {
  const std::uint64_t t = sat_mul(switches, terminals);
  check_size(spec, sat_add(switches, t), sat_add(switch_links, t));
}

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
    const std::uint64_t sw = product(t.dims);
    check_size(spec, sw, t.terminals_per_switch,
               sat_mul(sat_mul(sw, t.dims.size()), t.redundancy));
    g.net = make_torus(t);
    g.torus = t;
  } else if (kind == "random") {
    f.takes(4);
    RandomSpec r;
    r.switches = f.num(1, "switches", 125);
    r.links = f.num(2, "links", 1000, 0);
    r.terminals_per_switch = f.num(3, "terminals", 8, 0);
    check_size(spec, r.switches, r.terminals_per_switch,
               std::max<std::uint64_t>(r.links, r.switches));
    Rng rng(f.num(4, "seed", 1, 0));
    g.net = make_random(r, rng);
  } else if (kind == "fattree") {
    f.takes(3);
    FatTreeSpec t;
    t.k = f.num(1, "k", 4);
    t.n = f.num(2, "n", 3);
    t.terminals_per_leaf = f.num(3, "terminals", t.k, 0);
    const std::uint64_t per_level = power(t.k, t.n - 1);
    const std::uint64_t terminals = sat_mul(per_level, t.terminals_per_leaf);
    check_size(spec, sat_add(sat_mul(per_level, t.n), terminals),
               sat_add(sat_mul(sat_mul(per_level, t.n), t.k), terminals));
    g.net = make_kary_ntree(t);
    g.fattree = t;
  } else if (kind == "kautz") {
    f.takes(4);
    KautzSpec k;
    k.d = f.num(1, "d", 5);
    k.k = f.num(2, "k", 3);
    k.terminals_per_switch = f.num(3, "terminals", 7, 0);
    k.redundancy = f.num(4, "redundancy", 2);
    const std::uint64_t vertices =
        sat_mul(sat_add(k.d, 1), power(k.d, k.k - 1));
    check_size(spec, vertices, k.terminals_per_switch,
               sat_mul(sat_mul(vertices, k.d), k.redundancy));
    g.net = make_kautz(k);
  } else if (kind == "dragonfly") {
    f.takes(4);
    DragonflySpec d;
    d.a = f.num(1, "a", 12);
    d.p = f.num(2, "p", 6, 0);
    d.h = f.num(3, "h", 6);
    d.g = f.num(4, "g", 15);
    const std::uint64_t sw = sat_mul(d.a, d.g);
    check_size(spec, sw, d.p, sat_mul(sw, sat_add(d.a, d.h)));
    g.net = make_dragonfly(d);
  } else if (kind == "hyperx") {
    f.takes(3);
    HyperXSpec h;
    h.shape = f.list(1, 'x', "dimension");
    h.terminals_per_switch = f.num(2, "terminals", 2, 0);
    h.redundancy = f.num(3, "redundancy", 1);
    const std::uint64_t sw = product(h.shape);
    check_size(spec, sw, h.terminals_per_switch,
               sat_mul(sat_mul(sw, sum(h.shape)), h.redundancy));
    g.net = make_hyperx(h);
  } else if (kind == "hypercube") {
    f.takes(2);
    const std::uint32_t dims = f.num(1, "dimensions", 4);
    const std::uint32_t terminals = f.num(2, "terminals", 1, 0);
    const std::uint64_t sw = power(2, dims);
    check_size(spec, sw, terminals, sat_mul(sw, dims));
    g.net = make_hypercube(dims, terminals);
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
    std::uint64_t links = c.num_terminals;
    for (std::size_t i = 0; i < c.uplinks.size(); ++i) {
      links = sat_add(links, sat_mul(c.stage_sizes[i], c.uplinks[i]));
    }
    check_size(spec, sat_add(sum(c.stage_sizes), c.num_terminals), links);
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
