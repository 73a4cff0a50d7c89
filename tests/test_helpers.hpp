// Shared fixtures: small hand-built networks used across the test suite,
// including the paper's running example (5-node ring with shortcut,
// Fig. 2a) and the binary-tree impasse network (Fig. 7a).
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "graph/network.hpp"
#include "routing/validate.hpp"

namespace nue::test {

/// Ring of n switches with one terminal each.
inline Network make_ring(std::uint32_t n, std::uint32_t terminals = 1) {
  Network net;
  for (std::uint32_t i = 0; i < n; ++i) net.add_switch();
  for (std::uint32_t i = 0; i < n; ++i) net.add_link(i, (i + 1) % n);
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t t = 0; t < terminals; ++t) {
      const NodeId term = net.add_terminal();
      net.add_link(term, i);
    }
  }
  return net;
}

/// Path (line) of n switches with one terminal each.
inline Network make_line(std::uint32_t n, std::uint32_t terminals = 1) {
  Network net;
  for (std::uint32_t i = 0; i < n; ++i) net.add_switch();
  for (std::uint32_t i = 0; i + 1 < n; ++i) net.add_link(i, i + 1);
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t t = 0; t < terminals; ++t) {
      const NodeId term = net.add_terminal();
      net.add_link(term, i);
    }
  }
  return net;
}

/// The paper's Fig. 2a: 5-node ring n1..n5 with a shortcut n3–n5.
/// Node ids: n1 = 0, ..., n5 = 4 (switch-only network).
inline Network make_paper_ring() {
  Network net;
  for (int i = 0; i < 5; ++i) net.add_switch();
  net.add_link(0, 1);  // n1 - n2
  net.add_link(1, 2);  // n2 - n3
  net.add_link(2, 3);  // n3 - n4
  net.add_link(3, 4);  // n4 - n5
  net.add_link(4, 0);  // n5 - n1
  net.add_link(2, 4);  // n3 - n5 shortcut
  return net;
}

/// Same topology with one terminal per switch (for routing tests that
/// need terminal destinations).
inline Network make_paper_ring_with_terminals() {
  Network net = make_paper_ring();
  for (NodeId sw = 0; sw < 5; ++sw) {
    const NodeId t = net.add_terminal();
    net.add_link(t, sw);
  }
  return net;
}

/// Every field of two validation reports is equal, `detail` included and
/// the average path length bit for bit.
inline void expect_same_report(const ValidationReport& got,
                               const ValidationReport& want) {
  EXPECT_EQ(got.connected, want.connected);
  EXPECT_EQ(got.cycle_free, want.cycle_free);
  EXPECT_EQ(got.deadlock_free, want.deadlock_free);
  EXPECT_EQ(got.vl_in_range, want.vl_in_range);
  EXPECT_EQ(got.live_elements, want.live_elements);
  EXPECT_EQ(got.num_paths, want.num_paths);
  EXPECT_EQ(got.max_path_length, want.max_path_length);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.avg_path_length),
            std::bit_cast<std::uint64_t>(want.avg_path_length));
  EXPECT_EQ(got.detail, want.detail);
}

}  // namespace nue::test
