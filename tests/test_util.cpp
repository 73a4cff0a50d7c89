#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <sstream>

#include "util/error.hpp"
#include "util/flags.hpp"
#include "util/parse.hpp"
#include "util/rng.hpp"
#include "util/rss.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace nue {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowInRangeAndCoversValues) {
  Rng r(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = r.next_below(10);
    ASSERT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, NextRangeInclusive) {
  Rng r(9);
  bool lo = false, hi = false;
  for (int i = 0; i < 5000; ++i) {
    const auto v = r.next_range(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    lo |= v == -3;
    hi |= v == 3;
  }
  EXPECT_TRUE(lo);
  EXPECT_TRUE(hi);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng r(5);
  for (int i = 0; i < 1000; ++i) {
    const double d = r.next_double();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
  }
}

TEST(Rng, ShuffleIsPermutation) {
  Rng r(11);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  r.shuffle(v);
  auto copy = v;
  std::sort(copy.begin(), copy.end());
  EXPECT_EQ(copy, sorted);
}

TEST(Rng, ForkIndependent) {
  Rng a(3);
  Rng child = a.fork();
  EXPECT_NE(a.next_u64(), child.next_u64());
}

TEST(Stats, WelfordMatchesClosedForm) {
  Stats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);  // classic population-sd example
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(Stats, EmptyIsSafe) {
  Stats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(Stats, PercentileInterpolates) {
  std::vector<double> v{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 4.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 2.5);
}

TEST(Table, RendersAlignedColumns) {
  Table t({"name", "value"});
  t.row() << "alpha" << 1;
  t.row() << "b" << 2.5;
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("2.500"), std::string::npos);
  EXPECT_NE(out.find("-----"), std::string::npos);
}

TEST(Table, RowSizeMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::logic_error);
}

TEST(Flags, ParsesAllStyles) {
  const char* argv[] = {"prog", "--count", "5", "--rate=2.5", "--name",
                        "xy",   "--flag"};
  Flags f(7, const_cast<char**>(argv));
  EXPECT_EQ(f.get_int("count", 1, "c"), 5);
  EXPECT_DOUBLE_EQ(f.get_double("rate", 1.0, "r"), 2.5);
  EXPECT_EQ(f.get_string("name", "d", "n"), "xy");
  EXPECT_TRUE(f.get_bool("flag", false, "f"));
  EXPECT_EQ(f.get_int("missing", 7, "m"), 7);
  EXPECT_TRUE(f.finish());
}

TEST(Flags, UnknownFlagFailsFinish) {
  const char* argv[] = {"prog", "--nope", "1"};
  Flags f(3, const_cast<char**>(argv));
  (void)f.get_int("count", 1, "c");
  EXPECT_FALSE(f.finish());
}

// A malformed numeric value fails finish() (the tools then print the
// usage and exit 1) instead of running with its numeric prefix or a 0.
TEST(Flags, MalformedNumbersFailFinish) {
  for (const char* value :
       {"2x", "x", "", "99999999999999999999", "-", "+3", " 5"}) {
    const char* argv[] = {"prog", "--count", value};
    Flags f(3, const_cast<char**>(argv));
    EXPECT_EQ(f.get_int("count", 7, "c"), 7) << "'" << value << "'";
    EXPECT_FALSE(f.finish()) << "'" << value << "'";
  }
  for (const char* value : {"2x", "x", "", "1e999", "nan", "inf", " 2"}) {
    const std::string arg = std::string("--rate=") + value;
    const char* argv[] = {"prog", arg.c_str()};
    Flags f(2, const_cast<char**>(argv));
    EXPECT_DOUBLE_EQ(f.get_double("rate", 1.5, "r"), 1.5)
        << "'" << value << "'";
    EXPECT_FALSE(f.finish()) << "'" << value << "'";
  }
  const char* argv[] = {"prog", "--count", "-12", "--rate", "-2.5e-3"};
  Flags f(5, const_cast<char**>(argv));
  EXPECT_EQ(f.get_int("count", 7, "c"), -12);
  EXPECT_DOUBLE_EQ(f.get_double("rate", 1.5, "r"), -2.5e-3);
  EXPECT_TRUE(f.finish());
}

// --threads is range-checked by the parser: a negative or oversized
// request is a bad value, never a cast to a huge pool size.
TEST(Flags, ThreadsOutsideTheRangeFailFinish) {
  for (const char* value : {"-1", "1025", "4294967296", "4294967295"}) {
    const char* argv[] = {"prog", "--threads", value};
    Flags f(3, const_cast<char**>(argv));
    EXPECT_EQ(f.get_threads(), 0u) << value;
    EXPECT_FALSE(f.finish()) << value;
  }
  const char* argv[] = {"prog", "--threads=1024"};
  Flags f(2, const_cast<char**>(argv));
  EXPECT_EQ(f.get_threads(), 1024u);
  EXPECT_TRUE(f.finish());
}

TEST(Parse, SignedAndFloatingValues) {
  EXPECT_EQ(parse_int("0"), 0);
  EXPECT_EQ(parse_int("-9223372036854775808"),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(parse_int("9223372036854775807"),
            std::numeric_limits<std::int64_t>::max());
  EXPECT_FALSE(parse_int("9223372036854775808").has_value());
  EXPECT_FALSE(parse_int("-9223372036854775809").has_value());
  EXPECT_FALSE(parse_int("--1").has_value());
  EXPECT_EQ(parse_double("0.25"), 0.25);
  EXPECT_FALSE(parse_double("0.25 ").has_value());
  EXPECT_FALSE(parse_double("-1e999").has_value());
}

// Satellite regression (ISSUE 7): a /proc/self/status without VmHWM —
// stripped by some kernels and sandboxes — must read as "unavailable"
// (nullopt), never as a garbage number or a fake 0 in a report.
TEST(Rss, ParsesWellFormedVmHwm) {
  std::istringstream status(
      "Name:\tnue_route\nVmPeak:\t  123456 kB\nVmHWM:\t    2048 kB\n"
      "VmRSS:\t    1024 kB\n");
  const auto mb = peak_rss_mb_from_status(status);
  ASSERT_TRUE(mb.has_value());
  EXPECT_DOUBLE_EQ(*mb, 2.0);
}

TEST(Rss, MissingVmHwmIsUnavailable) {
  std::istringstream status(
      "Name:\tnue_route\nVmPeak:\t  123456 kB\nVmRSS:\t    1024 kB\n");
  EXPECT_FALSE(peak_rss_mb_from_status(status).has_value());
}

TEST(Rss, EmptyStatusIsUnavailable) {
  std::istringstream status("");
  EXPECT_FALSE(peak_rss_mb_from_status(status).has_value());
}

TEST(Rss, MalformedVmHwmIsUnavailableNotGarbage) {
  for (const char* line :
       {"VmHWM:\n", "VmHWM:\tgarbage kB\n", "VmHWM:\t12 pages\n",
        "VmHWM:\t-4 kB\n", "VmHWM:\t kB\n"}) {
    std::istringstream status(std::string("Name:\tx\n") + line);
    EXPECT_FALSE(peak_rss_mb_from_status(status).has_value()) << line;
  }
}

TEST(Rss, LiveProcessValueIsSaneWhenPresent) {
  // On Linux CI this is present and positive; elsewhere nullopt is the
  // contract. Either way it must never be a denormal zero stand-in.
  const auto mb = peak_rss_mb();
  if (mb) {
    EXPECT_GT(*mb, 0.0);
  }
}

TEST(Check, ThrowsWithMessage) {
  try {
    NUE_CHECK_MSG(1 == 2, "custom " << 42);
    FAIL() << "should have thrown";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("custom 42"), std::string::npos);
  }
}

}  // namespace
}  // namespace nue
