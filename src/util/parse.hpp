// The tokenizer and strict number parsers behind every spec string and
// numeric flag the repo reads from outside: generator specs
// (src/topology/generate.hpp), sim scenario directives, nue_managerd's
// --load entries and every tool's numeric flags (src/util/flags.hpp).
#pragma once

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace nue {

/// Split on `sep`, keeping empty fields: "a::b" -> {"a", "", "b"},
/// "a:" -> {"a", ""}, "" -> {""}.
inline std::vector<std::string> split(std::string_view s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

/// `s` as an unsigned integer no larger than `max`; nullopt unless `s` is
/// one or more ASCII digits. Signs, blanks and trailing characters are
/// all rejected, and so is any value above `max`.
inline std::optional<std::uint64_t> parse_uint(
    std::string_view s,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
  if (s.empty()) return std::nullopt;
  std::uint64_t v = 0;
  for (char ch : s) {
    if (ch < '0' || ch > '9') return std::nullopt;
    const auto digit = static_cast<std::uint64_t>(ch - '0');
    if (v > (max - digit) / 10) return std::nullopt;
    v = v * 10 + digit;
  }
  return v;
}

/// `s` as a signed 64-bit integer: an optional '-' and then what
/// parse_uint accepts, in range. nullopt for anything else.
inline std::optional<std::int64_t> parse_int(std::string_view s) {
  constexpr auto kMax =
      static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max());
  if (!s.empty() && s[0] == '-') {
    const auto v = parse_uint(s.substr(1), kMax + 1);
    if (!v) return std::nullopt;
    return *v == kMax + 1 ? std::numeric_limits<std::int64_t>::min()
                          : -static_cast<std::int64_t>(*v);
  }
  const auto v = parse_uint(s, kMax);
  if (!v) return std::nullopt;
  return static_cast<std::int64_t>(*v);
}

/// `s` as a finite double: all of `s` must be one strtod number with no
/// leading blank. Empty, partial ("2x"), out-of-range ("1e999") and
/// non-finite ("inf", "nan") values give nullopt.
inline std::optional<double> parse_double(std::string_view s) {
  if (s.empty() || std::isspace(static_cast<unsigned char>(s[0]))) {
    return std::nullopt;
  }
  const std::string text(s);
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size() || errno == ERANGE ||
      !std::isfinite(v)) {
    return std::nullopt;
  }
  return v;
}

}  // namespace nue
