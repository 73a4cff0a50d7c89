// The tokenizer and strict number parser behind every spec string the
// repo reads from outside: generator specs (src/topology/generate.hpp),
// sim scenario directives and nue_managerd's --load entries.
#pragma once

#include <cstdint>
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

}  // namespace nue
