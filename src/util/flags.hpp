// Minimal command-line flag parsing for the experiment binaries.
//
// Supported syntax: --name value, --name=value, and boolean --name.
// Unknown flags abort with a usage message so typos don't silently run the
// default configuration, and so do malformed numeric values: an integer
// flag takes what parse_int accepts, a double flag what parse_double
// accepts (src/util/parse.hpp), so "2x", "x", "" and out-of-range values
// make finish() fail instead of running with a prefix or a 0.
#pragma once

#include <cstdint>
#include <iostream>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "util/parse.hpp"

namespace nue {

class Flags {
 public:
  Flags(int argc, char** argv) : prog_(argv[0]) {
    for (int i = 1; i < argc; ++i) args_.emplace_back(argv[i]);
  }

  /// Most worker threads --threads accepts. A larger or negative request
  /// is a bad value, not a count wrapped into 32 bits.
  static constexpr std::int64_t kMaxThreads = 1024;

  /// Register + read an integer flag. A malformed value, or one outside
  /// [min, max], reads as `def` and makes finish() fail.
  std::int64_t get_int(
      const std::string& name, std::int64_t def, const std::string& help,
      std::int64_t min = std::numeric_limits<std::int64_t>::min(),
      std::int64_t max = std::numeric_limits<std::int64_t>::max()) {
    describe(name, std::to_string(def), help);
    const auto v = find(name);
    if (!v) return def;
    const auto parsed = parse_int(*v);
    if (!parsed) {
      bad_value(name, *v, "an integer");
    } else if (*parsed < min || *parsed > max) {
      bad_value(name, *v,
                "an integer in [" + std::to_string(min) + ", " +
                    std::to_string(max) + "]");
    } else {
      return *parsed;
    }
    return def;
  }

  /// Register + read a floating-point flag; a malformed or non-finite
  /// value reads as `def` and makes finish() fail.
  double get_double(const std::string& name, double def,
                    const std::string& help) {
    describe(name, std::to_string(def), help);
    const auto v = find(name);
    if (!v) return def;
    const auto parsed = parse_double(*v);
    if (parsed) return *parsed;
    bad_value(name, *v, "a finite number");
    return def;
  }

  std::string get_string(const std::string& name, const std::string& def,
                         const std::string& help) {
    describe(name, def, help);
    const auto v = find(name);
    return v ? *v : def;
  }

  /// Register + read the standard --threads flag shared by every binary:
  /// 0 = hardware concurrency, 1 = fully serial legacy path. The caller
  /// passes the result to set_default_threads() (util/thread_pool.hpp).
  std::uint32_t get_threads() {
    return static_cast<std::uint32_t>(get_int(
        "threads", 0, "worker threads (0 = hardware concurrency, 1 = serial)",
        0, kMaxThreads));
  }

  bool get_bool(const std::string& name, bool def, const std::string& help) {
    describe(name, def ? "true" : "false", help);
    const auto v = find(name);
    if (!v) return def;
    return *v != "false" && *v != "0";
  }

  /// Call after all get_* registrations: validates args, handles --help.
  /// Returns false if the program should exit (help printed / bad flag).
  bool finish() {
    bool ok = errors_.empty();
    for (const auto& e : errors_) std::cerr << e << "\n";
    for (std::size_t i = 0; i < args_.size(); ++i) {
      std::string a = args_[i];
      if (a == "--help" || a == "-h") {
        usage();
        return false;
      }
      if (a.rfind("--", 0) != 0) {
        std::cerr << "unexpected argument: " << a << "\n";
        ok = false;
        continue;
      }
      std::string name = a.substr(2);
      auto eq = name.find('=');
      if (eq != std::string::npos) name = name.substr(0, eq);
      if (!known_.count(name)) {
        std::cerr << "unknown flag: --" << name << "\n";
        ok = false;
      }
      // Skip the value of "--name value" style flags.
      if (eq == std::string::npos && i + 1 < args_.size() &&
          args_[i + 1].rfind("--", 0) != 0) {
        ++i;
      }
    }
    if (!ok) usage();
    return ok;
  }

 private:
  void describe(const std::string& name, const std::string& def,
                const std::string& help) {
    if (!known_.count(name)) {
      known_[name] = "  --" + name + " (default " + def + "): " + help;
    }
  }

  void bad_value(const std::string& name, const std::string& value,
                 const std::string& want) {
    errors_.push_back("bad value for --" + name + ": '" + value +
                      "' (want " + want + ")");
  }

  /// Find the raw value for --name in the argument list.
  const std::string* find(const std::string& name) {
    for (std::size_t i = 0; i < args_.size(); ++i) {
      const std::string& a = args_[i];
      if (a == "--" + name) {
        if (i + 1 < args_.size() && args_[i + 1].rfind("--", 0) != 0) {
          return &args_[i + 1];
        }
        static const std::string kTrue = "true";
        return &kTrue;  // boolean flag without a value
      }
      const std::string prefix = "--" + name + "=";
      if (a.rfind(prefix, 0) == 0) {
        values_[name] = a.substr(prefix.size());
        return &values_[name];
      }
    }
    return nullptr;
  }

  void usage() const {
    std::cerr << "usage: " << prog_ << " [flags]\n";
    for (const auto& [_, desc] : known_) std::cerr << desc << "\n";
  }

  std::string prog_;
  std::vector<std::string> args_;
  std::map<std::string, std::string> known_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> errors_;
};

}  // namespace nue
