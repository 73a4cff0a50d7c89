// Shared --trace-out / --metrics-out wiring for the CLI tools and bench
// harnesses: registering the flags enables telemetry iff either output is
// requested, and finish() writes the Chrome trace and/or run report.
#pragma once

#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/export.hpp"
#include "telemetry/telemetry.hpp"
#include "util/flags.hpp"

namespace nue::telemetry {

class Cli {
 public:
  /// Register both flags; call before Flags::finish().
  void register_flags(Flags& flags) {
    trace_out_ = flags.get_string(
        "trace-out", "",
        "write a Chrome trace-event JSON (open in Perfetto) to this file");
    metrics_out_ = flags.get_string(
        "metrics-out", "",
        "write the telemetry run-report JSON (counters + histograms + span "
        "summary) to this file");
    if (wanted()) set_enabled(true);
  }

  bool wanted() const {
    return !trace_out_.empty() || !metrics_out_.empty();
  }

  /// Write the requested outputs. `config` lands in the run report's
  /// config section; `extra` sections are added to it as top-level members.
  void finish(const std::string& tool,
              const std::vector<std::pair<std::string, std::string>>& config,
              const std::vector<ExtraSection>& extra = {}) const {
    if (!trace_out_.empty()) {
      std::ofstream os(trace_out_);
      if (!os) {
        std::cerr << "cannot write --trace-out " << trace_out_ << "\n";
      } else {
        write_chrome_trace(os, tool);
      }
    }
    if (!metrics_out_.empty()) {
      std::ofstream os(metrics_out_);
      if (!os) {
        std::cerr << "cannot write --metrics-out " << metrics_out_ << "\n";
      } else {
        write_run_report(os, tool, config, extra);
      }
    }
  }

 private:
  std::string trace_out_;
  std::string metrics_out_;
};

}  // namespace nue::telemetry
