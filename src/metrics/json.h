// Minimal JSON export of run telemetry, for consumption by external
// plotting/analysis tooling without a CSV parsing step.
//
// Numbers go through core::json_double (shortest round-trip text, the same
// under every fenv rounding mode, null when not finite) and strings
// through core::json_escape; core::Json parses the result.
#pragma once

#include <iosfwd>
#include <optional>
#include <string>

#include "fl/fedms.h"

namespace fedms::metrics {

// core::json_double of the value, or null when it is unset.
std::string json_optional(const std::optional<double>& value);

// Serializes a run as {"config": ..., "rounds": [...], "traffic": ...}.
void write_run_json(std::ostream& os, const fl::FedMsConfig& config,
                    const fl::RunResult& result);
void save_run_json(const std::string& path, const fl::FedMsConfig& config,
                   const fl::RunResult& result);

}  // namespace fedms::metrics
