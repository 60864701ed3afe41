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

// The "config" object of both run-JSON writers (this one and
// runtime::write_async_run_json): every FedMsConfig field that can change
// a run's results. worker_threads is left out; results do not depend on
// it by contract.
void write_config_json(std::ostream& os, const fl::FedMsConfig& config);

// Serializes a run as {"config": ..., "rounds": [...], "traffic": ...}.
void write_run_json(std::ostream& os, const fl::FedMsConfig& config,
                    const fl::RunResult& result);
void save_run_json(const std::string& path, const fl::FedMsConfig& config,
                   const fl::RunResult& result);

}  // namespace fedms::metrics
