#include "runtime/telemetry.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <stdexcept>

#include "metrics/json.h"

namespace fedms::runtime {

namespace {

void write_number(std::ostream& os, double value) {
  if (!std::isfinite(value)) {
    os << "null";
    return;
  }
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.10g", value);
  os << buffer;
}

void write_optional(std::ostream& os, const std::optional<double>& value) {
  if (value)
    write_number(os, *value);
  else
    os << "null";
}

}  // namespace

void write_async_run_json(std::ostream& os, const fl::FedMsConfig& config,
                          const RuntimeOptions& options,
                          const AsyncRunResult& result) {
  os << "{\n  \"config\": {"
     << "\"clients\": " << config.clients
     << ", \"servers\": " << config.servers
     << ", \"byzantine\": " << config.byzantine
     << ", \"rounds\": " << config.rounds
     << ", \"upload\": \"" << metrics::json_escape(config.upload) << '"'
     << ", \"client_filter\": \""
     << metrics::json_escape(config.client_filter) << '"'
     << ", \"attack\": \"" << metrics::json_escape(config.attack) << '"'
     << ", \"wire_encoding\": \""
     << metrics::json_escape(config.wire_encoding) << '"'
     << ", \"seed\": " << config.seed << "},\n  \"options\": {"
     << "\"compute_seconds\": ";
  write_number(os, options.compute_seconds);
  os << ", \"upload_window_seconds\": ";
  write_number(os, options.upload_window_seconds);
  os << ", \"broadcast_timeout_seconds\": ";
  write_number(os, options.broadcast_timeout_seconds);
  os << ", \"max_retries\": " << options.max_retries
     << ", \"retry_backoff_seconds\": ";
  write_number(os, options.retry_backoff_seconds);
  os << "},\n  \"fault_plan\": \""
     << metrics::json_escape(options.faults.to_string())
     << "\",\n  \"rounds\": [";
  for (std::size_t i = 0; i < result.rounds.size(); ++i) {
    const AsyncRoundRecord& r = result.rounds[i];
    os << (i ? ",\n    " : "\n    ") << "{\"round\": " << r.base.round
       << ", \"train_loss\": ";
    write_number(os, r.base.train_loss);
    os << ", \"eval_accuracy\": ";
    write_optional(os, r.base.eval_accuracy);
    os << ", \"eval_loss\": ";
    write_optional(os, r.base.eval_loss);
    os << ", \"start_seconds\": ";
    write_number(os, r.start_seconds);
    os << ", \"end_seconds\": ";
    write_number(os, r.end_seconds);
    os << ", \"uplink_messages\": " << r.base.uplink_messages
       << ", \"downlink_messages\": " << r.base.downlink_messages
       << ", \"uplink_bytes\": " << r.base.uplink_bytes
       << ", \"downlink_bytes\": " << r.base.downlink_bytes
       << ", \"dropped\": " << r.messages_dropped
       << ", \"late\": " << r.messages_late
       << ", \"duplicated\": " << r.messages_duplicated
       << ", \"omitted\": " << r.omissions
       << ", \"retries\": " << r.retry_requests
       << ", \"fallbacks\": " << r.fallbacks
       << ", \"crashed_servers\": " << r.crashed_servers
       << ", \"min_candidates\": " << r.min_candidates
       << ", \"max_candidates\": " << r.max_candidates
       << ", \"mean_candidates\": ";
    write_number(os, r.mean_candidates);
    os << "}";
  }
  os << "\n  ],\n  \"totals\": {"
     << "\"uplink_messages\": " << result.uplink_total.messages
     << ", \"uplink_bytes\": " << result.uplink_total.bytes
     << ", \"downlink_messages\": " << result.downlink_total.messages
     << ", \"downlink_bytes\": " << result.downlink_total.bytes
     << ", \"dropped_messages\": "
     << result.uplink_total.dropped_messages +
            result.downlink_total.dropped_messages
     << ", \"virtual_seconds\": ";
  write_number(os, result.virtual_seconds);
  os << ", \"trace_hash\": " << result.trace_hash << "}\n}\n";
}

void save_async_run_json(const std::string& path,
                         const fl::FedMsConfig& config,
                         const RuntimeOptions& options,
                         const AsyncRunResult& result) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("fedms: cannot write " + path);
  write_async_run_json(os, config, options, result);
}

}  // namespace fedms::runtime
