#include "runtime/telemetry.h"

#include <fstream>
#include <ostream>
#include <stdexcept>

#include "core/json_min.h"
#include "metrics/json.h"

namespace fedms::runtime {

using core::json_double;
using core::json_escape;
using metrics::json_optional;

void write_async_run_json(std::ostream& os, const fl::FedMsConfig& config,
                          const RuntimeOptions& options,
                          const AsyncRunResult& result) {
  os << "{\n  \"config\": ";
  metrics::write_config_json(os, config);
  os << ",\n  \"options\": {"
     << "\"compute_seconds\": " << json_double(options.compute_seconds)
     << ", \"upload_window_seconds\": "
     << json_double(options.upload_window_seconds)
     << ", \"broadcast_timeout_seconds\": "
     << json_double(options.broadcast_timeout_seconds)
     << ", \"max_retries\": " << options.max_retries
     << ", \"retry_backoff_seconds\": "
     << json_double(options.retry_backoff_seconds)
     << "},\n  \"fault_plan\": \""
     << json_escape(options.faults.to_string())
     << "\",\n  \"rounds\": [";
  for (std::size_t i = 0; i < result.rounds.size(); ++i) {
    const AsyncRoundRecord& r = result.rounds[i];
    os << (i ? ",\n    " : "\n    ") << "{\"round\": " << r.base.round
       << ", \"train_loss\": " << json_double(r.base.train_loss)
       << ", \"eval_accuracy\": " << json_optional(r.base.eval_accuracy)
       << ", \"eval_loss\": " << json_optional(r.base.eval_loss)
       << ", \"start_seconds\": " << json_double(r.start_seconds)
       << ", \"end_seconds\": " << json_double(r.end_seconds)
       << ", \"uplink_messages\": " << r.base.uplink_messages
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
       << ", \"mean_candidates\": " << json_double(r.mean_candidates)
       << "}";
  }
  os << "\n  ],\n  \"totals\": {"
     << "\"uplink_messages\": " << result.uplink_total.messages
     << ", \"uplink_bytes\": " << result.uplink_total.bytes
     << ", \"downlink_messages\": " << result.downlink_total.messages
     << ", \"downlink_bytes\": " << result.downlink_total.bytes
     << ", \"dropped_messages\": "
     << result.uplink_total.dropped_messages +
            result.downlink_total.dropped_messages
     << ", \"virtual_seconds\": " << json_double(result.virtual_seconds)
     << ", \"trace_hash\": " << result.trace_hash << "}\n}\n";
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
