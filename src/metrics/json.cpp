#include "metrics/json.h"

#include <fstream>
#include <ostream>
#include <stdexcept>

#include "core/json_min.h"

namespace fedms::metrics {

using core::json_double;
using core::json_escape;

std::string json_optional(const std::optional<double>& value) {
  return value ? json_double(*value) : "null";
}

void write_run_json(std::ostream& os, const fl::FedMsConfig& config,
                    const fl::RunResult& result) {
  os << "{\n  \"config\": {"
     << "\"clients\": " << config.clients
     << ", \"servers\": " << config.servers
     << ", \"byzantine\": " << config.byzantine
     << ", \"local_iterations\": " << config.local_iterations
     << ", \"rounds\": " << config.rounds
     << ", \"upload\": \"" << json_escape(config.upload) << '"'
     << ", \"client_filter\": \"" << json_escape(config.client_filter) << '"'
     << ", \"server_aggregator\": \""
     << json_escape(config.server_aggregator) << '"'
     << ", \"attack\": \"" << json_escape(config.attack) << '"'
     << ", \"byzantine_clients\": " << config.byzantine_clients
     << ", \"client_attack\": \"" << json_escape(config.client_attack) << '"'
     << ", \"wire_encoding\": \"" << json_escape(config.wire_encoding)
     << '"' << ", \"participation\": " << json_double(config.participation)
     << ", \"seed\": " << config.seed << "},\n  \"rounds\": [";
  for (std::size_t i = 0; i < result.rounds.size(); ++i) {
    const auto& r = result.rounds[i];
    os << (i ? ",\n    " : "\n    ") << "{\"round\": " << r.round
       << ", \"train_loss\": " << json_double(r.train_loss)
       << ", \"eval_accuracy\": " << json_optional(r.eval_accuracy)
       << ", \"eval_loss\": " << json_optional(r.eval_loss)
       << ", \"uplink_bytes\": " << r.uplink_bytes
       << ", \"downlink_bytes\": " << r.downlink_bytes
       << ", \"upload_seconds\": " << json_double(r.upload_seconds)
       << ", \"broadcast_seconds\": " << json_double(r.broadcast_seconds)
       << "}";
  }
  os << "\n  ],\n  \"traffic\": {"
     << "\"uplink_messages\": " << result.uplink_total.messages
     << ", \"uplink_bytes\": " << result.uplink_total.bytes
     << ", \"downlink_messages\": " << result.downlink_total.messages
     << ", \"downlink_bytes\": " << result.downlink_total.bytes
     << ", \"dropped_messages\": "
     << result.uplink_total.dropped_messages +
            result.downlink_total.dropped_messages
     << ", \"simulated_comm_seconds\": "
     << json_double(result.simulated_comm_seconds) << "}\n}\n";
}

void save_run_json(const std::string& path, const fl::FedMsConfig& config,
                   const fl::RunResult& result) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("fedms: cannot write " + path);
  write_run_json(os, config, result);
}

}  // namespace fedms::metrics
