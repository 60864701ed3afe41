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

void write_config_json(std::ostream& os, const fl::FedMsConfig& config) {
  const auto text = [](const std::string& value) {
    return '"' + json_escape(value) + '"';
  };
  os << "{\"clients\": " << config.clients
     << ", \"servers\": " << config.servers
     << ", \"byzantine\": " << config.byzantine
     << ", \"local_iterations\": " << config.local_iterations
     << ", \"rounds\": " << config.rounds
     << ", \"upload\": " << text(config.upload)
     << ", \"client_filter\": " << text(config.client_filter)
     << ", \"fedgreed_root_samples\": " << config.fedgreed_root_samples
     << ", \"server_aggregator\": " << text(config.server_aggregator)
     << ", \"attack\": " << text(config.attack)
     << ", \"byzantine_placement\": " << text(config.byzantine_placement)
     << ", \"byzantine_clients\": " << config.byzantine_clients
     << ", \"client_attack\": " << text(config.client_attack)
     << ", \"byzantine_client_placement\": "
     << text(config.byzantine_client_placement)
     << ", \"participation\": " << json_double(config.participation)
     << ", \"wire_encoding\": " << text(config.wire_encoding)
     << ", \"dp_clip_norm\": " << json_double(config.dp_clip_norm)
     << ", \"dp_noise_multiplier\": "
     << json_double(config.dp_noise_multiplier)
     << ", \"eval_every\": " << config.eval_every
     << ", \"eval_clients\": " << config.eval_clients
     << ", \"seed\": " << config.seed << "}";
}

void write_run_json(std::ostream& os, const fl::FedMsConfig& config,
                    const fl::RunResult& result) {
  os << "{\n  \"config\": ";
  write_config_json(os, config);
  os << ",\n  \"rounds\": [";
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
