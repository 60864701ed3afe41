#include "metrics/json.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <stdexcept>

namespace fedms::metrics {

namespace {

// JSON has no NaN/Infinity; emit null for non-finite values.
void write_number(std::ostream& os, double value) {
  if (!std::isfinite(value)) {
    os << "null";
    return;
  }
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.10g", value);
  os << buffer;
}

}  // namespace

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 2);
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof buffer, "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
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
     << '"' << ", \"participation\": ";
  write_number(os, config.participation);
  os << ", \"seed\": " << config.seed << "},\n  \"rounds\": [";
  for (std::size_t i = 0; i < result.rounds.size(); ++i) {
    const auto& r = result.rounds[i];
    os << (i ? ",\n    " : "\n    ") << "{\"round\": " << r.round
       << ", \"train_loss\": ";
    write_number(os, r.train_loss);
    os << ", \"eval_accuracy\": ";
    if (r.eval_accuracy)
      write_number(os, *r.eval_accuracy);
    else
      os << "null";
    os << ", \"eval_loss\": ";
    if (r.eval_loss)
      write_number(os, *r.eval_loss);
    else
      os << "null";
    os << ", \"uplink_bytes\": " << r.uplink_bytes
       << ", \"downlink_bytes\": " << r.downlink_bytes
       << ", \"upload_seconds\": ";
    write_number(os, r.upload_seconds);
    os << ", \"broadcast_seconds\": ";
    write_number(os, r.broadcast_seconds);
    os << "}";
  }
  os << "\n  ],\n  \"traffic\": {"
     << "\"uplink_messages\": " << result.uplink_total.messages
     << ", \"uplink_bytes\": " << result.uplink_total.bytes
     << ", \"downlink_messages\": " << result.downlink_total.messages
     << ", \"downlink_bytes\": " << result.downlink_total.bytes
     << ", \"dropped_messages\": "
     << result.uplink_total.dropped_messages +
            result.downlink_total.dropped_messages
     << ", \"simulated_comm_seconds\": ";
  write_number(os, result.simulated_comm_seconds);
  os << "}\n}\n";
}

void save_run_json(const std::string& path, const fl::FedMsConfig& config,
                   const fl::RunResult& result) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("fedms: cannot write " + path);
  write_run_json(os, config, result);
}

}  // namespace fedms::metrics
