#include "fl/config.h"

#include <sstream>

#include "core/contracts.h"
#include "fl/wire_encoding.h"

namespace fedms::fl {

void FedMsConfig::validate() const {
  const std::string error = check();
  if (!error.empty()) core::contract_failure("Precondition", error.c_str(),
                                             __FILE__, __LINE__);
}

std::string FedMsConfig::check() const {
  std::ostringstream os;
  if (clients == 0) return "--clients must be >= 1";
  if (servers == 0) return "--servers must be >= 1";
  // The paper's feasibility condition: Byzantine PSs are a minority.
  if (2 * byzantine > servers) {
    os << "Byzantine servers must be a minority (2B <= P), got B="
       << byzantine << " with P=" << servers;
    return os.str();
  }
  if (local_iterations == 0) return "--local-iterations must be >= 1";
  if (fedgreed_root_samples == 0)
    return "--fedgreed-root must be >= 1 (the fedgreed filter scores "
           "candidates on a non-empty root batch)";
  if (rounds == 0) return "--rounds must be >= 1";
  if (eval_every == 0) return "--eval-every must be >= 1";
  if (byzantine_placement != "first" && byzantine_placement != "random")
    return "--byzantine-placement must be first or random, got \"" +
           byzantine_placement + "\"";
  if (byzantine_clients > clients) {
    os << "--byzantine-clients (" << byzantine_clients
       << ") exceeds --clients (" << clients << ")";
    return os.str();
  }
  if (byzantine_client_placement != "first" &&
      byzantine_client_placement != "random")
    return "--byzantine-client-placement must be first or random, got \"" +
           byzantine_client_placement + "\"";
  if (!(participation > 0.0 && participation <= 1.0))
    return "--participation must be in (0, 1]";
  if (const std::string error = check_wire_encoding(wire_encoding);
      !error.empty())
    return "--wire-encoding: " + error;
  if (dp_clip_norm < 0.0) return "--dp-clip must be >= 0";
  if (dp_noise_multiplier < 0.0) return "--dp-noise must be >= 0";
  // Noise without clipping has unbounded sensitivity — reject it.
  if (dp_noise_multiplier > 0.0 && dp_clip_norm == 0.0)
    return "--dp-noise requires --dp-clip > 0 (noise without clipping has "
           "unbounded sensitivity)";
  return "";
}

std::string FedMsConfig::to_string() const {
  std::ostringstream os;
  os << "K=" << clients << " P=" << servers << " B=" << byzantine
     << " (eps=" << byzantine_fraction() << ")"
     << " E=" << local_iterations << " T=" << rounds
     << " upload=" << upload << " filter=" << client_filter
     << " attack=" << attack << " seed=" << seed;
  if (byzantine_clients > 0)
    os << " byz_clients=" << byzantine_clients << " (" << client_attack
       << ") ps_agg=" << server_aggregator;
  if (participation < 1.0) os << " participation=" << participation;
  if (wire_encoding != "f32") os << " wire=" << wire_encoding;
  if (client_filter.rfind("fedgreed:", 0) == 0)
    os << " fedgreed_root=" << fedgreed_root_samples;
  return os.str();
}

}  // namespace fedms::fl
