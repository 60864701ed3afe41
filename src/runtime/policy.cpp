#include "runtime/policy.h"

#include <cmath>

#include "core/contracts.h"
#include "fl/aggregators.h"

namespace fedms::runtime {

void RuntimeOptions::validate() const {
  FEDMS_EXPECTS(compute_seconds >= 0.0);
  FEDMS_EXPECTS(upload_window_seconds > 0.0);
  FEDMS_EXPECTS(broadcast_timeout_seconds > 0.0);
  FEDMS_EXPECTS(retry_backoff_seconds > 0.0);
  FEDMS_EXPECTS(backoff_multiplier >= 1.0);
  faults.validate();
}

std::size_t RuntimeOptions::quorum(std::size_t byzantine,
                                   const std::string& client_filter) const {
  if (min_candidates > 0) return min_candidates;
  if (client_filter == "mean") return 1;
  return 2 * byzantine + 1;
}

double Backoff::delay_seconds(std::size_t attempt) const {
  FEDMS_EXPECTS(attempt < max_attempts);
  FEDMS_EXPECTS(initial_seconds > 0.0 && multiplier >= 1.0);
  return initial_seconds * std::pow(multiplier, double(attempt));
}

bool trim_feasible(std::size_t received, std::size_t trim) {
  return received > 2 * trim;
}

}  // namespace fedms::runtime
