// Client-side robustness policy for the event-driven runtime: how long a
// client waits for disseminated models, how it retries, and when the
// P'-adaptive trimmed mean is feasible versus when the client must fall
// back to its last feasible model.
//
// The paper's filter trims the ⌊β·P⌋ = B extremes per coordinate out of
// the P models a client receives from *all* PSs. Under crash/omission/
// loss faults a client only holds P' <= P candidates at its deadline. The
// degraded-set trim count is min(B, ⌊(P'−1)/2⌋) — never fewer than B
// while P' > 2B (⌊β·P'⌋ would silently under-trim below B as soon as
// P' < P) — derived in fl::client_trim_target/degraded_trim_count and
// applied by fl::apply_client_filter. The filter is feasible only when
// the candidate set could still out-vote the B Byzantine PSs: P' > 2B,
// the incomplete-set analogue of the paper's B <= P/2 condition.
#pragma once

#include <cstddef>
#include <string>

#include "runtime/fault.h"

namespace fedms::runtime {

struct RuntimeOptions {
  // Simulated local-training time per round (scaled by a client's
  // straggler factor). The protocol's compute leg of the virtual clock.
  double compute_seconds = 0.05;
  // PS aggregation deadline, measured from round start: uploads arriving
  // later are counted late and ignored (the PS has already aggregated).
  double upload_window_seconds = 0.25;
  // Client filter deadline, measured from the aggregation deadline.
  double broadcast_timeout_seconds = 0.25;
  // Bounded retry with exponential backoff: after the timeout, a client
  // short of quorum re-requests missing models up to `max_retries` times,
  // waiting retry_backoff_seconds * backoff_multiplier^i before recheck i.
  std::size_t max_retries = 2;
  double retry_backoff_seconds = 0.1;
  double backoff_multiplier = 2.0;
  // Candidate quorum below which a client falls back instead of filtering.
  // 0 = auto: 2B+1 for robust filters, 1 for the plain mean (the
  // undefended baseline has no Byzantine-majority requirement).
  std::size_t min_candidates = 0;
  // Keep the human-readable event trace in the result (the trace hash is
  // always computed).
  bool record_trace = false;
  // Re-derive each client's PS-selection stream per round from
  // (root seed, round, client id) instead of advancing one stream per
  // client across rounds. This makes a client's round-t draws a pure
  // function of (seed, t, k) — independent of membership history — which
  // is the stream-discipline contract churn scenarios need. Off by
  // default to preserve bit-for-bit parity with the synchronous loop.
  bool round_keyed_streams = false;

  FaultPlan faults;

  void validate() const;

  // Resolved quorum for a run with B Byzantine PSs and the given
  // client-side filter spec ("mean" | "trmean:<b>" | ...).
  std::size_t quorum(std::size_t byzantine,
                     const std::string& client_filter) const;
};

// Bounded exponential backoff schedule: attempt i (0-based) waits
// initial_seconds * multiplier^i, up to `max_attempts` attempts. Shared by
// the event-driven runtime's broadcast re-requests and the socket
// transport's connect retry, so both layers present the same retry policy.
struct Backoff {
  double initial_seconds = 0.1;
  double multiplier = 2.0;
  std::size_t max_attempts = 2;

  // Wait before re-check `attempt` (0-based). Precondition: attempt is
  // within the budget.
  double delay_seconds(std::size_t attempt) const;
  bool exhausted(std::size_t attempts_used) const {
    return attempts_used >= max_attempts;
  }
};

// True when trimming `trim` per side leaves at least one survivor.
bool trim_feasible(std::size_t received, std::size_t trim);

}  // namespace fedms::runtime
