// Invariant oracles for the fuzz harness.
//
// Each oracle checks one algorithm-level property that must hold on EVERY
// schedule, fault-laden or not — the harness's answer to "what does a
// correct run look like when we can't predict the exact output":
//
//   envelope      Theorem-1 robustness: whenever a client's filter applied
//                 a per-side trim >= the number of Byzantine candidates in
//                 its set, the filtered model lies coordinate-wise within
//                 the [min, max] envelope of the honest candidates (and is
//                 finite). The PR 4 degraded-quorum under-trim bug is
//                 exactly a violation of this oracle.
//   finite        no NaN/Inf ever enters a kept window: the installed
//                 model stays finite whenever the filter's trim budget
//                 covers the attack (checked as part of `envelope`).
//   trace         event-trace causality over the async runtime's recorded
//                 trace: virtual time and round indices are nondecreasing,
//                 every active participant trains exactly once per round
//                 and filters (or falls back) exactly once, never before
//                 training; an active non-participant never trains and
//                 still filters exactly once; clients a FaultPlan's churn
//                 marks absent owe exactly zero of each; and no link
//                 delivers more copies than were sent.
//   stage-order   telemetry spans group per round into the canonical
//                 local_training -> upload -> aggregation -> dissemination
//                 -> filter order (fault-free runs only — stragglers may
//                 legitimately interleave stages across clients).
//   wire          the frame codec round-trips every model under EVERY
//                 negotiated wire encoding: lossless f32 bit-for-bit
//                 (including non-finite payloads from NaN-poisoning
//                 attacks); lossy encodings decode bit-identically to the
//                 sender's own round-trip and stay within the encoding's
//                 error bound of the original; corrupted scale/index
//                 metadata and reference-CRC flips are rejected with
//                 one-line errors, never decoded.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "fl/aggregators.h"
#include "obs/obs.h"
#include "runtime/async_fedms.h"

namespace fedms::testing {

struct OracleViolation {
  std::string oracle;  // stable name ("envelope", "trace", ...)
  std::string detail;  // deterministic one-line description
};
using OracleResult = std::optional<OracleViolation>;

// The envelope + finiteness oracles over one filter decision.
// `is_byzantine[s]` is the run's PS placement; `attack_nonfinite` relaxes
// the finiteness check for non-trimming filters under NaN-emitting attacks
// (vanilla mean is *expected* to break there — that is the paper's point).
OracleResult check_filter_event(const runtime::FilterEvent& event,
                                const std::vector<bool>& is_byzantine,
                                bool attack_nonfinite);

// Trace causality over AsyncRunResult::trace (requires record_trace).
// `plan`, when non-null, makes the per-client expectations
// membership-aware: a client the plan's churn marks inactive at round r
// must train and filter exactly zero times there (it only leaves an
// "absent" marker in the trace). `participants`, when non-null, holds each
// round's fl::draw_participants mask: an active client outside round r's
// mask must train zero times and filter exactly once. Every other
// (client, round) pair owes exactly one of each, training first.
OracleResult check_trace_causality(
    const std::vector<std::string>& trace, std::size_t clients,
    std::uint64_t rounds, const runtime::FaultPlan* plan = nullptr,
    const std::vector<std::vector<bool>>* participants = nullptr);

// Canonical per-round stage order over an obs span snapshot (spans of
// `category` only; first-start per stage must follow
// obs::canonical_stages()).
OracleResult check_canonical_stage_order(
    const std::vector<obs::SpanRecord>& spans, const char* category);

// Wire round-trip over every negotiated encoding (f32, fp16, int8,
// topk:0.25, delta+{f32,fp16,int8}): frame-encode + decode each model as
// one per-stream chain and require (a) the receiver's reconstruction to be
// bitwise identical to the sender's own round-trip (memcmp, so NaN
// payloads compare too), (b) lossless f32 to be bit-for-bit with the
// original, (c) lossy decodes to stay within the encoding's error bound,
// and (d) corrupted scale/index metadata to be rejected with one-line
// errors.
OracleResult check_wire_roundtrip(
    const std::vector<fl::ModelVector>& models);

}  // namespace fedms::testing
