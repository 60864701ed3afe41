// Per-node Fed-MS protocol engine: one client or one parameter server
// driven over a Transport, producing bit-identical results to the
// round-synchronous fl::FedMsRun for the same seed and config. A client
// node schedules the shared fl::ClientStep (training, Byzantine forgery,
// DP, upload encoding, Def()); a PS node schedules fl::ParameterServer's
// accept / aggregate / broadcast. What is left here is round-sync framing
// and the clients' announced broadcast encodings.
//
// Determinism contract. Every stochastic decision in FedMsRun derives
// from the root seed via named core::SeedSequence streams, and every
// node's streams are independent ("ps-choice"/k, "attack"/i,
// "client-sampler"/k, ...). A node process therefore re-derives exactly
// its own streams and nothing else. The remaining ordering hazards are
// pinned explicitly:
//   * PS aggregation input order — ascending client index, pinned by
//     fl::ParameterServer::aggregate in every engine.
//   * Client filter candidate order — ascending server index, matching
//     the simulator's broadcast send order.
//   * Evaluation — NnLearner::evaluate() is deterministic (no RNG), so
//     per-process evaluation equals the simulator's.
//
// Round barrier. The round-synchronous simulator has a global barrier
// between stages; real transports do not. The engine reconstructs it
// with kRoundSync control frames: a client sends its uploads, then a
// sync to ALL P servers; a PS aggregates once it holds K syncs, then
// broadcasts and sends a sync to all K clients; a client filters once it
// holds P syncs. Induction over rounds shows no message of round t+1 can
// reach a node still working on round t. Sync frames are control
// traffic — excluded from the data-byte accounting that must equal the
// simulated wire_size totals.
//
// Fault path. A frame corrupted in transit is rejected by CRC at the
// transport layer and surfaces here as a missing upload (thinner PS
// mean) or missing broadcast candidate (thinner Def() input —
// aggregate_or_mean degrades toward the mean, and a client with zero
// candidates keeps its local model, exactly the simulator's loss
// semantics).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fl/config.h"
#include "fl/experiment.h"
#include "transport/transport.h"

namespace fedms::transport {

struct NodeReport {
  net::NodeId self;
  std::uint64_t rounds = 0;
  // Last evaluation at the simulator's cadence. Evaluating clients only
  // (the first fed.eval_clients, all when 0); the rest and servers
  // report 0/0.
  double final_accuracy = 0.0;
  double final_eval_loss = 0.0;
  // CRC32C of the node's final model floats (client: local model after
  // filtering; server: honest aggregate) — the cheap cross-process
  // bit-for-bit equality witness.
  std::uint32_t model_crc = 0;
  EndpointStats stats;
};

// Plain-text report (the launcher's cross-process result channel; the
// repo deliberately has no JSON layer). Doubles are written as C99
// hexfloats so parsing is exact.
std::string to_report_text(const NodeReport& report);
NodeReport parse_report_text(const std::string& text);

// Runs client k's side of every round against `transport` (connected to
// all P servers). `data` must be the shared workload for (workload, fed).
NodeReport run_client_node(Transport& transport, const fl::Workload& data,
                           const fl::WorkloadConfig& workload,
                           const fl::FedMsConfig& fed, std::size_t k,
                           double timeout_seconds);

// Runs parameter server p's side (connected to all K clients). Needs no
// dataset: w₀ comes from fl::initial_model.
NodeReport run_server_node(Transport& transport,
                           const fl::WorkloadConfig& workload,
                           const fl::FedMsConfig& fed, std::size_t p,
                           double timeout_seconds);

// Aggregate view of a full run (in-process threads or parsed from a
// multi-process launcher's report files).
struct TransportRunSummary {
  std::vector<NodeReport> clients;  // index k, ascending
  std::vector<NodeReport> servers;  // index p, ascending
  // The run's fed.eval_clients: only the first eval_clients clients
  // evaluate (all when 0).
  std::size_t eval_clients = 0;

  // Mean over the evaluated clients in ascending index order — the same
  // clients and summation order as fl::evaluate_round.
  double mean_accuracy() const;
  double mean_eval_loss() const;

  // Data-frame totals by direction (control traffic excluded): uplink =
  // client-sent, downlink = server-sent. Must equal the simulator's
  // TrafficStats for the same config.
  struct DataTotals {
    std::uint64_t uplink_messages = 0;
    std::uint64_t uplink_bytes = 0;
    std::uint64_t downlink_messages = 0;
    std::uint64_t downlink_bytes = 0;
  };
  DataTotals data_totals() const;

  std::uint64_t corrupt_frames() const;
};

// All K + P nodes on threads over one in-memory hub. The reference
// transport run every other backend must match bit-for-bit.
TransportRunSummary run_transport_experiment(
    const fl::WorkloadConfig& workload, const fl::FedMsConfig& fed,
    InMemoryHub& hub, double timeout_seconds = 30.0);

}  // namespace fedms::transport
