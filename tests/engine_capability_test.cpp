// Engine capability matrix: every feature row × {async with an empty
// fault plan, transport over the in-memory hub} either reproduces the
// round-synchronous engine bit for bit — per-client final-model CRCs,
// train loss, final evaluation, uplink/downlink bytes — or fails with that
// engine's documented rejection. The table below is the list of gaps (one
// left: stateful wire encodings in async); a feature that is silently
// unavailable in one engine cannot hide here.
//
// The multi-process run (clients on SocketTransport, every PS an
// event-loop server) is left to the `fedms_node --verify` smokes
// (tool_fedms_node_launch_smoke, tool_fedms_node_eventloop_smoke and
// scripts/check.sh's per-encoding and TCP runs), which need real sockets.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "fl/experiment.h"
#include "runtime/async_fedms.h"
#include "transport/frame.h"
#include "transport/node_runner.h"
#include "transport/transport.h"

namespace fedms {
namespace {

fl::WorkloadConfig small_workload() {
  fl::WorkloadConfig workload;
  workload.samples = 400;
  workload.model = "mlp";
  workload.mlp_hidden = {16};
  return workload;
}

fl::FedMsConfig small_fed() {
  fl::FedMsConfig fed;
  fed.clients = 4;
  fed.servers = 3;
  fed.byzantine = 1;
  fed.rounds = 3;
  fed.local_iterations = 2;
  fed.client_filter = "trmean:0.34";
  fed.attack = "noise";
  fed.eval_every = 1;
  fed.seed = 11;
  return fed;
}

// How an engine handles a feature row: runs it (and must match the sync
// engine), or rejects it with a message containing `rejection`.
struct Cell {
  bool supported = true;
  const char* rejection = "";
};
constexpr Cell kRuns{};
Cell gap(const char* rejection) { return Cell{false, rejection}; }

struct Row {
  const char* name;
  std::function<void(fl::FedMsConfig&)> apply;
  Cell async;      // AsyncFedMsRun with an empty fault plan
  Cell transport;  // run_transport_experiment over an InMemoryHub
};

// The async engine rejects at construction with a contract abort; the
// CLI turns each into a one-line error first (cli_negative_test.py).
const std::vector<Row>& rows() {
  static const std::vector<Row> table = {
      {"baseline", [](fl::FedMsConfig&) {}, kRuns, kRuns},
      {"byzantine_clients",
       [](fl::FedMsConfig& fed) {
         fed.byzantine_clients = 1;
         fed.byzantine_client_placement = "random";
         fed.client_attack = "signflip";
       },
       kRuns, kRuns},
      {"dp_clip_norm",
       [](fl::FedMsConfig& fed) {
         fed.dp_clip_norm = 1.0;
         fed.dp_noise_multiplier = 0.01;
       },
       kRuns, kRuns},
      {"fp16", [](fl::FedMsConfig& fed) { fed.wire_encoding = "fp16"; },
       kRuns, kRuns},
      {"int8", [](fl::FedMsConfig& fed) { fed.wire_encoding = "int8"; },
       kRuns, kRuns},
      {"delta_int8",
       [](fl::FedMsConfig& fed) { fed.wire_encoding = "delta+int8"; },
       gap("Precondition"), kRuns},
      {"participation",
       [](fl::FedMsConfig& fed) { fed.participation = 0.5; }, kRuns, kRuns},
      // One shared participation draw under the other per-client features:
      // skipped clients neither forge, add noise nor encode an upload.
      {"participation_byzantine_clients_dp",
       [](fl::FedMsConfig& fed) {
         fed.participation = 0.5;
         fed.byzantine_clients = 1;
         fed.client_attack = "signflip";
         fed.dp_clip_norm = 1.0;
         fed.dp_noise_multiplier = 0.01;
       },
       kRuns, kRuns},
      {"participation_int8",
       [](fl::FedMsConfig& fed) {
         fed.participation = 0.75;
         fed.wire_encoding = "int8";
       },
       kRuns, kRuns},
      {"eval_clients", [](fl::FedMsConfig& fed) { fed.eval_clients = 2; },
       kRuns, kRuns},
      // PS-side features: the robust PS rules, a silent PS, an attack that
      // reads the PS's own history, and random Byzantine placement.
      {"server_median",
       [](fl::FedMsConfig& fed) { fed.server_aggregator = "median"; }, kRuns,
       kRuns},
      {"server_trmean_byzantine_client",
       [](fl::FedMsConfig& fed) {
         fed.server_aggregator = "trmean:0.25";
         fed.byzantine_clients = 1;
         fed.client_attack = "signflip";
       },
       kRuns, kRuns},
      // P = 4: with the fixture's P = 3 the silent PS leaves P' = 2 <= 2B,
      // where async falls back to the last feasible model and sync filters.
      {"crash_attack",
       [](fl::FedMsConfig& fed) {
         fed.attack = "crash";
         fed.servers = 4;
         fed.client_filter = "trmean:0.25";
       },
       kRuns, kRuns},
      {"safeguard", [](fl::FedMsConfig& fed) { fed.attack = "safeguard"; },
       kRuns, kRuns},
      {"random_placement_inconsistent",
       [](fl::FedMsConfig& fed) {
         fed.byzantine_placement = "random";
         fed.attack = "inconsistent";
       },
       kRuns, kRuns},
  };
  return table;
}

fl::FedMsConfig row_config(const Row& row) {
  fl::FedMsConfig fed = small_fed();
  row.apply(fed);
  return fed;
}

using RoundCrcs = std::vector<std::vector<std::uint32_t>>;

template <typename Run>
void capture_crcs(Run& run, RoundCrcs& crcs) {
  run.set_round_callback(
      [&crcs](std::uint64_t, const std::vector<fl::LearnerPtr>& learners) {
        crcs.emplace_back();
        for (const auto& learner : learners)
          crcs.back().push_back(
              transport::crc32c_floats(learner->parameters()));
      });
}

struct SyncBaseline {
  fl::RunResult result;
  RoundCrcs crcs;  // per round, per client
};

SyncBaseline run_sync(const fl::FedMsConfig& fed) {
  SyncBaseline baseline;
  fl::Experiment experiment = fl::make_experiment(small_workload(), fed);
  capture_crcs(*experiment.run, baseline.crcs);
  baseline.result = experiment.run->run();
  return baseline;
}

class EngineCapability : public ::testing::TestWithParam<std::size_t> {
 protected:
  const Row& row() const { return rows()[GetParam()]; }
};

TEST_P(EngineCapability, Async) {
  const fl::FedMsConfig fed = row_config(row());
  const fl::WorkloadConfig workload = small_workload();
  const fl::Workload data = fl::make_workload(workload, fed);
  if (!row().async.supported) {
    EXPECT_DEATH(runtime::AsyncFedMsRun(fed, runtime::RuntimeOptions{},
                                        fl::make_nn_learners(data, workload,
                                                             fed)),
                 row().async.rejection);
    return;
  }
  const SyncBaseline sync = run_sync(fed);
  runtime::AsyncFedMsRun run(fed, runtime::RuntimeOptions{},
                             fl::make_nn_learners(data, workload, fed));
  RoundCrcs crcs;
  capture_crcs(run, crcs);
  const runtime::AsyncRunResult result = run.run();

  EXPECT_EQ(crcs, sync.crcs);
  ASSERT_EQ(result.rounds.size(), sync.result.rounds.size());
  for (std::size_t r = 0; r < result.rounds.size(); ++r) {
    const fl::RoundRecord& async_round = result.rounds[r].base;
    const fl::RoundRecord& sync_round = sync.result.rounds[r];
    EXPECT_EQ(async_round.train_loss, sync_round.train_loss);
    EXPECT_EQ(async_round.eval_accuracy, sync_round.eval_accuracy);
    EXPECT_EQ(async_round.eval_loss, sync_round.eval_loss);
    EXPECT_EQ(async_round.uplink_bytes, sync_round.uplink_bytes);
    EXPECT_EQ(async_round.downlink_bytes, sync_round.downlink_bytes);
  }
  EXPECT_EQ(result.uplink_total.bytes, sync.result.uplink_total.bytes);
  EXPECT_EQ(result.downlink_total.bytes, sync.result.downlink_total.bytes);
}

TEST_P(EngineCapability, Transport) {
  const fl::FedMsConfig fed = row_config(row());
  transport::InMemoryHub hub;
  if (!row().transport.supported) {
    try {
      (void)transport::run_transport_experiment(small_workload(), fed, hub);
      FAIL() << "expected the transport engine to reject " << row().name;
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what()).find(row().transport.rejection),
                std::string::npos)
          << error.what();
    }
    return;
  }
  const SyncBaseline sync = run_sync(fed);
  const transport::TransportRunSummary summary =
      transport::run_transport_experiment(small_workload(), fed, hub);

  ASSERT_EQ(summary.clients.size(), sync.crcs.back().size());
  for (std::size_t k = 0; k < summary.clients.size(); ++k)
    EXPECT_EQ(summary.clients[k].model_crc, sync.crcs.back()[k])
        << "client " << k;
  EXPECT_EQ(summary.mean_accuracy(),
            *sync.result.final_eval().eval_accuracy);
  const auto totals = summary.data_totals();
  EXPECT_EQ(totals.uplink_messages, sync.result.uplink_total.messages);
  EXPECT_EQ(totals.uplink_bytes, sync.result.uplink_total.bytes);
  EXPECT_EQ(totals.downlink_messages, sync.result.downlink_total.messages);
  EXPECT_EQ(totals.downlink_bytes, sync.result.downlink_total.bytes);
}

INSTANTIATE_TEST_SUITE_P(
    AllFeatures, EngineCapability,
    ::testing::Range<std::size_t>(0, rows().size()),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      return std::string(rows()[info.param].name);
    });

}  // namespace
}  // namespace fedms
