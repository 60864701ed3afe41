// The transport engine's bit-for-bit contract: running the Fed-MS protocol
// as K+P concurrent nodes over the in-memory transport must reproduce the
// round-synchronous simulator exactly — same final accuracy (not just
// approximately: the same floats), same per-client models, same data-byte
// accounting.
#include "transport/node_runner.h"

#include <gtest/gtest.h>

#include "fl/experiment.h"
#include "transport/frame.h"
#include "transport/transport.h"

namespace fedms::transport {
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
  fed.rounds = 2;
  fed.local_iterations = 2;
  fed.client_filter = "trmean:0.34";
  fed.attack = "noise";
  fed.eval_every = 1;
  fed.seed = 11;
  return fed;
}

struct SimBaseline {
  fl::RunResult result;
  std::vector<std::uint32_t> model_crcs;  // per client, final round
};

SimBaseline run_sim(const fl::WorkloadConfig& workload,
                    const fl::FedMsConfig& fed) {
  SimBaseline baseline;
  fl::Experiment experiment = fl::make_experiment(workload, fed);
  experiment.run->set_round_callback(
      [&](std::uint64_t round, const std::vector<fl::LearnerPtr>& learners) {
        if (round + 1 != fed.rounds) return;
        for (const auto& learner : learners)
          baseline.model_crcs.push_back(
              crc32c_floats(learner->parameters()));
      });
  baseline.result = experiment.run->run();
  return baseline;
}

void expect_matches_sim(const fl::WorkloadConfig& workload,
                        const fl::FedMsConfig& fed) {
  const SimBaseline sim = run_sim(workload, fed);

  InMemoryHub hub;
  const TransportRunSummary summary =
      run_transport_experiment(workload, fed, hub);

  // Exact equality, not tolerance: the engine replays the simulator's
  // float operations in the same order.
  EXPECT_EQ(summary.mean_accuracy(), *sim.result.final_eval().eval_accuracy);
  EXPECT_EQ(summary.mean_eval_loss(), *sim.result.final_eval().eval_loss);

  ASSERT_EQ(summary.clients.size(), sim.model_crcs.size());
  for (std::size_t k = 0; k < summary.clients.size(); ++k)
    EXPECT_EQ(summary.clients[k].model_crc, sim.model_crcs[k])
        << "client " << k << " final model diverged";

  const auto totals = summary.data_totals();
  EXPECT_EQ(totals.uplink_messages, sim.result.uplink_total.messages);
  EXPECT_EQ(totals.uplink_bytes, sim.result.uplink_total.bytes);
  EXPECT_EQ(totals.downlink_messages, sim.result.downlink_total.messages);
  EXPECT_EQ(totals.downlink_bytes, sim.result.downlink_total.bytes);
  EXPECT_EQ(summary.corrupt_frames(), 0u);
}

TEST(TransportEngine, MatchesSimulatorBitForBit) {
  expect_matches_sim(small_workload(), small_fed());
}

TEST(TransportEngine, MatchesSimulatorUnderRandomPlacementAndAttack) {
  fl::FedMsConfig fed = small_fed();
  fed.byzantine_placement = "random";
  fed.attack = "random";
  fed.seed = 23;
  expect_matches_sim(small_workload(), fed);
}

TEST(TransportEngine, MatchesSimulatorWithCompressedUploads) {
  fl::FedMsConfig fed = small_fed();
  fed.wire_encoding = "int8";
  expect_matches_sim(small_workload(), fed);
}

TEST(TransportEngine, MatchesSimulatorWithFullUploadAndLongerRun) {
  fl::FedMsConfig fed = small_fed();
  fed.upload = "full";
  fed.rounds = 3;
  fed.eval_every = 2;
  expect_matches_sim(small_workload(), fed);
}

TEST(TransportEngine, CorruptionDegradesGracefullyThroughTrimmedMean) {
  const fl::WorkloadConfig workload = small_workload();
  const fl::FedMsConfig fed = small_fed();

  InMemoryHub hub;
  hub.set_corrupt_rate(0.4, 77);
  const TransportRunSummary summary =
      run_transport_experiment(workload, fed, hub);

  // The run completes despite heavy frame corruption: CRC-rejected frames
  // surface as missing candidates and the trimmed-mean fallback absorbs
  // them. Telemetry shows the rejected frames.
  EXPECT_GT(summary.corrupt_frames(), 0u);
  EXPECT_GE(summary.mean_accuracy(), 0.0);
  EXPECT_LE(summary.mean_accuracy(), 1.0);

  // Corrupted frames were counted as sent but never as received.
  const auto totals = summary.data_totals();
  std::uint64_t received_data = 0;
  for (const auto& node : summary.clients)
    received_data += node.stats.total_received().messages;
  for (const auto& node : summary.servers)
    received_data += node.stats.total_received().messages;
  EXPECT_EQ(received_data + summary.corrupt_frames(),
            totals.uplink_messages + totals.downlink_messages);
}

TEST(TransportEngine, MatchesSimulatorUnderPartialParticipation) {
  fl::FedMsConfig fed = small_fed();
  fed.participation = 0.5;
  fed.rounds = 3;
  expect_matches_sim(small_workload(), fed);
}

TEST(NodeReport, TextRoundTripIsExact) {
  NodeReport report;
  report.self = net::client_id(7);
  report.rounds = 12;
  report.final_accuracy = 0.123456789012345;  // not representable in short
  report.final_eval_loss = 2.718281828459045;
  report.model_crc = 0xDEADBEEF;
  LinkStats link;
  link.messages = 3;
  link.bytes = 12345;
  link.control_messages = 9;
  link.control_bytes = 648;
  link.corrupt_frames = 2;
  report.stats.sent[net::server_id(0)] = link;
  report.stats.received[net::server_id(1)] = link;

  const NodeReport parsed = parse_report_text(to_report_text(report));
  EXPECT_EQ(parsed.self, report.self);
  EXPECT_EQ(parsed.rounds, report.rounds);
  // Hexfloat serialization: bit-exact doubles through text.
  EXPECT_EQ(parsed.final_accuracy, report.final_accuracy);
  EXPECT_EQ(parsed.final_eval_loss, report.final_eval_loss);
  EXPECT_EQ(parsed.model_crc, report.model_crc);
  const LinkStats& sent = parsed.stats.sent.at(net::server_id(0));
  EXPECT_EQ(sent.bytes, link.bytes);
  EXPECT_EQ(sent.corrupt_frames, link.corrupt_frames);
  EXPECT_EQ(parsed.stats.received.at(net::server_id(1)).control_bytes,
            link.control_bytes);
}

TEST(NodeReport, ParseRejectsMalformedText) {
  EXPECT_THROW(parse_report_text("not a report"), std::runtime_error);
  EXPECT_THROW(parse_report_text("fedms-node-report v1\nrole client\n"),
               std::runtime_error);  // missing end marker
  EXPECT_THROW(
      parse_report_text("fedms-node-report v1\nwhatever 3\nend\n"),
      std::runtime_error);
}

TEST(InMemoryTransport, DeliversAcrossEndpointsWithStats) {
  InMemoryHub hub;
  auto client = hub.make_endpoint(net::client_id(0));
  auto server = hub.make_endpoint(net::server_id(0));

  net::Message m;
  m.from = net::client_id(0);
  m.to = net::server_id(0);
  m.kind = net::MessageKind::kModelUpload;
  m.round = 3;
  m.payload = {1.0f, 2.0f, 3.0f};
  const std::size_t framed = FrameCodec::framed_size(m);
  client->send(m);

  const auto received = server->receive(1.0);
  ASSERT_TRUE(received.has_value());
  EXPECT_EQ(received->payload, m.payload);
  EXPECT_EQ(client->stats().total_sent().bytes, framed);
  EXPECT_EQ(server->stats().total_received().bytes, framed);

  // Timeout on an empty inbox returns nothing.
  EXPECT_FALSE(client->receive(0.01).has_value());
}

TEST(InMemoryTransport, ControlTrafficIsCountedSeparately) {
  InMemoryHub hub;
  auto client = hub.make_endpoint(net::client_id(0));
  auto server = hub.make_endpoint(net::server_id(0));

  net::Message sync;
  sync.from = net::client_id(0);
  sync.to = net::server_id(0);
  sync.kind = net::MessageKind::kRoundSync;
  client->send(sync);

  ASSERT_TRUE(server->receive(1.0).has_value());
  EXPECT_EQ(client->stats().total_sent().messages, 0u);
  EXPECT_EQ(client->stats().total_sent().control_messages, 1u);
  EXPECT_EQ(server->stats().total_received().control_messages, 1u);
}

}  // namespace
}  // namespace fedms::transport
