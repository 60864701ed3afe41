#include <gtest/gtest.h>

#include "core/rng.h"
#include "net/latency.h"
#include "net/message.h"
#include "net/node_id.h"
#include "net/sim_network.h"

namespace fedms::net {
namespace {

Message upload(std::size_t client, std::size_t server, std::size_t dim,
               std::uint64_t round = 0) {
  Message m;
  m.from = client_id(client);
  m.to = server_id(server);
  m.kind = MessageKind::kModelUpload;
  m.round = round;
  m.payload.assign(dim, 1.0f);
  return m;
}

TEST(NodeId, OrderingAndEquality) {
  EXPECT_EQ(client_id(3), client_id(3));
  EXPECT_NE(client_id(3), server_id(3));
  EXPECT_LT(client_id(1), client_id(2));
  EXPECT_LT(client_id(9), server_id(0));  // clients sort before servers
}

TEST(NodeId, ToString) {
  EXPECT_EQ(to_string(client_id(5)), "client#5");
  EXPECT_EQ(to_string(server_id(2)), "server#2");
}

TEST(Message, WireSizeCountsPayload) {
  const Message m = upload(0, 0, 100);
  EXPECT_EQ(wire_size(m), kMessageHeaderBytes + 8 + 400);
  const Message empty = upload(0, 0, 0);
  EXPECT_EQ(wire_size(empty), kMessageHeaderBytes + 8);
}

TEST(SimNetwork, DeliversToAddressee) {
  SimNetwork net;
  net.send(upload(0, 2, 4));
  net.send(upload(1, 2, 4));
  net.send(upload(2, 3, 4));
  EXPECT_EQ(net.pending_count(), 3u);
  const auto inbox2 = net.drain_inbox(server_id(2));
  ASSERT_EQ(inbox2.size(), 2u);
  EXPECT_EQ(inbox2[0].from, client_id(0));
  EXPECT_EQ(inbox2[1].from, client_id(1));
  EXPECT_EQ(net.pending_count(), 1u);
  EXPECT_TRUE(net.drain_inbox(server_id(2)).empty());  // drained
  EXPECT_TRUE(net.drain_inbox(server_id(9)).empty());  // never addressed
}

TEST(SimNetwork, PreservesSendOrder) {
  SimNetwork net;
  for (std::size_t i = 0; i < 5; ++i) net.send(upload(i, 0, 1, i));
  const auto inbox = net.drain_inbox(server_id(0));
  ASSERT_EQ(inbox.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(inbox[i].round, i);
}

TEST(SimNetwork, SeparatesUplinkAndDownlink) {
  SimNetwork net;
  net.send(upload(0, 0, 10));  // client -> server: uplink
  Message down;
  down.from = server_id(0);
  down.to = client_id(0);
  down.kind = MessageKind::kModelBroadcast;
  down.payload.assign(20, 0.0f);
  const std::size_t down_size = wire_size(down);
  net.send(std::move(down));

  EXPECT_EQ(net.uplink().messages, 1u);
  EXPECT_EQ(net.downlink().messages, 1u);
  EXPECT_EQ(net.uplink().bytes, wire_size(upload(0, 0, 10)));
  EXPECT_EQ(net.downlink().bytes, down_size);
  EXPECT_EQ(net.total().messages, 2u);
}

TEST(SimNetwork, ResetStatsClearsCounters) {
  SimNetwork net;
  net.send(upload(0, 0, 5));
  net.reset_stats();
  EXPECT_EQ(net.total().messages, 0u);
  EXPECT_EQ(net.total().bytes, 0u);
  // Queued message is still deliverable: stats, not state, were reset.
  EXPECT_EQ(net.drain_inbox(server_id(0)).size(), 1u);
}

TEST(SimNetwork, ZeroLossDeliversEverything) {
  SimNetwork net;
  for (int i = 0; i < 100; ++i) net.send(upload(0, 0, 1));
  EXPECT_EQ(net.uplink().messages, 100u);
  EXPECT_EQ(net.uplink().dropped_messages, 0u);
}

TEST(SimNetwork, DirectionForBillsBySenderKind) {
  TrafficStats up, down;
  EXPECT_EQ(&SimNetwork::direction_for(client_id(0), up, down), &up);
  EXPECT_EQ(&SimNetwork::direction_for(client_id(7), up, down), &up);
  EXPECT_EQ(&SimNetwork::direction_for(server_id(0), up, down), &down);
}

TEST(Message, ControlKindsHaveNames) {
  Message m = upload(0, 0, 0);
  m.kind = MessageKind::kHello;
  EXPECT_NE(to_string(m.kind), nullptr);
  m.kind = MessageKind::kRoundSync;
  EXPECT_NE(to_string(m.kind), nullptr);
}

TEST(Latency, TransferTimeFormula) {
  LinkModel link;
  link.bandwidth_bytes_per_sec = 1000.0;
  link.rtt_sec = 0.1;
  const LatencyModel model(link);
  EXPECT_DOUBLE_EQ(model.transfer_seconds(500), 0.05 + 0.5);
}

TEST(Latency, StageTimeIsWorstLink) {
  LinkModel link;
  link.bandwidth_bytes_per_sec = 1000.0;
  link.rtt_sec = 0.0;
  const LatencyModel model(link);
  // Client 0 sends twice (bytes add up on its link); client 1 sends once.
  std::vector<Message> messages = {upload(0, 0, 100), upload(0, 1, 100),
                                   upload(1, 0, 100)};
  const double single = model.transfer_seconds(wire_size(messages[0]));
  EXPECT_DOUBLE_EQ(model.stage_seconds(messages), 2.0 * single);
}

TEST(Latency, EmptyStageIsFree) {
  const LatencyModel model;
  EXPECT_DOUBLE_EQ(model.stage_seconds({}), 0.0);
}

TEST(Latency, PerNodeLinkOverrides) {
  LinkModel fast;
  fast.bandwidth_bytes_per_sec = 1e6;
  fast.rtt_sec = 0.0;
  LatencyModel model(fast);
  LinkModel slow = fast;
  slow.bandwidth_bytes_per_sec = 1e3;  // 1000x slower client 1
  model.set_link(client_id(1), slow);

  EXPECT_DOUBLE_EQ(model.link_for(client_id(0)).bandwidth_bytes_per_sec,
                   1e6);
  EXPECT_DOUBLE_EQ(model.link_for(client_id(1)).bandwidth_bytes_per_sec,
                   1e3);
  // The slow client dominates the stage.
  std::vector<Message> messages = {upload(0, 0, 100), upload(1, 0, 100)};
  const double t = model.stage_seconds(messages);
  EXPECT_NEAR(t, double(wire_size(messages[1])) / 1e3, 1e-9);
}

TEST(Latency, RandomizedLinksStayWithinSpread) {
  LatencyModel model;
  core::Rng rng(5);
  model.randomize_links(10, 4, /*spread=*/4.0, rng);
  const double base = model.default_link().bandwidth_bytes_per_sec;
  bool any_different = false;
  for (std::size_t k = 0; k < 10; ++k) {
    const double bw = model.link_for(client_id(k)).bandwidth_bytes_per_sec;
    EXPECT_GE(bw, base / 4.0 - 1e-6);
    EXPECT_LE(bw, base * 4.0 + 1e-6);
    any_different |= std::abs(bw - base) > 1e-6;
  }
  EXPECT_TRUE(any_different);
}

TEST(Message, WireSizeUsesEncodedBytesForCompressedPayloads) {
  // A codec shrank the 100-float payload to 2 bytes/value on the wire:
  // wire_size must bill the encoded size, not the float payload.
  Message m = upload(0, 0, 100);
  m.encoded_bytes = 8 + 200;
  EXPECT_EQ(wire_size(m), kMessageHeaderBytes + 8 + 200);
  // The uncompressed payload accounting is unchanged.
  m.encoded_bytes = 0;
  EXPECT_EQ(wire_size(m), kMessageHeaderBytes + payload_bytes(m));
}

TEST(MessageDeath, RejectsEncodedBytesWithoutPayload) {
  // encoded_bytes > 0 claims a compressed payload, so an empty payload is
  // a bookkeeping bug (e.g. billing a stale size after a move).
  Message m = upload(0, 0, 0);
  m.encoded_bytes = 64;
  EXPECT_DEATH(wire_size(m), "Precondition");
}

TEST(Latency, RandomizeLinksIsDeterministicUnderFixedSeed) {
  auto draw_bandwidths = [](std::uint64_t seed) {
    LatencyModel model;
    core::Rng rng(seed);
    model.randomize_links(6, 3, /*spread=*/5.0, rng);
    std::vector<double> bw;
    for (std::size_t k = 0; k < 6; ++k)
      bw.push_back(model.link_for(client_id(k)).bandwidth_bytes_per_sec);
    for (std::size_t s = 0; s < 3; ++s)
      bw.push_back(model.link_for(server_id(s)).bandwidth_bytes_per_sec);
    return bw;
  };
  EXPECT_EQ(draw_bandwidths(9), draw_bandwidths(9));
  EXPECT_NE(draw_bandwidths(9), draw_bandwidths(10));
}

TEST(Latency, HeterogeneousStageIsDominatedBySlowestLink) {
  LatencyModel model;
  // Client 1 has a 100x slower uplink than everyone else.
  LinkModel slow = model.default_link();
  slow.bandwidth_bytes_per_sec /= 100.0;
  model.set_link(client_id(1), slow);

  std::vector<Message> stage;
  for (std::size_t k = 0; k < 4; ++k) stage.push_back(upload(k, 0, 10000));
  const double t_stage = model.stage_seconds(stage);
  // The stage takes as long as the slow client alone...
  const double t_slow =
      model.transfer_seconds(wire_size(stage[1]), client_id(1));
  EXPECT_DOUBLE_EQ(t_stage, t_slow);
  // ...and removing it makes the stage ~100x cheaper on bandwidth.
  stage.erase(stage.begin() + 1);
  EXPECT_LT(model.stage_seconds(stage), t_stage / 10.0);
}

TEST(Latency, UploadToAllIsPTimesSlower) {
  LinkModel link;
  link.rtt_sec = 0.0;  // isolate the bandwidth term
  const LatencyModel model(link);
  // One client uploading to 1 vs 10 servers.
  std::vector<Message> sparse = {upload(0, 0, 1000)};
  std::vector<Message> full;
  for (std::size_t s = 0; s < 10; ++s) full.push_back(upload(0, s, 1000));
  const double t_sparse = model.stage_seconds(sparse);
  const double t_full = model.stage_seconds(full);
  // Bytes scale 10x; rtt/2 is shared, so ratio is slightly under 10.
  EXPECT_GT(t_full, 5.0 * t_sparse);
  EXPECT_LE(t_full, 10.0 * t_sparse);
}

}  // namespace
}  // namespace fedms::net
