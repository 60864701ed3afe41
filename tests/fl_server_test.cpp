#include "fl/server.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <optional>
#include <string>

#include "byz/attack.h"
#include "byz/attacks.h"
#include "core/rng.h"
#include "fl/wire_encoding.h"

namespace fedms::fl {
namespace {

TEST(Server, BenignAggregatesMean) {
  ParameterServer server(0, nullptr, core::Rng(1));
  server.set_initial_model({0.0f, 0.0f});
  server.aggregate_round(0, {{1, 10}, {3, 20}});
  EXPECT_EQ(server.honest_aggregate(), (std::vector<float>{2, 15}));
  EXPECT_EQ(server.last_upload_count(), 2u);
  EXPECT_FALSE(server.is_byzantine());
}

TEST(Server, BenignDisseminatesHonestAggregate) {
  ParameterServer server(0, nullptr, core::Rng(2));
  server.set_initial_model({1.0f});
  server.aggregate_round(0, {{4.0f}});
  EXPECT_EQ(server.disseminate(0, 7), (std::vector<float>{4.0f}));
  // Every client receives the same payload from a benign PS.
  EXPECT_EQ(server.disseminate(0, 0), server.disseminate(0, 42));
}

TEST(Server, EmptyRoundKeepsPreviousAggregate) {
  ParameterServer server(0, nullptr, core::Rng(3));
  server.set_initial_model({9.0f});
  server.aggregate_round(0, {});
  EXPECT_EQ(server.honest_aggregate(), (std::vector<float>{9.0f}));
  EXPECT_EQ(server.last_upload_count(), 0u);
  server.aggregate_round(1, {{5.0f}});
  server.aggregate_round(2, {});
  EXPECT_EQ(server.honest_aggregate(), (std::vector<float>{5.0f}));
}

TEST(Server, HistoryArchivesPreviousRounds) {
  ParameterServer server(0, nullptr, core::Rng(4));
  server.set_initial_model({0.0f});
  server.aggregate_round(0, {{1.0f}});
  server.aggregate_round(1, {{2.0f}});
  server.aggregate_round(2, {{3.0f}});
  // history = [w0, round-0 aggregate, round-1 aggregate].
  ASSERT_EQ(server.history().size(), 3u);
  EXPECT_EQ(server.history()[0], (std::vector<float>{0.0f}));
  EXPECT_EQ(server.history()[1], (std::vector<float>{1.0f}));
  EXPECT_EQ(server.history()[2], (std::vector<float>{2.0f}));
}

TEST(Server, HistoryBoundedByLimit) {
  ParameterServer server(0, nullptr, core::Rng(5), /*history_limit=*/3);
  server.set_initial_model({0.0f});
  for (std::uint64_t t = 0; t < 10; ++t)
    server.aggregate_round(t, {{float(t + 1)}});
  ASSERT_EQ(server.history().size(), 3u);
  // Oldest entries were evicted; newest archived is round 8's aggregate.
  EXPECT_EQ(server.history().back(), (std::vector<float>{9.0f}));
}

TEST(Server, ByzantineTampersDissemination) {
  ParameterServer server(2, byz::make_attack("zero"), core::Rng(6));
  server.set_initial_model({1.0f, 1.0f});
  server.aggregate_round(0, {{6.0f, 8.0f}});
  EXPECT_TRUE(server.is_byzantine());
  // Honest aggregate is intact internally...
  EXPECT_EQ(server.honest_aggregate(), (std::vector<float>{6, 8}));
  // ...but dissemination lies.
  EXPECT_EQ(server.disseminate(0, 0), (std::vector<float>{0, 0}));
}

TEST(Server, SafeguardUsesInitialModelAnchor) {
  auto attack = std::make_unique<byz::SafeguardAttack>(0.5, 1.0);
  ParameterServer server(0, std::move(attack), core::Rng(7));
  server.set_initial_model({2.0f});
  server.aggregate_round(0, {{6.0f}});
  // tampered = 6 - 0.5*(6 - 2) = 4.
  EXPECT_EQ(server.disseminate(0, 0), (std::vector<float>{4.0f}));
}

TEST(Server, BackwardAttackReplaysHistoryThroughServer) {
  ParameterServer server(0, std::make_unique<byz::BackwardAttack>(2),
                         core::Rng(8));
  server.set_initial_model({0.0f});
  server.aggregate_round(0, {{1.0f}});
  server.aggregate_round(1, {{2.0f}});
  server.aggregate_round(2, {{3.0f}});
  // history = [0, 1, 2]; lag 2 over current round (t=2, aggregate 3)
  // replays history[size-2] = the round-0 aggregate = 1.
  EXPECT_EQ(server.disseminate(2, 0), (std::vector<float>{1.0f}));
}

// ---- the round protocol: accept / aggregate / broadcast ----

net::Message upload_from(std::size_t client, std::vector<float> payload) {
  return net::Message{.from = net::client_id(client),
                      .to = net::server_id(0),
                      .kind = net::MessageKind::kModelUpload,
                      .payload = std::move(payload)};
}

bool bits_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

TEST(ServerRound, ShuffledAcceptsAggregateAsAscendingOrder) {
  // Clients 0 and 1 upload +-2^60 and the rest O(1) values, so the sum
  // keeps the small values only when the two large ones cancel first.
  constexpr std::size_t kClients = 9, kDim = 33;
  core::Rng rng(21);
  std::vector<std::vector<float>> uploads(kClients);
  for (std::size_t j = 0; j < kDim; ++j) {
    const float big = std::ldexp(1.0f + float(j) / 64.0f, 60);
    uploads[0].push_back(big);
    uploads[1].push_back(-big);
    for (std::size_t k = 2; k < kClients; ++k)
      uploads[k].push_back(float(rng.normal(0.0, 1.0)));
  }
  ParameterServer ascending(0, nullptr, core::Rng(1));
  ascending.set_initial_model(std::vector<float>(kDim, 0.0f));
  ascending.aggregate_round(0, uploads);
  // The fixture is order-sensitive: the reversed order changes bits.
  ParameterServer reversed(0, nullptr, core::Rng(1));
  reversed.set_initial_model(std::vector<float>(kDim, 0.0f));
  reversed.aggregate_round(0, {uploads.rbegin(), uploads.rend()});
  ASSERT_FALSE(
      bits_equal(reversed.honest_aggregate(), ascending.honest_aggregate()));

  std::vector<std::size_t> order(kClients);
  for (std::size_t k = 0; k < kClients; ++k) order[k] = k;
  for (int trial = 0; trial < 5; ++trial) {
    rng.shuffle(order);
    ParameterServer shuffled(0, nullptr, core::Rng(1));
    shuffled.set_initial_model(std::vector<float>(kDim, 0.0f));
    for (const std::size_t k : order)
      EXPECT_TRUE(shuffled.accept(upload_from(k, uploads[k])));
    shuffled.aggregate(0);
    EXPECT_TRUE(bits_equal(shuffled.honest_aggregate(),
                           ascending.honest_aggregate()));
    EXPECT_EQ(shuffled.last_upload_count(), kClients);
  }
}

TEST(ServerRound, DuplicateAcceptIsRefusedAndLeavesTheAggregate) {
  ParameterServer server(0, nullptr, core::Rng(2));
  server.set_initial_model({0.0f});
  EXPECT_TRUE(server.accept(upload_from(1, {2.0f})));
  EXPECT_TRUE(server.accept(upload_from(0, {4.0f})));
  EXPECT_FALSE(server.accept(upload_from(1, {100.0f})));
  server.aggregate(0);
  EXPECT_EQ(server.honest_aggregate(), (std::vector<float>{3.0f}));
  EXPECT_EQ(server.last_upload_count(), 2u);
  // aggregate() cleared the accepted set: the next round starts empty.
  EXPECT_TRUE(server.accept(upload_from(1, {6.0f})));
  server.aggregate(1);
  EXPECT_EQ(server.honest_aggregate(), (std::vector<float>{6.0f}));
}

TEST(ServerRound, AcceptDecodesStatefulUploadsPerClientStream) {
  const WireEncodingSpec spec = wire_encoding_spec("delta+int8");
  WireChannel sender(spec);
  ParameterServer server(0, nullptr, core::Rng(3));
  server.set_initial_model(std::vector<float>(4, 0.0f));
  for (std::uint64_t round = 0; round < 3; ++round) {
    const std::vector<float> model = {1.0f + float(round), -2.0f, 0.5f, 3.0f};
    const WireEncodeResult wire = sender.encode(model);
    // What the frame codec hands over for a stateful payload: the bytes,
    // undecoded.
    net::Message m = upload_from(0, {});
    m.encoded_bytes = wire.bytes.size();
    m.encoded = wire.bytes;
    m.wire_format = spec.format_tag();
    EXPECT_TRUE(server.accept(std::move(m)));
    server.aggregate(round);
    EXPECT_TRUE(bits_equal(server.honest_aggregate(), wire.decoded));
  }
}

TEST(ServerRound, CrashedPsBroadcastsNothing) {
  ParameterServer server(0, byz::make_attack("crash"), core::Rng(4));
  server.set_initial_model({1.0f, 2.0f});
  server.aggregate(0);
  for (std::size_t k = 0; k < 3; ++k)
    EXPECT_FALSE(server.broadcast(0, k).has_value());
}

TEST(ServerRound, BroadcastAddressesTheClientWithTheDisseminatedModel) {
  ParameterServer server(2, nullptr, core::Rng(5));
  server.set_initial_model({1.0f, 2.0f});
  const std::optional<net::Message> m = server.broadcast(7, 3);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->from, net::server_id(2));
  EXPECT_EQ(m->to, net::client_id(3));
  EXPECT_EQ(m->kind, net::MessageKind::kModelBroadcast);
  EXPECT_EQ(m->round, 7u);
  EXPECT_EQ(m->payload, (std::vector<float>{1.0f, 2.0f}));
  EXPECT_EQ(m->encoded_bytes, 0u);  // f32 unless a wire encoding is set
}

TEST(ServerRound, KeepEncodedInt8BroadcastDecodesOnTheClient) {
  const WireEncodingSpec int8 = wire_encoding_spec("int8");
  ParameterServer server(0, nullptr, core::Rng(6));
  server.set_wire_encoding(int8);
  server.set_initial_model({0.25f, -1.5f, 3.0f, 7.0f});
  const std::optional<net::Message> kept =
      server.broadcast(0, 1, /*keep_encoded=*/true);
  ASSERT_TRUE(kept.has_value());
  EXPECT_EQ(kept->wire_format, kWireFormatInt8);
  ASSERT_FALSE(kept->encoded.empty());
  EXPECT_EQ(kept->encoded_bytes, kept->encoded.size());
  WireChannel client(int8);
  EXPECT_TRUE(bits_equal(client.decode(kept->wire_format, kept->encoded),
                         kept->payload));
  // Simulated links bill the size only.
  const std::optional<net::Message> billed = server.broadcast(0, 2);
  ASSERT_TRUE(billed.has_value());
  EXPECT_TRUE(billed->encoded.empty());
  EXPECT_EQ(billed->encoded_bytes, kept->encoded_bytes);
  EXPECT_TRUE(bits_equal(billed->payload, kept->payload));
}

TEST(ServerRound, ClientEncodingOverridesTheDefault) {
  ParameterServer server(0, nullptr, core::Rng(7));
  server.set_wire_encoding(wire_encoding_spec("int8"));
  server.set_client_encoding(1, wire_encoding_spec("fp16"));
  server.set_client_encoding(2, WireEncodingSpec{});
  server.set_initial_model({0.25f, -1.5f, 3.0f});
  EXPECT_EQ(server.broadcast(0, 0)->wire_format, kWireFormatInt8);
  EXPECT_EQ(server.broadcast(0, 1)->wire_format, kWireFormatFp16);
  const std::optional<net::Message> f32 = server.broadcast(0, 2);
  EXPECT_EQ(f32->encoded_bytes, 0u);
  EXPECT_EQ(f32->payload, (std::vector<float>{0.25f, -1.5f, 3.0f}));
}

// An honest PS encodes each stateless broadcast once per round and copies
// it to every recipient. Every broadcast must still be exactly what a
// per-client WireChannel would produce from the current aggregate.
TEST(ServerRound, EncodeOnceBroadcastsMatchPerClientChannels) {
  constexpr std::size_t kDim = 200;
  const std::vector<std::string> specs = {"int8", "int8", "int8",
                                          "delta+int8", "f32"};
  ParameterServer server(0, nullptr, core::Rng(11));
  std::vector<WireChannel> fresh;
  for (std::size_t k = 0; k < specs.size(); ++k) {
    server.set_client_encoding(k, wire_encoding_spec(specs[k]));
    fresh.emplace_back(wire_encoding_spec(specs[k]));
  }
  core::Rng rng(12);
  const auto random_model = [&rng] {
    std::vector<float> model(kDim);
    for (float& x : model) x = float(rng.normal(0.0, 1.0));
    return model;
  };
  server.set_initial_model(random_model());

  // Broadcasts every client its model for `round`, checks each against
  // its fresh channel, and returns client 0's (int8) payload.
  const auto broadcast_all = [&](std::uint64_t round) {
    std::vector<float> int8_payload;
    for (std::size_t k = 0; k < specs.size(); ++k) {
      SCOPED_TRACE("round " + std::to_string(round) + " client " +
                   std::to_string(k));
      const std::optional<net::Message> m =
          server.broadcast(round, k, /*keep_encoded=*/true);
      EXPECT_TRUE(m.has_value());
      if (!m.has_value()) continue;
      if (fresh[k].spec().is_f32()) {
        EXPECT_TRUE(bits_equal(m->payload, server.honest_aggregate()));
        EXPECT_EQ(m->encoded_bytes, 0u);
        EXPECT_TRUE(m->encoded.empty());
      } else {
        const WireEncodeResult want =
            fresh[k].encode(server.honest_aggregate());
        EXPECT_EQ(m->wire_format, fresh[k].spec().format_tag());
        EXPECT_EQ(m->encoded, want.bytes);
        EXPECT_EQ(m->encoded_bytes, want.bytes.size());
        EXPECT_TRUE(bits_equal(m->payload, want.decoded));
      }
      if (k == 0) int8_payload = m->payload;
    }
    return int8_payload;
  };

  const std::vector<float> initial = broadcast_all(0);
  const ParameterServer::Snapshot snapshot = server.snapshot();

  for (std::size_t k = 0; k < specs.size(); ++k)
    EXPECT_TRUE(server.accept(upload_from(k, random_model())));
  server.aggregate(1);
  const std::vector<float> aggregated = broadcast_all(1);
  EXPECT_FALSE(bits_equal(aggregated, initial));
  // A second broadcast of the same round reuses the encoding.
  EXPECT_TRUE(bits_equal(broadcast_all(1), aggregated));

  server.restore(snapshot);
  EXPECT_TRUE(bits_equal(broadcast_all(2), initial));

  server.aggregate_round(3, {random_model()});
  EXPECT_FALSE(bits_equal(broadcast_all(3), initial));

  server.reset_state();
  EXPECT_TRUE(bits_equal(broadcast_all(4), initial));

  server.set_initial_model(random_model());
  EXPECT_FALSE(bits_equal(broadcast_all(5), initial));
}

TEST(ServerRound, ByzantinePsStillEncodesPerRecipient) {
  ParameterServer server(0, byz::make_attack("noise"), core::Rng(13));
  server.set_wire_encoding(wire_encoding_spec("int8"));
  server.set_initial_model(std::vector<float>(64, 1.0f));
  const std::optional<net::Message> a = server.broadcast(0, 0, true);
  const std::optional<net::Message> b = server.broadcast(0, 1, true);
  ASSERT_TRUE(a.has_value() && b.has_value());
  EXPECT_FALSE(bits_equal(a->payload, b->payload));
  EXPECT_NE(a->encoded, b->encoded);
  WireChannel client(wire_encoding_spec("int8"));
  EXPECT_TRUE(bits_equal(client.decode(a->wire_format, a->encoded),
                         a->payload));
  EXPECT_TRUE(bits_equal(client.decode(b->wire_format, b->encoded),
                         b->payload));
}

TEST(ServerRound, MakeParameterServerBroadcastsInTheConfiguredEncoding) {
  FedMsConfig fed;
  fed.clients = 2;
  fed.servers = 1;
  fed.byzantine = 0;
  fed.wire_encoding = "fp16";
  ParameterServer server = make_parameter_server(fed, 0, {1.0f, 2.0f});
  EXPECT_EQ(server.broadcast(0, 1)->wire_format, kWireFormatFp16);
}

TEST(ServerDeath, DisseminateBeforeInitializationAborts) {
  ParameterServer server(0, nullptr, core::Rng(9));
  EXPECT_DEATH((void)server.disseminate(0, 0), "Precondition");
}

TEST(ServerDeath, EmptyInitialModelAborts) {
  ParameterServer server(0, nullptr, core::Rng(10));
  EXPECT_DEATH(server.set_initial_model({}), "Precondition");
}

}  // namespace
}  // namespace fedms::fl
