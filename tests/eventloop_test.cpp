// Event-loop server runtime: reactor backend equivalence, the connection
// handshake, backpressure plumbing, PS->client corruption injection,
// fd-budget probing, and a full Fed-MS run over real sockets where every
// PS is an EventLoopServer — which must match the in-memory reference bit
// for bit.
#include "eventloop/server.h"

#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <thread>

#include "core/scratch_dir.h"
#include "eventloop/reactor.h"
#include "fl/experiment.h"
#include "transport/frame.h"
#include "transport/node_runner.h"
#include "transport/socket_transport.h"

namespace fedms::eventloop {
namespace {

net::Message hello_from(std::size_t k) {
  net::Message m;
  m.from = net::client_id(k);
  m.to = net::server_id(0);
  m.kind = net::MessageKind::kHello;
  return m;
}

net::Message upload_from(std::size_t k, std::uint64_t round,
                         std::size_t dim) {
  net::Message m;
  m.from = net::client_id(k);
  m.to = net::server_id(0);
  m.kind = net::MessageKind::kModelUpload;
  m.round = round;
  for (std::size_t j = 0; j < dim; ++j)
    m.payload.push_back(float(k * 100 + j) * 0.25f);
  return m;
}

void write_frame(int fd, const net::Message& message,
                 const transport::FrameCodec& codec) {
  const std::vector<std::uint8_t> frame = codec.encode(message);
  std::size_t written = 0;
  while (written < frame.size()) {
    const ssize_t n =
        ::send(fd, frame.data() + written, frame.size() - written,
               MSG_NOSIGNAL);
    ASSERT_GT(n, 0);
    written += std::size_t(n);
  }
}

net::Message read_frame(int fd, const transport::FrameCodec& codec) {
  std::vector<std::uint8_t> buffer;
  for (;;) {
    const auto size = transport::FrameCodec::frame_size(buffer.data(),
                                                        buffer.size());
    if (size.has_value() && buffer.size() >= *size) {
      const auto decoded = codec.decode(buffer.data(), *size);
      EXPECT_TRUE(decoded.ok());
      return decoded.message;
    }
    std::uint8_t chunk[4096];
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    EXPECT_GT(n, 0) << "peer hung up mid-frame";
    if (n <= 0) return {};
    buffer.insert(buffer.end(), chunk, chunk + n);
  }
}

// ---- Reactor ----

class ReactorBackends
    : public ::testing::TestWithParam<Reactor::Backend> {};

TEST_P(ReactorBackends, ReportsReadableAndWritable) {
  Reactor reactor(GetParam());
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  int tag_a = 0, tag_b = 0;
  reactor.add(fds[0], true, false, &tag_a);
  reactor.add(fds[1], true, true, &tag_b);
  EXPECT_EQ(reactor.watched(), 2u);

  // Nothing written yet: only fds[1] (write-interested, buffer empty)
  // fires, and only as writable.
  std::vector<Reactor::Event> events;
  ASSERT_EQ(reactor.wait(0.2, events), 1u);
  EXPECT_EQ(events[0].fd, fds[1]);
  EXPECT_EQ(events[0].user, &tag_b);
  EXPECT_FALSE(events[0].readable);
  EXPECT_TRUE(events[0].writable);

  // Level-triggered: an unconsumed byte keeps reporting readable.
  ASSERT_EQ(::send(fds[1], "x", 1, MSG_NOSIGNAL), 1);
  reactor.modify(fds[1], false, false);
  for (int pass = 0; pass < 2; ++pass) {
    ASSERT_EQ(reactor.wait(0.5, events), 1u) << "pass " << pass;
    EXPECT_EQ(events[0].fd, fds[0]);
    EXPECT_EQ(events[0].user, &tag_a);
    EXPECT_TRUE(events[0].readable);
  }

  // Consuming the byte silences it again.
  char c;
  ASSERT_EQ(::recv(fds[0], &c, 1, 0), 1);
  EXPECT_EQ(reactor.wait(0.0, events), 0u);

  reactor.remove(fds[0]);
  reactor.remove(fds[1]);
  EXPECT_EQ(reactor.watched(), 0u);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST_P(ReactorBackends, PeerHangupSurfacesOnWait) {
  Reactor reactor(GetParam());
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  reactor.add(fds[0], true, false, nullptr);
  ::close(fds[1]);

  // Orderly hangup reports at least readable (read drains to EOF); epoll
  // may add the broken flag. Either way the caller reaches EOF.
  std::vector<Reactor::Event> events;
  ASSERT_EQ(reactor.wait(1.0, events), 1u);
  EXPECT_TRUE(events[0].readable || events[0].broken);
  reactor.remove(fds[0]);
  ::close(fds[0]);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, ReactorBackends,
                         ::testing::Values(Reactor::Backend::kEpoll,
                                           Reactor::Backend::kPoll),
                         [](const auto& info) {
                           return std::string(
                               Reactor::to_string(info.param));
                         });

// ---- Connection handshake through the server ----

class EventLoopBackends
    : public ::testing::TestWithParam<Reactor::Backend> {};

TEST_P(EventLoopBackends, HelloIdentifiesAndMessagesRoundTrip) {
  EventLoopOptions options;
  options.backend = GetParam();
  EventLoopServer server(net::server_id(0), options);
  const transport::FrameCodec codec;

  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  server.adopt(fds[1]);
  EXPECT_EQ(server.connection_count(), 1u);
  EXPECT_EQ(server.identified_count(), 0u);

  // Hello and the first upload ride in together — the bytes behind the
  // hello must decode as normal traffic, not be dropped with the
  // handshake.
  write_frame(fds[0], hello_from(3), codec);
  write_frame(fds[0], upload_from(3, 0, 16), codec);

  const auto m = server.receive(5.0);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->kind, net::MessageKind::kModelUpload);
  EXPECT_EQ(m->from, net::client_id(3));
  EXPECT_EQ(m->payload, upload_from(3, 0, 16).payload);
  EXPECT_EQ(server.identified_count(), 1u);

  // Downstream: a broadcast reaches the identified peer's socket.
  net::Message broadcast;
  broadcast.from = net::server_id(0);
  broadcast.to = net::client_id(3);
  broadcast.kind = net::MessageKind::kModelBroadcast;
  broadcast.round = 0;
  broadcast.payload = {1.0f, 2.0f, 3.0f};
  server.send(broadcast);
  ASSERT_TRUE(server.flush(5.0));
  const net::Message echoed = read_frame(fds[0], codec);
  EXPECT_EQ(echoed.kind, net::MessageKind::kModelBroadcast);
  EXPECT_EQ(echoed.payload, broadcast.payload);

  // Hello traffic is control-billed, never surfaced to the protocol.
  const auto received = server.stats().total_received();
  EXPECT_EQ(received.control_messages, 1u);
  EXPECT_EQ(received.messages, 1u);
  ::close(fds[0]);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, EventLoopBackends,
                         ::testing::Values(Reactor::Backend::kEpoll,
                                           Reactor::Backend::kPoll),
                         [](const auto& info) {
                           return std::string(
                               Reactor::to_string(info.param));
                         });

TEST(EventLoopServer, NonHelloFirstFrameClosesConnection) {
  EventLoopServer server(net::server_id(0), EventLoopOptions{});
  const transport::FrameCodec codec;
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  server.adopt(fds[1]);

  write_frame(fds[0], upload_from(0, 0, 8), codec);  // skipped handshake
  EXPECT_FALSE(server.receive(0.3).has_value());
  EXPECT_EQ(server.connection_count(), 0u);
  EXPECT_EQ(server.identified_count(), 0u);
  // The peer observes the close as EOF.
  std::uint8_t byte;
  EXPECT_EQ(::recv(fds[0], &byte, 1, 0), 0);
  ::close(fds[0]);
}

TEST(EventLoopServer, HalfOpenConnectionIsReapedAfterTimeout) {
  EventLoopOptions options;
  options.handshake_timeout_seconds = 0.2;
  EventLoopServer server(net::server_id(0), options);
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  server.adopt(fds[1]);  // never sends its hello

  EXPECT_FALSE(server.receive(0.6).has_value());
  EXPECT_EQ(server.connection_count(), 0u);
  EXPECT_EQ(server.half_open_closed(), 1u);
  ::close(fds[0]);
}

TEST(EventLoopServer, SendToUnknownPeerIsCountedDrop) {
  EventLoopServer server(net::server_id(0), EventLoopOptions{});
  net::Message m;
  m.from = net::server_id(0);
  m.to = net::client_id(42);  // never connected
  m.kind = net::MessageKind::kModelBroadcast;
  m.payload = {1.0f};
  server.send(m);
  EXPECT_EQ(server.dropped_sends(), 1u);
  EXPECT_EQ(server.stats().total_sent().messages, 0u);  // not billed
}

TEST(EventLoopServer, InjectedCorruptionIsCountedAndDroppedByClient) {
  EventLoopOptions options;
  options.corrupt_rate = 1.0;  // every data frame
  options.corrupt_seed = 5;
  EventLoopServer server(net::server_id(0), options);
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  server.adopt(fds[1]);
  auto client = transport::SocketTransport::from_connected_fd(
      net::client_id(0), net::server_id(0), fds[0]);
  client->send(hello_from(0));
  EXPECT_FALSE(server.receive(0.2).has_value());  // hellos never surface
  ASSERT_EQ(server.identified_count(), 1u);

  constexpr std::uint64_t kRounds = 3;
  for (std::uint64_t round = 0; round < kRounds; ++round) {
    net::Message broadcast;
    broadcast.from = net::server_id(0);
    broadcast.to = net::client_id(0);
    broadcast.kind = net::MessageKind::kModelBroadcast;
    broadcast.round = round;
    broadcast.payload.assign(64, 0.5f);
    server.send(broadcast);
    net::Message sync = broadcast;
    sync.kind = net::MessageKind::kRoundSync;
    sync.payload.clear();
    server.send(sync);
  }
  ASSERT_TRUE(server.flush(5.0));

  // Control frames are never corrupted: every round-sync arrives, in
  // order, and no broadcast does.
  for (std::uint64_t round = 0; round < kRounds; ++round) {
    const auto m = client->receive(5.0);
    ASSERT_TRUE(m.has_value()) << "round " << round;
    EXPECT_EQ(m->kind, net::MessageKind::kRoundSync);
    EXPECT_EQ(m->round, round);
  }
  EXPECT_FALSE(client->receive(0.2).has_value());
  const transport::LinkStats received =
      client->stats().received.at(net::server_id(0));
  EXPECT_EQ(received.corrupt_frames, kRounds);
  EXPECT_EQ(received.messages, 0u);
  EXPECT_EQ(received.control_messages, kRounds);
  EXPECT_EQ(server.stats().total_sent().messages, kRounds);  // billed
}

// ---- fd budget probing ----

TEST(EnsureFdBudget, CurrentUsageFitsAndAbsurdRequestErrors) {
  EXPECT_EQ(ensure_fd_budget(8), "");

  // More fds than the hard limit can grant: a one-line actionable error
  // naming the limits and the remedy, not a mid-accept failure later.
  const std::string error = ensure_fd_budget(std::size_t(1) << 40);
  ASSERT_FALSE(error.empty());
  EXPECT_NE(error.find("RLIMIT_NOFILE"), std::string::npos);
  EXPECT_NE(error.find("ulimit -n"), std::string::npos);
  EXPECT_EQ(error.find('\n'), std::string::npos);  // one line
}

// ---- Differential oracle: full protocol, every PS an event loop ----

TEST(EventLoopServer, FullRunMatchesInMemoryBitForBit) {
  fl::WorkloadConfig workload;
  workload.samples = 300;
  workload.model = "mlp";
  workload.mlp_hidden = {8};

  fl::FedMsConfig fed;
  fed.clients = 3;
  fed.servers = 2;
  fed.byzantine = 1;
  fed.rounds = 2;
  fed.local_iterations = 2;
  fed.client_filter = "trmean:0.4";
  fed.attack = "noise";
  fed.eval_every = 1;
  fed.seed = 5;

  transport::InMemoryHub hub;
  const transport::TransportRunSummary reference =
      transport::run_transport_experiment(workload, fed, hub);

  // Servers are event-loop endpoints; clients keep the SocketTransport
  // mesh (their side is 1:P, not K:1 — multiplexing buys nothing there).
  const core::ScratchDir scratch;
  const std::string& dir = scratch.path();
  std::vector<transport::SocketAddress> addresses;
  for (std::size_t p = 0; p < fed.servers; ++p)
    addresses.push_back(transport::SocketAddress::unix_path(
        dir + "/ps" + std::to_string(p) + ".sock"));
  const fl::Workload data = fl::make_workload(workload, fed);

  transport::TransportRunSummary summary;
  summary.clients.resize(fed.clients);
  summary.servers.resize(fed.servers);
  std::vector<std::thread> threads;
  for (std::size_t p = 0; p < fed.servers; ++p) {
    threads.emplace_back([&, p] {
      auto transport =
          EventLoopServer::listen(net::server_id(p), addresses[p]);
      summary.servers[p] =
          transport::run_server_node(*transport, workload, fed, p, 30.0);
      transport->flush(30.0);
    });
  }
  for (std::size_t k = 0; k < fed.clients; ++k) {
    threads.emplace_back([&, k] {
      auto transport = transport::SocketTransport::connect_mesh(
          net::client_id(k), addresses, transport::SocketTransportOptions{});
      summary.clients[k] = transport::run_client_node(*transport, data,
                                                      workload, fed, k, 30.0);
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(summary.mean_accuracy(), reference.mean_accuracy());
  for (std::size_t k = 0; k < fed.clients; ++k)
    EXPECT_EQ(summary.clients[k].model_crc, reference.clients[k].model_crc);
  for (std::size_t p = 0; p < fed.servers; ++p)
    EXPECT_EQ(summary.servers[p].model_crc, reference.servers[p].model_crc);

  const auto totals = summary.data_totals();
  const auto reference_totals = reference.data_totals();
  EXPECT_EQ(totals.uplink_bytes, reference_totals.uplink_bytes);
  EXPECT_EQ(totals.uplink_messages, reference_totals.uplink_messages);
  EXPECT_EQ(totals.downlink_bytes, reference_totals.downlink_bytes);
  EXPECT_EQ(totals.downlink_messages, reference_totals.downlink_messages);
}

}  // namespace
}  // namespace fedms::eventloop
