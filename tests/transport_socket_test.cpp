// Socket transport: framing over real kernel sockets, connect backoff and
// CRC rejection of in-transit corruption. The full multi-node run over
// real sockets (clients on SocketTransport, every PS an EventLoopServer) is
// pinned against the in-memory reference in eventloop_test.
#include "transport/socket_transport.h"

#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <thread>

#include "core/scratch_dir.h"
#include "eventloop/server.h"
#include "transport/frame.h"

namespace fedms::transport {
namespace {

TEST(SocketAddress, ParsesAndPrints) {
  const SocketAddress unix_addr = SocketAddress::parse("unix:/tmp/x.sock");
  EXPECT_EQ(unix_addr.kind, SocketAddress::Kind::kUnix);
  EXPECT_EQ(unix_addr.path, "/tmp/x.sock");
  EXPECT_EQ(unix_addr.to_string(), "unix:/tmp/x.sock");

  const SocketAddress tcp_addr = SocketAddress::parse("tcp:127.0.0.1:9000");
  EXPECT_EQ(tcp_addr.kind, SocketAddress::Kind::kTcp);
  EXPECT_EQ(tcp_addr.host, "127.0.0.1");
  EXPECT_EQ(tcp_addr.port, 9000);
  EXPECT_EQ(tcp_addr.to_string(), "tcp:127.0.0.1:9000");

  EXPECT_THROW(SocketAddress::parse("bogus"), std::runtime_error);
  EXPECT_THROW(SocketAddress::parse("tcp:nohost"), std::runtime_error);
  EXPECT_THROW(SocketAddress::parse("tcp:1.2.3.4:0"), std::runtime_error);
}

// A connected socketpair wrapped in two transports — the backend minus
// listen/connect.
struct Pair {
  std::unique_ptr<SocketTransport> client;
  std::unique_ptr<SocketTransport> server;
};

Pair make_pair_transports(SocketTransportOptions client_options = {},
                          SocketTransportOptions server_options = {}) {
  int fds[2];
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  Pair pair;
  pair.client = SocketTransport::from_connected_fd(
      net::client_id(0), net::server_id(0), fds[0], client_options);
  pair.server = SocketTransport::from_connected_fd(
      net::server_id(0), net::client_id(0), fds[1], server_options);
  return pair;
}

net::Message upload(std::size_t dim, std::uint64_t round = 0) {
  net::Message m;
  m.from = net::client_id(0);
  m.to = net::server_id(0);
  m.kind = net::MessageKind::kModelUpload;
  m.round = round;
  for (std::size_t i = 0; i < dim; ++i) m.payload.push_back(float(i) * 0.5f);
  return m;
}

TEST(SocketTransport, RoundTripsMessagesOverSocketpair) {
  Pair pair = make_pair_transports();
  for (std::uint64_t round = 0; round < 5; ++round)
    pair.client->send(upload(100 + std::size_t(round), round));

  for (std::uint64_t round = 0; round < 5; ++round) {
    const auto m = pair.server->receive(5.0);
    ASSERT_TRUE(m.has_value()) << "round " << round;
    EXPECT_EQ(m->round, round);  // FIFO per link
    EXPECT_EQ(m->payload.size(), 100 + std::size_t(round));
    EXPECT_EQ(m->payload, upload(100 + std::size_t(round), round).payload);
  }
  EXPECT_FALSE(pair.server->receive(0.05).has_value());

  // Byte accounting matches the simulated wire_size on both ends.
  const auto sent = pair.client->stats().total_sent();
  const auto received = pair.server->stats().total_received();
  EXPECT_EQ(sent.messages, 5u);
  EXPECT_EQ(sent.bytes, received.bytes);
  std::uint64_t expected = 0;
  for (std::uint64_t round = 0; round < 5; ++round)
    expected += net::wire_size(upload(100 + std::size_t(round), round));
  EXPECT_EQ(sent.bytes, expected);
}

TEST(SocketTransport, LargePayloadSurvivesPartialWrites) {
  Pair pair = make_pair_transports();
  const net::Message big = upload(1 << 20);  // 4 MiB payload
  // A reader thread drains while the writer loops on EAGAIN — neither
  // side's nonblocking loop may drop or reorder bytes.
  std::thread writer([&] { pair.client->send(big); });
  const auto m = pair.server->receive(30.0);
  writer.join();
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->payload, big.payload);
}

TEST(SocketTransport, CorruptedFrameIsCountedAndDropped) {
  SocketTransportOptions corrupting;
  corrupting.corrupt_rate = 1.0;  // every data frame
  corrupting.corrupt_seed = 5;
  Pair pair = make_pair_transports(corrupting);

  pair.client->send(upload(50));
  EXPECT_FALSE(pair.server->receive(0.3).has_value());
  EXPECT_EQ(
      pair.server->stats().received.at(net::client_id(0)).corrupt_frames,
      1u);

  // Control frames are never corrupted; the stream stays usable.
  net::Message sync;
  sync.from = net::client_id(0);
  sync.to = net::server_id(0);
  sync.kind = net::MessageKind::kRoundSync;
  sync.round = 9;
  pair.client->send(sync);
  const auto m = pair.server->receive(5.0);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->kind, net::MessageKind::kRoundSync);
  EXPECT_EQ(m->round, 9u);
}

TEST(SocketTransport, HangupSurfacesAsTimeout) {
  Pair pair = make_pair_transports();
  pair.client.reset();  // closes the fd
  EXPECT_FALSE(pair.server->receive(0.5).has_value());
}

TEST(SocketTransport, SendToCrashedPeerThrowsInsteadOfSigpipe) {
  // Keep SIGPIPE at its fatal default disposition: if any send site lacked
  // MSG_NOSIGNAL the kernel would kill this process right here instead of
  // letting send() surface EPIPE as an exception.
  std::signal(SIGPIPE, SIG_DFL);
  Pair pair = make_pair_transports();
  pair.server.reset();  // the peer "crashes": its fd is closed
  EXPECT_THROW(
      {
        for (int i = 0; i < 64; ++i) pair.client->send(upload(1 << 12));
      },
      std::runtime_error);
  // The peer is latched closed — later sends fail fast, same exception.
  EXPECT_THROW(pair.client->send(upload(4)), std::runtime_error);
}

TEST(SocketTransport, CrashMidFrameNeverDeliversTornFrame) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  auto receiver = SocketTransport::from_connected_fd(
      net::server_id(0), net::client_id(0), fds[1],
      SocketTransportOptions{});

  // A well-formed frame cut off mid-payload by the sender's crash: the
  // receiver must treat the truncated tail as silence, never as a message.
  const FrameCodec codec;
  const std::vector<std::uint8_t> frame = codec.encode(upload(256));
  const std::size_t half = frame.size() / 2;
  ASSERT_EQ(::send(fds[0], frame.data(), half, MSG_NOSIGNAL),
            ssize_t(half));
  ::close(fds[0]);  // the rest of the frame never arrives

  EXPECT_FALSE(receiver->receive(0.5).has_value());
  EXPECT_EQ(receiver->stats().total_received().messages, 0u);
}

TEST(SocketTransport, DesynchronizedStreamThrowsAfterGoodFrame) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  auto receiver = SocketTransport::from_connected_fd(
      net::server_id(0), net::client_id(0), fds[1],
      SocketTransportOptions{});

  // An intact frame is delivered...
  const std::vector<std::uint8_t> frame = FrameCodec().encode(upload(16));
  ASSERT_EQ(::send(fds[0], frame.data(), frame.size(), MSG_NOSIGNAL),
            ssize_t(frame.size()));
  const auto m = receiver->receive(5.0);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->payload, upload(16).payload);

  // ...then a full header's worth of bytes with a bad magic: the client
  // cannot find the next frame boundary, so the stream is fatal.
  const std::vector<std::uint8_t> garbage(kFrameHeaderBytes, 0xAB);
  ASSERT_EQ(::send(fds[0], garbage.data(), garbage.size(), MSG_NOSIGNAL),
            ssize_t(garbage.size()));
  try {
    receiver->receive(5.0);
    FAIL() << "a desynchronized stream must throw";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("desynchronized"),
              std::string::npos)
        << error.what();
  }
  ::close(fds[0]);
}

TEST(SocketTransport, FramesAheadOfDesyncAreDeliveredBeforeTheThrow) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  auto receiver = SocketTransport::from_connected_fd(
      net::server_id(0), net::client_id(0), fds[1],
      SocketTransportOptions{});

  // Two intact frames and the garbage behind them land in one read.
  const FrameCodec codec;
  std::vector<std::uint8_t> bytes;
  for (std::uint64_t round = 0; round < 2; ++round) {
    const std::vector<std::uint8_t> frame = codec.encode(upload(8, round));
    bytes.insert(bytes.end(), frame.begin(), frame.end());
  }
  bytes.insert(bytes.end(), kFrameHeaderBytes, 0xAB);
  ASSERT_EQ(::send(fds[0], bytes.data(), bytes.size(), MSG_NOSIGNAL),
            ssize_t(bytes.size()));

  for (std::uint64_t round = 0; round < 2; ++round) {
    const auto m = receiver->receive(5.0);
    ASSERT_TRUE(m.has_value()) << "round " << round;
    EXPECT_EQ(m->round, round);
  }
  EXPECT_THROW(receiver->receive(5.0), std::runtime_error);
  // The desynchronized stream is closed: later waits time out.
  EXPECT_FALSE(receiver->receive(0.05).has_value());
  ::close(fds[0]);
}

TEST(SocketTransport, ConnectRetriesUntilListenerIsUp) {
  const core::ScratchDir scratch;
  const std::string& dir = scratch.path();
  const SocketAddress address = SocketAddress::unix_path(dir + "/ps0.sock");

  SocketTransportOptions options;
  options.connect_backoff = runtime::Backoff{0.02, 2.0, 12};

  // Client starts FIRST; the listener comes up shortly after. The bounded
  // exponential backoff must bridge the gap.
  std::unique_ptr<SocketTransport> client;
  std::thread connector([&] {
    client = SocketTransport::connect_mesh(net::client_id(0), {address},
                                           options);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  // The kernel completes connects against the listen backlog; the server
  // accepts them (and reads the hello) inside receive().
  auto server = eventloop::EventLoopServer::listen(net::server_id(0), address);
  connector.join();

  ASSERT_NE(client, nullptr);
  client->send(upload(8));
  const auto m = server->receive(5.0);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->payload.size(), 8u);
}

TEST(SocketTransport, ExhaustedBackoffThrows) {
  SocketTransportOptions options;
  options.connect_backoff = runtime::Backoff{0.01, 2.0, 3};
  EXPECT_THROW(
      SocketTransport::connect_mesh(
          net::client_id(0),
          {SocketAddress::unix_path("/tmp/fedms-nonexistent-xyz.sock")},
          options),
      std::runtime_error);
}

TEST(SocketTransport, ShortWritesNeverTearFrames) {
  // max_send_chunk = 7 forces every send() through the short-write path:
  // each syscall moves at most 7 bytes, so a frame of any size is
  // reassembled from dozens of partial writes. Payload sizes probe the
  // header/payload/trailer boundaries.
  SocketTransportOptions dribbling;
  dribbling.max_send_chunk = 7;
  Pair pair = make_pair_transports(dribbling);

  std::thread writer([&] {
    for (std::uint64_t round = 0; round < 4; ++round)
      pair.client->send(upload(1 + (std::size_t(round) << 9), round));
  });
  for (std::uint64_t round = 0; round < 4; ++round) {
    const auto m = pair.server->receive(10.0);
    ASSERT_TRUE(m.has_value()) << "round " << round;
    EXPECT_EQ(m->round, round);
    EXPECT_EQ(m->payload,
              upload(1 + (std::size_t(round) << 9), round).payload);
  }
  writer.join();
  EXPECT_EQ(pair.server->stats().total_received().corrupt_frames, 0u);
}

TEST(SocketTransport, SyscallLoopsSurviveEintrStorm) {
  // An interval timer without SA_RESTART makes every blocking syscall in
  // this process eligible for EINTR. The read/write/poll loops must
  // retry — under the storm a large round-trip still lands intact.
  struct sigaction action{};
  action.sa_handler = [](int) {};
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // deliberately no SA_RESTART
  struct sigaction old_action{};
  ASSERT_EQ(::sigaction(SIGALRM, &action, &old_action), 0);
  itimerval storm{};
  storm.it_interval.tv_usec = 2000;  // every 2 ms
  storm.it_value.tv_usec = 2000;
  ASSERT_EQ(::setitimer(ITIMER_REAL, &storm, nullptr), 0);

  Pair pair = make_pair_transports();
  const net::Message big = upload(1 << 19);  // 2 MiB: many syscalls
  std::thread writer([&] { pair.client->send(big); });
  const auto m = pair.server->receive(30.0);
  writer.join();

  const itimerval off{};
  ASSERT_EQ(::setitimer(ITIMER_REAL, &off, nullptr), 0);
  ASSERT_EQ(::sigaction(SIGALRM, &old_action, nullptr), 0);

  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->payload, big.payload);
  EXPECT_EQ(pair.server->stats().total_received().corrupt_frames, 0u);
}

}  // namespace
}  // namespace fedms::transport
