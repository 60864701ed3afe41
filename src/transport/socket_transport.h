// Socket-backed Transport: the client side of the Fed-MS protocol over
// real process boundaries — Unix-domain sockets or localhost TCP,
// nonblocking I/O.
//
// Topology: every parameter server listens (eventloop::EventLoopServer,
// the one PS endpoint); every client connects to every PS, retrying with
// the runtime's bounded exponential backoff (runtime::Backoff) while the
// listener comes up, and identifies itself with a kHello frame.
//
// Each PS link is one client-role transport::Connection, the framed
// stream the PS side runs too. receive() drives them from one poll()
// loop; send() queues a frame and waits on POLLOUT until it is written.
// The client's policy on what a Connection reports:
//   * A CRC-rejected frame is counted in stats and dropped; the stream
//     stays usable. The protocol sees a missing message — the fault the
//     trimmed-mean fallback absorbs.
//   * A desynchronized stream (bad magic/version) or an undecodable frame
//     throws std::runtime_error, after the messages that arrived intact
//     ahead of it have been received.
//   * A hangup drops that PS from the poll set, so waits on it time out
//     (receive() returns nullopt); a send to a closed PS throws.
//
// `corrupt_rate` injects transit corruption for tests/experiments
// (transport::inject_corruption).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "runtime/policy.h"
#include "transport/connection.h"
#include "transport/transport.h"

namespace fedms::transport {

struct SocketAddress {
  enum class Kind { kUnix, kTcp };
  Kind kind = Kind::kUnix;
  std::string path;  // kUnix: filesystem path (<= ~100 chars)
  std::string host;  // kTcp
  std::uint16_t port = 0;

  static SocketAddress unix_path(std::string path);
  static SocketAddress tcp(std::string host, std::uint16_t port);
  // "unix:<path>" or "tcp:<host>:<port>". Throws std::runtime_error on a
  // malformed spec.
  static SocketAddress parse(const std::string& spec);
  std::string to_string() const;
};

// Low-level socket helpers shared by SocketTransport and the event-loop
// runtime (src/eventloop). All throw std::runtime_error on failure.
void set_nonblocking(int fd);
void set_nodelay(int fd);  // TCP_NODELAY; no-op on non-TCP sockets
// Creates, binds, and listens a nonblocking socket on `address` (unlinking
// a stale unix path first). Returns the listener fd.
int make_listener(const SocketAddress& address, int backlog);
// Connects a new blocking socket to `address`, retrying with `backoff`
// while the listener comes up. EINTR-correct: an interrupted connect()
// keeps establishing in the background, so completion is awaited via
// POLLOUT + SO_ERROR rather than retried (a retry would fail EALREADY).
int connect_with_retry(const SocketAddress& address,
                       const runtime::Backoff& backoff);

struct SocketTransportOptions {
  // Wire-encoding spec announced in our kHello frames (connect_mesh):
  // the encoding we want broadcasts to us in. "f32" = no announcement.
  std::string wire_encoding = "f32";
  // Connect retry while the listener comes up.
  runtime::Backoff connect_backoff{0.05, 2.0, 10};
  // Transit corruption injection (sender side, data frames only).
  double corrupt_rate = 0.0;
  std::uint64_t corrupt_seed = 0;
  // Test hook: cap each send() syscall to this many bytes (0 = off),
  // forcing the short-write resume path that real sockets only hit under
  // buffer pressure.
  std::size_t max_send_chunk = 0;
};

class SocketTransport final : public Transport {
 public:
  // Client side: connect to servers[s] for every PS index s (retrying
  // with options.connect_backoff) and send hellos.
  static std::unique_ptr<SocketTransport> connect_mesh(
      const net::NodeId& self, const std::vector<SocketAddress>& servers,
      const SocketTransportOptions& options);

  // Adopts an already-connected socket (tests/bench: socketpair()).
  static std::unique_ptr<SocketTransport> from_connected_fd(
      const net::NodeId& self, const net::NodeId& peer, int fd,
      const SocketTransportOptions& options = {});

  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

  net::NodeId self() const override { return self_; }
  void send(net::Message message) override;
  std::optional<net::Message> receive(double timeout_seconds) override;
  const EndpointStats& stats() const override { return stats_; }

 private:
  SocketTransport(const net::NodeId& self,
                  const SocketTransportOptions& options);

  net::NodeId self_;
  SocketTransportOptions options_;
  FrameCodec codec_;
  core::Rng corrupt_rng_;
  std::map<net::NodeId, Connection> conns_;  // one per PS, client role
  std::deque<net::Message> inbox_;
  // A closed stream's reason, thrown once inbox_ has drained.
  std::string stream_error_;
  EndpointStats stats_;
};

}  // namespace fedms::transport
