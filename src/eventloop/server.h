// Event-loop server runtime: one process, one thread, thousands of
// clients.
//
// EventLoopServer is a `transport::Transport` and the one listening side
// of every socket run: the bit-for-bit protocol engine in
// src/transport/node_runner.* runs against it unchanged, and the same
// differential oracles pin it against the in-memory reference. Each
// client link is a PS-role transport::Connection, the framed stream a
// client's transport::SocketTransport runs in the client role; this
// endpoint multiplexes them all over a single epoll/poll reactor with
// nonblocking I/O:
//
//   * receive() services the reactor until a decoded message is
//     available: accepts, per-connection reads, frame extraction, and
//     EPOLLOUT-driven drains all happen inside the caller's wait.
//   * send() encodes and queues the frame on the destination connection
//     (bounded queue, see below) with an opportunistic inline drain; the
//     reactor's write interest is armed only while a queue is non-empty.
//
// Backpressure: each connection's send queue is capped at
// `max_queue_bytes` (high-water mark — one frame may overshoot). A send
// to a full queue services the loop until the reader drains room; a
// reader that makes no progress for `drain_stall_seconds` is evicted
// (counted in `evicted_slow`) and the message dropped, so one slow
// client can never wedge a 10k-client round.
//
// Churn: connections identify with a kHello frame (handshake state). A
// hello for an already-identified peer replaces the old connection
// (rejoin — counted), and previously received messages are retained, so
// disconnect + reconnect within a round loses only in-flight frames.
// Handshake connections older than `handshake_timeout_seconds` are
// half-open casualties and get reaped; `idle_timeout_seconds` (default
// off) does the same for silent identified peers. Sends to absent or
// closed peers are silently dropped and counted (`dropped_sends`) — on a
// multiplexed server a vanished client is routine, not fatal.
//
// Fault injection: `corrupt_rate` flips one payload bit of a sent data
// frame (transport::inject_corruption), the PS->client half of the
// transit corruption SocketTransport injects client->PS.
//
// Threading: single-threaded by design; the protocol engine drives
// send/receive from one thread and the reactor does the multiplexing.
// CPU-heavy aggregation parallelism lives in fl::set_aggregation_pool,
// not here.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/rng.h"
#include "eventloop/reactor.h"
#include "transport/connection.h"
#include "transport/socket_transport.h"
#include "transport/transport.h"

namespace fedms::eventloop {

struct EventLoopOptions {
  Reactor::Backend backend = Reactor::default_backend();
  // Per-connection send-queue high-water mark; 0 = unbounded.
  std::size_t max_queue_bytes = std::size_t(4) << 20;
  // A full queue that drains nothing for this long evicts the reader.
  double drain_stall_seconds = 10.0;
  // Unidentified connections older than this are reaped as half-open.
  double handshake_timeout_seconds = 10.0;
  // Identified connections silent for this long are reaped; 0 = off
  // (the round barrier already bounds how long a healthy client is quiet).
  double idle_timeout_seconds = 0.0;
  // Transit corruption injection (sent data frames only); 0 = off.
  double corrupt_rate = 0.0;
  std::uint64_t corrupt_seed = 0;
};

class EventLoopServer final : public transport::Transport {
 public:
  // Endpoint with no listener: connections arrive via adopt() (tests,
  // socketpair harnesses).
  EventLoopServer(const net::NodeId& self, const EventLoopOptions& options);
  // Binds + listens on `address` and accepts (and re-accepts, for churn)
  // for the lifetime of the endpoint.
  static std::unique_ptr<EventLoopServer> listen(
      const net::NodeId& self, const transport::SocketAddress& address,
      const EventLoopOptions& options = {});

  ~EventLoopServer() override;

  net::NodeId self() const override { return self_; }
  void send(net::Message message) override;
  std::optional<net::Message> receive(double timeout_seconds) override;
  const transport::EndpointStats& stats() const override { return stats_; }
  // From the peer's latest kHello (a rejoin's hello replaces the old
  // announcement); "f32" for peers that never announced one.
  std::string peer_encoding(const net::NodeId& peer) const override;

  // Adopts an already-connected fd as an unidentified (handshake-state)
  // connection — it still must hello like an accepted one.
  void adopt(int fd);

  // One reactor turn: waits up to `timeout_seconds`, services accepts,
  // reads, writes, and timeout sweeps. Returns the number of readiness
  // events handled. receive()/send() call this internally; tests and the
  // flush path call it directly.
  std::size_t poll_once(double timeout_seconds);

  // Services the loop until every send queue is empty (all broadcasts on
  // the wire) or `timeout_seconds` elapses. Returns true when drained.
  // The destructor flushes too, so a server that returns from its last
  // round cannot strand final-round frames in user space.
  bool flush(double timeout_seconds = 10.0);

  Reactor::Backend backend() const { return reactor_.backend(); }
  std::size_t connection_count() const { return conns_.size(); }
  std::size_t identified_count() const { return by_peer_.size(); }
  std::uint64_t dropped_sends() const { return dropped_sends_; }
  std::uint64_t evicted_slow() const { return evicted_slow_; }
  std::uint64_t rejoins() const { return rejoins_; }
  std::uint64_t half_open_closed() const { return half_open_closed_; }
  std::uint64_t idle_closed() const { return idle_closed_; }

 private:
  transport::Connection* identified(const net::NodeId& peer);
  void accept_ready();
  void handle_event(const Reactor::Event& event);
  void bind_peer(transport::Connection* conn);
  // Deregisters, closes, and forgets the connection owning `fd`.
  void reap(int fd);
  void sweep_timeouts(std::uint64_t now);
  // Backpressure wait: services the loop until `to`'s queue has room.
  // Returns nullptr when the peer vanished or was evicted for stalling.
  transport::Connection* wait_for_room(const net::NodeId& to);

  net::NodeId self_;
  EventLoopOptions options_;
  transport::FrameCodec codec_;
  core::Rng corrupt_rng_;
  Reactor reactor_;
  int listener_fd_ = -1;
  transport::SocketAddress address_;
  bool unlink_on_close_ = false;

  // Keyed by fd; by_peer_ holds the identified ones only.
  std::map<int, std::unique_ptr<transport::Connection>> conns_;
  std::map<net::NodeId, transport::Connection*> by_peer_;
  std::map<net::NodeId, std::string> peer_encodings_;  // from hellos
  std::deque<net::Message> inbox_;
  transport::EndpointStats stats_;
  std::vector<Reactor::Event> events_;  // wait() scratch
  std::uint64_t last_sweep_ns_ = 0;

  std::uint64_t dropped_sends_ = 0;
  std::uint64_t evicted_slow_ = 0;
  std::uint64_t rejoins_ = 0;
  std::uint64_t half_open_closed_ = 0;
  std::uint64_t idle_closed_ = 0;
};

// Probes RLIMIT_NOFILE for `required` descriptors, raising the soft limit
// toward the hard limit when needed. Returns "" on success, else a
// one-line actionable error naming the current and required limits — the
// caller should fail fast instead of dying mid-accept.
std::string ensure_fd_budget(std::size_t required);

}  // namespace fedms::eventloop
