// Pluggable message transport: the boundary at which the Fed-MS protocol
// stops being a simulation and becomes I/O.
//
// A `Transport` is one node's endpoint: `send()` routes a net::Message to
// its destination, `receive()` blocks for the next inbound message. Two
// backends ship:
//
//   * InMemoryHub / in-memory endpoints — all nodes in one process over
//     the existing net::SimNetwork bus (wrapped in a mutex + condvar so
//     node threads can block on it). Zero-copy, no framing; the reference
//     backend every other one must match bit-for-bit.
//   * Sockets — Unix-domain or localhost TCP with nonblocking I/O; every
//     message is a CRC32C-framed binary frame (transport/frame.h).
//     Clients use SocketTransport (socket_transport.h); every PS is an
//     eventloop::EventLoopServer (src/eventloop/server.h). Both frame
//     each socket with one transport::Connection (connection.h).
//
// Telemetry: every endpoint keeps per-link counters split into *data*
// traffic (model uploads/broadcasts — the bytes the paper's communication
// claims are about, identical to the simulated `wire_size` accounting)
// and *control* traffic (hello/round-sync/retry frames the real protocol
// needs but the round-synchronous simulation never sends). Corrupted
// frames are counted at the receiver and surfaced to the protocol layer
// as a missing message — feeding the trimmed-mean fallback path.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "core/rng.h"
#include "net/message.h"
#include "net/sim_network.h"
#include "transport/frame.h"

namespace fedms::transport {

struct LinkStats {
  std::uint64_t messages = 0;  // data messages (upload/broadcast)
  std::uint64_t bytes = 0;     // framed bytes of data messages
  std::uint64_t control_messages = 0;
  std::uint64_t control_bytes = 0;
  std::uint64_t corrupt_frames = 0;  // CRC/payload-rejected (receive side)

  LinkStats& operator+=(const LinkStats& other);
};

struct EndpointStats {
  std::map<net::NodeId, LinkStats> sent;      // keyed by destination peer
  std::map<net::NodeId, LinkStats> received;  // keyed by source peer

  LinkStats total_sent() const;
  LinkStats total_received() const;

  void count_sent(const net::Message& message, std::size_t framed_bytes);
  void count_received(const net::Message& message, std::size_t framed_bytes);
  void count_corrupt(const net::NodeId& peer);
};

class Transport {
 public:
  virtual ~Transport() = default;

  virtual net::NodeId self() const = 0;

  // Routes `message` toward message.to. Blocks until the message is
  // handed to the backend (queued on the bus / written to the socket).
  virtual void send(net::Message message) = 0;

  // Next inbound message, blocking up to `timeout_seconds`; nullopt on
  // timeout. Corrupted frames never surface here — they are counted in
  // stats() and otherwise behave as if the message was lost.
  virtual std::optional<net::Message> receive(double timeout_seconds) = 0;

  virtual const EndpointStats& stats() const = 0;

  // The wire-encoding spec `peer` announced in its kHello frame — the
  // encoding it wants payloads sent to it in. "f32" when the peer never
  // announced one (or has not yet registered on an in-memory hub), or
  // when this endpoint keeps no announcements (a client's
  // SocketTransport: its peers are PSs, which never hello).
  virtual std::string peer_encoding(const net::NodeId& peer) const {
    (void)peer;
    return "f32";
  }
};

class InMemoryTransport;

// Shared in-process bus: the existing SimNetwork message bus made
// thread-safe, so every node of a run can live on its own thread and the
// protocol engine runs unchanged against either backend. Endpoints must
// not outlive their hub.
class InMemoryHub {
 public:
  InMemoryHub();
  ~InMemoryHub();

  InMemoryHub(const InMemoryHub&) = delete;
  InMemoryHub& operator=(const InMemoryHub&) = delete;

  // Frame-level fault injection, mirroring the socket backend: with
  // probability `rate` a sent data frame is corrupted in transit. CRC32C
  // catches every such corruption (a frame-codec test pins that), so the
  // hub models the outcome directly: the receiver counts a corrupt frame
  // and the message is not delivered.
  void set_corrupt_rate(double rate, std::uint64_t seed);

  // Deterministic-clock mode for the fuzz harness: receive timeouts are
  // stretched to a fixed long deadline so wall-clock jitter (scheduler
  // stalls, sanitizer overhead) can never thin a node's candidate set and
  // branch the protocol. A timeout then means a genuine protocol hang, not
  // a slow machine. Default off — production callers keep real deadlines.
  void set_deterministic(bool on);

  // `wire_encoding` is the spec this endpoint would announce in a kHello
  // on a real transport; other endpoints observe it via peer_encoding().
  std::unique_ptr<InMemoryTransport> make_endpoint(
      const net::NodeId& self, const std::string& wire_encoding = "f32");

  // Direction totals of delivered traffic, as billed by the underlying
  // SimNetwork (control frames included; see EndpointStats for the
  // data/control split).
  net::TrafficStats uplink() const;
  net::TrafficStats downlink() const;

 private:
  friend class InMemoryTransport;

  void detach(InMemoryTransport* endpoint);
  void send_from(InMemoryTransport& sender, net::Message message);
  std::optional<net::Message> receive_for(InMemoryTransport& endpoint,
                                          double timeout_seconds);

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  net::SimNetwork network_;
  std::map<net::NodeId, InMemoryTransport*> endpoints_;
  std::map<net::NodeId, std::string> encodings_;
  double corrupt_rate_ = 0.0;
  core::Rng corrupt_rng_;
  bool deterministic_ = false;
};

class InMemoryTransport final : public Transport {
 public:
  ~InMemoryTransport() override;

  net::NodeId self() const override { return self_; }
  void send(net::Message message) override;
  std::optional<net::Message> receive(double timeout_seconds) override;
  const EndpointStats& stats() const override { return stats_; }
  std::string peer_encoding(const net::NodeId& peer) const override;

 private:
  friend class InMemoryHub;
  InMemoryTransport(InMemoryHub& hub, const net::NodeId& self)
      : hub_(&hub), self_(self) {}

  InMemoryHub* hub_;  // null once detached
  net::NodeId self_;
  std::deque<net::Message> pending_;  // guarded by hub_->mutex_
  EndpointStats stats_;               // guarded by hub_->mutex_
};

}  // namespace fedms::transport
