// Per-connection state machine for the event-loop server runtime.
//
// Lifecycle:  kHandshake --hello--> kActive --EOF/error/evict--> kClosed
//
//   * kHandshake — accepted but unidentified. The first complete frame
//     must be a kHello naming the peer; anything else (or a corrupt
//     hello) closes the connection. Bytes that rode in behind the hello
//     (the peer's first round may already be in flight) stay buffered
//     and decode as normal traffic.
//   * kActive    — identified; inbound bytes are framed and decoded,
//     outbound frames queue in a bounded send queue drained on
//     writability (EPOLLOUT). CRC-rejected frames are counted and
//     skipped; a desynchronized stream (bad magic/version) closes the
//     connection — on a multiplexed server one broken peer must never
//     take the process down (a client's SocketTransport throws instead).
//   * kClosed    — terminal; the owner deregisters and closes the fd.
//
// The class owns the fd and its buffers but performs no event
// registration — the server drives it from reactor readiness and applies
// policy (backpressure caps, idle/handshake timeouts, eviction).
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "net/message.h"
#include "transport/frame.h"

namespace fedms::eventloop {

class Connection {
 public:
  enum class State { kHandshake, kActive, kClosed };

  Connection(int fd, std::uint64_t now_ns);
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  int fd() const { return fd_; }
  State state() const { return state_; }
  bool closed() const { return state_ == State::kClosed; }
  // Valid once kActive (set by the hello frame).
  const net::NodeId& peer() const { return peer_; }

  // Timestamps for the server's timeout sweeps: when the connection was
  // accepted, and when it last made I/O progress in either direction.
  std::uint64_t accepted_ns() const { return accepted_ns_; }
  std::uint64_t last_progress_ns() const { return last_progress_ns_; }

  struct ReadResult {
    bool identified = false;  // this read completed the handshake
    std::size_t corrupt_frames = 0;
    std::vector<net::Message> messages;
    // Set when the connection transitioned to kClosed during this read:
    // "eof" (orderly hangup), or a protocol reason (desync, bad hello).
    const char* closed_reason = nullptr;
  };

  // Drains readable bytes (nonblocking) and decodes complete frames.
  // Handles the handshake transition internally.
  ReadResult on_readable(const transport::FrameCodec& codec,
                         std::uint64_t now_ns);

  // Queues one encoded frame. Returns false — without queueing — when
  // the queue already holds >= `cap_bytes` (the backpressure signal; the
  // caller decides whether to wait, retry, or evict). cap_bytes == 0
  // means unbounded.
  bool enqueue(std::vector<std::uint8_t> frame, std::size_t cap_bytes);

  // Writes queued bytes until EAGAIN or the queue empties (nonblocking,
  // MSG_NOSIGNAL, EINTR-retried). A send error closes the connection.
  void on_writable(std::uint64_t now_ns);

  bool wants_write() const { return !tx_.empty() && !closed(); }
  std::size_t queued_bytes() const { return tx_bytes_; }

  // Closes the fd and drops all buffered state. Idempotent.
  void close();

 private:
  int fd_;
  State state_ = State::kHandshake;
  net::NodeId peer_;
  std::uint64_t accepted_ns_;
  std::uint64_t last_progress_ns_;
  std::vector<std::uint8_t> rx_;
  std::deque<std::vector<std::uint8_t>> tx_;
  std::size_t tx_front_offset_ = 0;  // bytes of tx_.front() already sent
  std::size_t tx_bytes_ = 0;
};

}  // namespace fedms::eventloop
