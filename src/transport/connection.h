// One framed socket stream, the state machine behind both socket
// endpoints: every PS's eventloop::EventLoopServer and every client's
// SocketTransport.
//
//   PS role:     kHandshake --hello--> kActive --EOF/error/evict--> kClosed
//   client role:                       kActive --EOF/error---------> kClosed
//
//   * kHandshake — accepted but unidentified. The first complete frame
//     must be a kHello naming the peer; anything else (or a corrupt
//     hello) closes the connection. Bytes that rode in behind the hello
//     (the peer's first round may already be in flight) stay buffered
//     and decode as normal traffic.
//   * kActive    — identified (a client knows the PS it dialled, so it
//     starts here). Inbound bytes are framed and decoded; outbound frames
//     queue until the socket is writable. CRC-rejected frames are counted
//     and skipped; a desynchronized stream (bad magic/version) or an
//     undecodable frame closes the connection with that reason.
//   * kClosed    — terminal; the fd is closed and the buffers dropped.
//
// The class owns the fd and its buffers but registers and waits for
// nothing: its owner drives it from readiness and applies policy —
// backpressure, timeouts, eviction, and what a close means (the PS reaps
// just that peer, the client throws on a damaged stream).
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "net/message.h"
#include "transport/frame.h"

namespace fedms::transport {

struct EndpointStats;

class Connection {
 public:
  enum class State { kHandshake, kActive, kClosed };

  // PS role: an accepted connection that must hello first.
  Connection(int fd, std::uint64_t now_ns);
  // Client role. `max_send_chunk` caps each send() syscall (0 = off): a
  // test hook forcing the short-write resume path.
  Connection(int fd, const net::NodeId& peer, std::uint64_t now_ns,
             std::size_t max_send_chunk);
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  int fd() const { return fd_; }
  State state() const { return state_; }
  bool closed() const { return state_ == State::kClosed; }
  // Valid once kActive.
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
    // Messages decoded before the close are still in `messages`.
    const char* closed_reason = nullptr;
  };

  // Drains readable bytes (nonblocking) and decodes complete frames.
  // Handles the handshake transition internally. Reads go straight into
  // the receive buffer, which holds about one partial frame plus one read.
  ReadResult on_readable(const FrameCodec& codec, std::uint64_t now_ns);

  // Queues one encoded frame; a closed connection drops it. Backpressure
  // is the owner's policy, read off queued_bytes().
  void enqueue(std::vector<std::uint8_t> frame);

  // Writes queued bytes until EAGAIN or the queue empties (nonblocking,
  // MSG_NOSIGNAL, EINTR-retried). A send error closes the connection.
  void on_writable(std::uint64_t now_ns);

  // Bytes allocated for receiving: at most one largest frame plus one
  // 4 KiB page.
  std::size_t receive_buffer_bytes() const { return rx_.size(); }

  bool wants_write() const { return !tx_.empty() && !closed(); }
  std::size_t queued_bytes() const { return tx_bytes_; }

  // Closes the fd and drops all buffered state. Idempotent.
  void close();

 private:
  // Spare bytes at rx_'s end for the next recv, made by compacting the
  // unread tail to the front or growing; returns how many.
  std::size_t make_read_room();
  // Decodes every complete buffered frame into `result`. Returns false
  // when stream damage closed the connection.
  bool decode_buffered(const FrameCodec& codec, ReadResult& result);

  int fd_;
  State state_ = State::kHandshake;
  net::NodeId peer_;
  std::uint64_t accepted_ns_;
  std::uint64_t last_progress_ns_;
  std::size_t max_send_chunk_ = 0;
  // Received bytes: [rx_begin_, rx_end_) is unread, [rx_end_, size) is
  // spare room the next recv writes into.
  std::vector<std::uint8_t> rx_;
  std::size_t rx_begin_ = 0;
  std::size_t rx_end_ = 0;
  std::deque<std::vector<std::uint8_t>> tx_;
  std::size_t tx_front_offset_ = 0;  // bytes of tx_.front() already sent
  std::size_t tx_bytes_ = 0;
};

// Delivers a read for either role: bills its corrupt and decoded frames
// to `peer` in `stats` and appends its messages to `inbox`, except hellos
// (connection plumbing: counted as control traffic, never surfaced),
// which are returned for the caller to read their announcements.
std::vector<net::Message> deliver(Connection::ReadResult& result,
                                  const net::NodeId& peer,
                                  EndpointStats& stats,
                                  std::deque<net::Message>& inbox);

}  // namespace fedms::transport
