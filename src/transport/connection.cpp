#include "transport/connection.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <optional>
#include <utility>

#include "transport/transport.h"

namespace fedms::transport {

Connection::Connection(int fd, std::uint64_t now_ns)
    : fd_(fd), accepted_ns_(now_ns), last_progress_ns_(now_ns) {}

Connection::Connection(int fd, const net::NodeId& peer, std::uint64_t now_ns,
                       std::size_t max_send_chunk)
    : fd_(fd),
      state_(State::kActive),
      peer_(peer),
      accepted_ns_(now_ns),
      last_progress_ns_(now_ns),
      max_send_chunk_(max_send_chunk) {}

Connection::~Connection() { close(); }

void Connection::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  state_ = State::kClosed;
  // Frees the receive buffer: a closed client-role connection stays in
  // its SocketTransport's map.
  std::vector<std::uint8_t>().swap(rx_);
  rx_begin_ = rx_end_ = 0;
  tx_.clear();
  tx_front_offset_ = 0;
  tx_bytes_ = 0;
}

Connection::ReadResult Connection::on_readable(const FrameCodec& codec,
                                              std::uint64_t now_ns) {
  ReadResult result;
  if (closed()) return result;

  // Each read lands straight in rx_'s spare tail, and the frames it
  // completes decode in place before the next read.
  bool eof = false;
  for (;;) {
    const std::size_t room = make_read_room();
    const ssize_t n = ::recv(fd_, rx_.data() + rx_end_, room, 0);
    if (n > 0) {
      rx_end_ += std::size_t(n);
      last_progress_ns_ = now_ns;
      if (!decode_buffered(codec, result)) return result;
      if (std::size_t(n) < room) break;
      continue;
    }
    if (n == 0) {
      eof = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    eof = true;  // hard socket error: same handling as hangup
    break;
  }
  if (eof) {
    close();
    result.closed_reason = "eof";
  }
  return result;
}

std::size_t Connection::make_read_room() {
  // One page: a new connection's first reads (a hello) touch no more
  // memory than they fill.
  constexpr std::size_t kMinReadRoom = 4096;
  const std::size_t unread = rx_end_ - rx_begin_;
  // Room for at least one page, or for the rest of a frame whose header
  // is buffered, so one recv can complete it. A header's length is
  // untrusted: the buffer at most doubles per read, so memory follows the
  // bytes that actually arrive.
  std::size_t want = kMinReadRoom;
  const std::optional<std::size_t> frame =
      FrameCodec::frame_size(rx_.data() + rx_begin_, unread);
  if (frame.has_value() && *frame > unread)
    want = std::max(want, std::min(*frame - unread, rx_.size()));
  // Drop the consumed prefix when that is nearly free (less than a header
  // is unread) or the room is short (the unread tail is at most a partial
  // frame), and grow only if that is not enough.
  if (rx_begin_ > 0 &&
      (unread < kFrameHeaderBytes || rx_.size() - rx_end_ < want)) {
    std::memmove(rx_.data(), rx_.data() + rx_begin_, unread);
    rx_begin_ = 0;
    rx_end_ = unread;
  }
  if (rx_.size() - rx_end_ < want) rx_.resize(rx_end_ + want);
  return rx_.size() - rx_end_;
}

bool Connection::decode_buffered(const FrameCodec& codec,
                                 ReadResult& result) {
  // Stream-level damage closes the connection; the owner decides what
  // that means.
  for (;;) {
    const std::uint8_t* data = rx_.data() + rx_begin_;
    const std::size_t unread = rx_end_ - rx_begin_;
    FrameError error = FrameError::kNone;
    const auto size = FrameCodec::frame_size(data, unread, &error);
    if (error != FrameError::kNone) {
      close();
      result.closed_reason = "desynchronized stream";
      return false;
    }
    if (!size.has_value() || unread < *size) return true;
    FrameCodec::DecodeResult decoded = codec.decode(data, *size);
    rx_begin_ += *size;
    if (state_ == State::kHandshake) {
      if (!decoded.ok() ||
          decoded.message.kind != net::MessageKind::kHello) {
        close();
        result.closed_reason = "expected hello frame";
        return false;
      }
      peer_ = decoded.message.from;
      state_ = State::kActive;
      result.identified = true;
      result.messages.push_back(std::move(decoded.message));
      continue;
    }
    if (decoded.ok()) {
      result.messages.push_back(std::move(decoded.message));
    } else if (decoded.error == FrameError::kCrcMismatch ||
               decoded.error == FrameError::kBadPayload) {
      ++result.corrupt_frames;
    } else {
      close();
      result.closed_reason = "undecodable frame";
      return false;
    }
  }
}

void Connection::enqueue(std::vector<std::uint8_t> frame) {
  if (closed()) return;  // silently dropped; the peer is gone
  tx_bytes_ += frame.size();
  tx_.push_back(std::move(frame));
}

void Connection::on_writable(std::uint64_t now_ns) {
  while (!closed() && !tx_.empty()) {
    const std::vector<std::uint8_t>& front = tx_.front();
    const std::size_t remaining = front.size() - tx_front_offset_;
    const std::size_t chunk =
        max_send_chunk_ == 0 ? remaining
                             : std::min(remaining, max_send_chunk_);
    const ssize_t n = ::send(fd_, front.data() + tx_front_offset_, chunk,
                             MSG_NOSIGNAL);
    if (n > 0) {
      last_progress_ns_ = now_ns;
      tx_bytes_ -= std::size_t(n);
      if (std::size_t(n) == remaining) {
        tx_.pop_front();
        tx_front_offset_ = 0;
      } else {
        tx_front_offset_ += std::size_t(n);
      }
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n < 0 && errno == EINTR) continue;
    close();  // EPIPE/ECONNRESET: owner observes closed() and reaps
    return;
  }
}

std::vector<net::Message> deliver(Connection::ReadResult& result,
                                  const net::NodeId& peer,
                                  EndpointStats& stats,
                                  std::deque<net::Message>& inbox) {
  for (std::size_t i = 0; i < result.corrupt_frames; ++i)
    stats.count_corrupt(peer);
  std::vector<net::Message> hellos;
  for (net::Message& message : result.messages) {
    stats.count_received(message, FrameCodec::framed_size(message));
    if (message.kind == net::MessageKind::kHello)
      hellos.push_back(std::move(message));
    else
      inbox.push_back(std::move(message));
  }
  return hellos;
}

}  // namespace fedms::transport
