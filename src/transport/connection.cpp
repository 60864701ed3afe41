#include "transport/connection.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
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
  rx_.clear();
  tx_.clear();
  tx_front_offset_ = 0;
  tx_bytes_ = 0;
}

Connection::ReadResult Connection::on_readable(const FrameCodec& codec,
                                              std::uint64_t now_ns) {
  ReadResult result;
  if (closed()) return result;

  bool eof = false;
  for (;;) {
    std::uint8_t chunk[65536];
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n > 0) {
      rx_.insert(rx_.end(), chunk, chunk + n);
      last_progress_ns_ = now_ns;
      if (std::size_t(n) < sizeof chunk) break;
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

  // Decode every complete frame buffered so far. Stream-level damage
  // closes the connection; the owner decides what that means.
  std::size_t offset = 0;
  while (state_ != State::kClosed) {
    FrameError error = FrameError::kNone;
    const auto size = FrameCodec::frame_size(
        rx_.data() + offset, rx_.size() - offset, &error);
    if (error != FrameError::kNone) {
      close();
      result.closed_reason = "desynchronized stream";
      return result;
    }
    if (!size.has_value() || rx_.size() - offset < *size) break;
    FrameCodec::DecodeResult decoded =
        codec.decode(rx_.data() + offset, *size);
    offset += *size;
    if (state_ == State::kHandshake) {
      if (!decoded.ok() ||
          decoded.message.kind != net::MessageKind::kHello) {
        close();
        result.closed_reason = "expected hello frame";
        return result;
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
      return result;
    }
  }
  if (offset > 0)
    rx_.erase(rx_.begin(), rx_.begin() + std::ptrdiff_t(offset));

  if (eof) {
    close();
    result.closed_reason = "eof";
  }
  return result;
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
