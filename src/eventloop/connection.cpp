#include "eventloop/connection.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <utility>

namespace fedms::eventloop {

Connection::Connection(int fd, std::uint64_t now_ns)
    : fd_(fd), accepted_ns_(now_ns), last_progress_ns_(now_ns) {}

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

Connection::ReadResult Connection::on_readable(
    const transport::FrameCodec& codec, std::uint64_t now_ns) {
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

  // Decode every complete frame buffered so far. Unlike the client-side
  // SocketTransport, stream-level damage closes just this connection.
  std::size_t offset = 0;
  while (state_ != State::kClosed) {
    transport::FrameError error = transport::FrameError::kNone;
    const auto size = transport::FrameCodec::frame_size(
        rx_.data() + offset, rx_.size() - offset, &error);
    if (error != transport::FrameError::kNone) {
      close();
      result.closed_reason = "desynchronized stream";
      return result;
    }
    if (!size.has_value() || rx_.size() - offset < *size) break;
    transport::FrameCodec::DecodeResult decoded =
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
    } else if (decoded.error == transport::FrameError::kCrcMismatch ||
               decoded.error == transport::FrameError::kBadPayload) {
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

bool Connection::enqueue(std::vector<std::uint8_t> frame,
                         std::size_t cap_bytes) {
  if (closed()) return true;  // silently dropped; the peer is gone
  if (cap_bytes != 0 && tx_bytes_ >= cap_bytes) return false;
  tx_bytes_ += frame.size();
  tx_.push_back(std::move(frame));
  return true;
}

void Connection::on_writable(std::uint64_t now_ns) {
  while (!closed() && !tx_.empty()) {
    const std::vector<std::uint8_t>& front = tx_.front();
    const std::size_t remaining = front.size() - tx_front_offset_;
    const ssize_t n = ::send(fd_, front.data() + tx_front_offset_,
                             remaining, MSG_NOSIGNAL);
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

}  // namespace fedms::eventloop
