#include "eventloop/server.h"

#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>

#include "core/contracts.h"

namespace fedms::eventloop {

namespace {

std::uint64_t now_ns() {
  return std::uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                           std::chrono::steady_clock::now()
                               .time_since_epoch())
                           .count());
}

double now_seconds() { return double(now_ns()) * 1e-9; }

constexpr std::uint64_t kSweepIntervalNs = 100'000'000;  // 100 ms

}  // namespace

EventLoopServer::EventLoopServer(const net::NodeId& self,
                                 const EventLoopOptions& options)
    : self_(self),
      options_(options),
      corrupt_rng_(options.corrupt_seed),
      reactor_(options.backend) {}

std::unique_ptr<EventLoopServer> EventLoopServer::listen(
    const net::NodeId& self, const transport::SocketAddress& address,
    const EventLoopOptions& options) {
  auto server = std::make_unique<EventLoopServer>(self, options);
  server->listener_fd_ = transport::make_listener(address, 1024);
  server->address_ = address;
  server->unlink_on_close_ =
      address.kind == transport::SocketAddress::Kind::kUnix;
  server->reactor_.add(server->listener_fd_, true, false, nullptr);
  return server;
}

EventLoopServer::~EventLoopServer() {
  flush(5.0);
  if (listener_fd_ >= 0) {
    reactor_.remove(listener_fd_);
    ::close(listener_fd_);
    if (unlink_on_close_) ::unlink(address_.path.c_str());
  }
  // Connections deregister here (their dtors close the fds after).
  for (auto& [fd, conn] : conns_) reactor_.remove(fd);
}

void EventLoopServer::adopt(int fd) {
  transport::set_nonblocking(fd);
  auto conn = std::make_unique<Connection>(fd, now_ns());
  reactor_.add(fd, true, false, nullptr);
  conns_.emplace(fd, std::move(conn));
}

Connection* EventLoopServer::identified(const net::NodeId& peer) {
  const auto it = by_peer_.find(peer);
  return it == by_peer_.end() ? nullptr : it->second;
}

std::string EventLoopServer::peer_encoding(const net::NodeId& peer) const {
  const auto it = peer_encodings_.find(peer);
  return it == peer_encodings_.end() ? "f32" : it->second;
}

void EventLoopServer::send(net::Message message) {
  FEDMS_EXPECTS(message.from == self_);
  Connection* conn = identified(message.to);
  if (conn != nullptr && options_.max_queue_bytes != 0 &&
      conn->queued_bytes() >= options_.max_queue_bytes)
    conn = wait_for_room(message.to);
  if (conn == nullptr) {
    // Absent, crashed, or evicted peer: on a multiplexed server this is
    // routine churn. The protocol layer sees a missing message — the
    // fault the trimmed-mean path absorbs. Stats bill only real traffic.
    ++dropped_sends_;
    return;
  }
  std::vector<std::uint8_t> frame = codec_.encode(message);
  transport::inject_corruption(message.kind, options_.corrupt_rate,
                               corrupt_rng_, frame);
  const std::size_t framed = frame.size();
  conn->enqueue(std::move(frame), 0);  // room was reserved above
  stats_.count_sent(message, framed);
  const int fd = conn->fd();
  conn->on_writable(now_ns());  // common case: kernel buffer absorbs it
  if (conn->closed()) {
    reap(fd);
    return;
  }
  reactor_.modify(fd, true, conn->wants_write());
}

Connection* EventLoopServer::wait_for_room(const net::NodeId& to) {
  double deadline = now_seconds() + options_.drain_stall_seconds;
  std::size_t last_queued = std::size_t(-1);
  for (;;) {
    Connection* conn = identified(to);
    if (conn == nullptr) return nullptr;
    const std::size_t queued = conn->queued_bytes();
    if (queued < options_.max_queue_bytes) return conn;
    if (queued < last_queued) {
      // Draining, just slower than we fill: keep waiting while there is
      // progress — only a stalled reader gets evicted.
      last_queued = queued;
      deadline = now_seconds() + options_.drain_stall_seconds;
    } else if (now_seconds() >= deadline) {
      ++evicted_slow_;
      reap(conn->fd());
      return nullptr;
    }
    poll_once(0.01);
  }
}

std::optional<net::Message> EventLoopServer::receive(
    double timeout_seconds) {
  const double deadline = now_seconds() + timeout_seconds;
  for (;;) {
    if (!inbox_.empty()) {
      net::Message message = std::move(inbox_.front());
      inbox_.pop_front();
      return message;
    }
    const double remaining = deadline - now_seconds();
    if (remaining <= 0) return std::nullopt;
    // Cap each wait so timeout sweeps keep their ~100 ms cadence even
    // when the protocol blocks for a long round.
    poll_once(std::min(remaining, 0.1));
  }
}

std::size_t EventLoopServer::poll_once(double timeout_seconds) {
  const std::size_t n = reactor_.wait(timeout_seconds, events_);
  bool accepts = false;
  for (const Reactor::Event& event : events_) {
    if (event.fd == listener_fd_) {
      accepts = true;  // deferred: a reaped fd must not be reused by an
      continue;        // accept while its stale events are still in batch
    }
    handle_event(event);
  }
  if (accepts) accept_ready();
  const std::uint64_t now = now_ns();
  if (now - last_sweep_ns_ >= kSweepIntervalNs) {
    last_sweep_ns_ = now;
    sweep_timeouts(now);
  }
  return n;
}

void EventLoopServer::handle_event(const Reactor::Event& event) {
  const auto it = conns_.find(event.fd);
  if (it == conns_.end()) return;  // reaped earlier in this batch
  Connection* conn = it->second.get();
  const std::uint64_t now = now_ns();
  if (event.writable) conn->on_writable(now);
  if (event.readable || event.broken)
    ingest(conn, conn->on_readable(codec_, now));
  if (conn->closed()) {
    reap(event.fd);
    return;
  }
  reactor_.modify(event.fd, true, conn->wants_write());
}

void EventLoopServer::ingest(Connection* conn,
                             Connection::ReadResult result) {
  for (std::size_t i = 0; i < result.corrupt_frames; ++i)
    stats_.count_corrupt(conn->peer());
  for (net::Message& message : result.messages) {
    stats_.count_received(message,
                          transport::FrameCodec::framed_size(message));
    // Hellos are connection plumbing (identification / stray re-hellos):
    // counted as control traffic, never surfaced to the protocol. The
    // announced wire encoding is kept — latest hello wins on rejoin.
    if (message.kind == net::MessageKind::kHello) {
      peer_encodings_[message.from] = message.hello_encoding.empty()
                                          ? "f32"
                                          : message.hello_encoding;
    } else {
      inbox_.push_back(std::move(message));
    }
  }
  if (result.identified) bind_peer(conn);
}

void EventLoopServer::bind_peer(Connection* conn) {
  const auto it = by_peer_.find(conn->peer());
  if (it != by_peer_.end() && it->second != conn) {
    // Rejoin: the peer reconnected (its old connection may be dead
    // without us having seen the hangup yet). Latest connection wins;
    // messages already received from the old one stay valid.
    ++rejoins_;
    reap(it->second->fd());
  }
  by_peer_[conn->peer()] = conn;
}

void EventLoopServer::reap(int fd) {
  const auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  Connection* conn = it->second.get();
  const auto pit = by_peer_.find(conn->peer());
  if (pit != by_peer_.end() && pit->second == conn) by_peer_.erase(pit);
  reactor_.remove(fd);
  conn->close();
  conns_.erase(it);
}

void EventLoopServer::sweep_timeouts(std::uint64_t now) {
  std::vector<int> doomed;
  for (const auto& [fd, conn] : conns_) {
    if (conn->state() == Connection::State::kHandshake) {
      if (options_.handshake_timeout_seconds > 0 &&
          double(now - conn->accepted_ns()) * 1e-9 >=
              options_.handshake_timeout_seconds) {
        ++half_open_closed_;
        doomed.push_back(fd);
      }
    } else if (conn->state() == Connection::State::kActive) {
      if (options_.idle_timeout_seconds > 0 &&
          double(now - conn->last_progress_ns()) * 1e-9 >=
              options_.idle_timeout_seconds) {
        ++idle_closed_;
        doomed.push_back(fd);
      }
    }
  }
  for (const int fd : doomed) reap(fd);
}

void EventLoopServer::accept_ready() {
  if (listener_fd_ < 0) return;
  for (;;) {
    const int fd = ::accept(listener_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      // EAGAIN drains the backlog; anything else (ECONNABORTED, EMFILE
      // burst) is transient at accept granularity — the client retries.
      break;
    }
    transport::set_nonblocking(fd);
    if (address_.kind == transport::SocketAddress::Kind::kTcp)
      transport::set_nodelay(fd);
    conns_.emplace(fd, std::make_unique<Connection>(fd, now_ns()));
    reactor_.add(fd, true, false, nullptr);
  }
}

bool EventLoopServer::flush(double timeout_seconds) {
  const double deadline = now_seconds() + timeout_seconds;
  for (;;) {
    bool pending = false;
    for (const auto& [fd, conn] : conns_)
      if (conn->wants_write()) pending = true;
    if (!pending) return true;
    if (now_seconds() >= deadline) return false;
    poll_once(0.01);
  }
}

std::string ensure_fd_budget(std::size_t required) {
  rlimit limit{};
  if (::getrlimit(RLIMIT_NOFILE, &limit) != 0)
    return "";  // cannot probe: proceed and let accept report it
  if (rlim_t(required) <= limit.rlim_cur) return "";
  if (rlim_t(required) <= limit.rlim_max) {
    rlimit raised = limit;
    raised.rlim_cur = rlim_t(required);
    if (::setrlimit(RLIMIT_NOFILE, &raised) == 0) return "";
  }
  return "fd budget too small: RLIMIT_NOFILE soft=" +
         std::to_string(std::uint64_t(limit.rlim_cur)) +
         " hard=" + std::to_string(std::uint64_t(limit.rlim_max)) +
         ", need " + std::to_string(required) +
         " (raise with `ulimit -n " + std::to_string(required) +
         "` or reduce --clients)";
}

}  // namespace fedms::eventloop
