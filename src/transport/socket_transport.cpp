#include "transport/socket_transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <utility>

#include "core/contracts.h"
#include "obs/obs.h"

namespace fedms::transport {

namespace {

constexpr double kWriteTimeoutSeconds = 30.0;

using obs::now_ns;

double now_seconds() { return double(now_ns()) * 1e-9; }

[[noreturn]] void raise_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

int make_socket(SocketAddress::Kind kind) {
  const int fd =
      ::socket(kind == SocketAddress::Kind::kUnix ? AF_UNIX : AF_INET,
               SOCK_STREAM, 0);
  if (fd < 0) raise_errno("socket");
  return fd;
}

sockaddr_un unix_sockaddr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() + 1 > sizeof(addr.sun_path))
    throw std::runtime_error("unix socket path too long: " + path);
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

sockaddr_in tcp_sockaddr(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1)
    throw std::runtime_error("bad IPv4 address: " + host);
  return addr;
}

}  // namespace

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0)
    raise_errno("fcntl(O_NONBLOCK)");
}

void set_nodelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

int make_listener(const SocketAddress& address, int backlog) {
  const int listener = make_socket(address.kind);
  if (address.kind == SocketAddress::Kind::kUnix) {
    ::unlink(address.path.c_str());
    const sockaddr_un addr = unix_sockaddr(address.path);
    if (::bind(listener, reinterpret_cast<const sockaddr*>(&addr),
               sizeof addr) < 0) {
      ::close(listener);
      raise_errno("bind " + address.to_string());
    }
  } else {
    const int one = 1;
    ::setsockopt(listener, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    const sockaddr_in addr = tcp_sockaddr(address.host, address.port);
    if (::bind(listener, reinterpret_cast<const sockaddr*>(&addr),
               sizeof addr) < 0) {
      ::close(listener);
      raise_errno("bind " + address.to_string());
    }
  }
  if (::listen(listener, backlog) < 0) {
    ::close(listener);
    raise_errno("listen " + address.to_string());
  }
  set_nonblocking(listener);
  return listener;
}

int connect_with_retry(const SocketAddress& address,
                       const runtime::Backoff& backoff) {
  std::size_t attempts = 0;
  for (;;) {
    const int fd = make_socket(address.kind);
    int rc;
    if (address.kind == SocketAddress::Kind::kUnix) {
      const sockaddr_un addr = unix_sockaddr(address.path);
      rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof addr);
    } else {
      const sockaddr_in addr = tcp_sockaddr(address.host, address.port);
      rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof addr);
    }
    if (rc < 0 && errno == EINTR) {
      // POSIX: the handshake keeps establishing after the signal; wait
      // for writability and read the final result from SO_ERROR.
      pollfd p{fd, POLLOUT, 0};
      while (::poll(&p, 1, -1) < 0 && errno == EINTR) {
      }
      int error = 0;
      socklen_t length = sizeof error;
      ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &error, &length);
      if (error == 0) {
        rc = 0;
      } else {
        errno = error;
        rc = -1;
      }
    }
    if (rc == 0) return fd;
    const int saved_errno = errno;
    ::close(fd);
    errno = saved_errno;
    // The listener may not be up yet — same bounded exponential backoff
    // policy as the runtime's broadcast re-requests.
    if (backoff.exhausted(attempts))
      raise_errno("connect " + address.to_string());
    const double delay = backoff.delay_seconds(attempts++);
    std::this_thread::sleep_for(std::chrono::duration<double>(delay));
  }
}

SocketAddress SocketAddress::unix_path(std::string path) {
  SocketAddress address;
  address.kind = Kind::kUnix;
  address.path = std::move(path);
  return address;
}

SocketAddress SocketAddress::tcp(std::string host, std::uint16_t port) {
  SocketAddress address;
  address.kind = Kind::kTcp;
  address.host = std::move(host);
  address.port = port;
  return address;
}

SocketAddress SocketAddress::parse(const std::string& spec) {
  if (spec.rfind("unix:", 0) == 0) return unix_path(spec.substr(5));
  if (spec.rfind("tcp:", 0) == 0) {
    const std::string rest = spec.substr(4);
    const std::size_t colon = rest.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 == rest.size())
      throw std::runtime_error("bad tcp address (want tcp:<host>:<port>): " +
                               spec);
    const long port = std::stol(rest.substr(colon + 1));
    if (port <= 0 || port > 65535)
      throw std::runtime_error("bad tcp port in: " + spec);
    return tcp(rest.substr(0, colon), std::uint16_t(port));
  }
  throw std::runtime_error(
      "bad socket address (want unix:<path> or tcp:<host>:<port>): " + spec);
}

std::string SocketAddress::to_string() const {
  if (kind == Kind::kUnix) return "unix:" + path;
  return "tcp:" + host + ":" + std::to_string(port);
}

SocketTransport::SocketTransport(const net::NodeId& self,
                                 const SocketTransportOptions& options)
    : self_(self),
      options_(options),
      corrupt_rng_(options.corrupt_seed) {}

std::unique_ptr<SocketTransport> SocketTransport::connect_mesh(
    const net::NodeId& self, const std::vector<SocketAddress>& servers,
    const SocketTransportOptions& options) {
  std::unique_ptr<SocketTransport> transport(
      new SocketTransport(self, options));
  for (std::size_t s = 0; s < servers.size(); ++s) {
    const SocketAddress& address = servers[s];
    const int fd = connect_with_retry(address, options.connect_backoff);
    set_nonblocking(fd);
    if (address.kind == SocketAddress::Kind::kTcp) set_nodelay(fd);
    transport->conns_.try_emplace(net::server_id(s), fd, net::server_id(s),
                                  now_ns(), options.max_send_chunk);

    net::Message hello;
    hello.from = self;
    hello.to = net::server_id(s);
    hello.kind = net::MessageKind::kHello;
    if (options.wire_encoding != "f32")
      hello.hello_encoding = options.wire_encoding;
    transport->send(std::move(hello));
  }
  return transport;
}

std::unique_ptr<SocketTransport> SocketTransport::from_connected_fd(
    const net::NodeId& self, const net::NodeId& peer, int fd,
    const SocketTransportOptions& options) {
  std::unique_ptr<SocketTransport> transport(
      new SocketTransport(self, options));
  set_nonblocking(fd);
  transport->conns_.try_emplace(peer, fd, peer, now_ns(),
                                options.max_send_chunk);
  return transport;
}

void SocketTransport::send(net::Message message) {
  FEDMS_EXPECTS(message.from == self_);
  const auto it = conns_.find(message.to);
  if (it == conns_.end())
    throw std::runtime_error("no connection to " +
                             net::to_string(message.to));
  Connection& conn = it->second;
  // A closed connection would silently drop the frame.
  if (conn.closed())
    throw std::runtime_error("send to closed peer " +
                             net::to_string(message.to));
  std::vector<std::uint8_t> frame = codec_.encode(message);
  inject_corruption(message.kind, options_.corrupt_rate, corrupt_rng_,
                    frame);
  stats_.count_sent(message, frame.size());
  conn.enqueue(std::move(frame));
  const double deadline = now_seconds() + kWriteTimeoutSeconds;
  for (conn.on_writable(now_ns()); conn.wants_write();
       conn.on_writable(now_ns())) {
    const double remaining = deadline - now_seconds();
    if (remaining <= 0)
      throw std::runtime_error("send timeout to " +
                               net::to_string(message.to));
    pollfd p{conn.fd(), POLLOUT, 0};
    ::poll(&p, 1, int(remaining * 1000.0) + 1);
  }
  if (conn.closed())
    throw std::runtime_error("send to " + net::to_string(message.to) +
                             ": connection closed");
}

std::optional<net::Message> SocketTransport::receive(
    double timeout_seconds) {
  const double deadline = now_seconds() + timeout_seconds;
  for (;;) {
    if (!inbox_.empty()) {
      net::Message message = std::move(inbox_.front());
      inbox_.pop_front();
      return message;
    }
    if (!stream_error_.empty())
      throw std::runtime_error(std::exchange(stream_error_, {}));
    std::vector<pollfd> fds;
    std::vector<Connection*> open;
    for (auto& [peer, conn] : conns_) {
      if (conn.closed()) continue;
      fds.push_back(pollfd{conn.fd(), POLLIN, 0});
      open.push_back(&conn);
    }
    if (open.empty()) return std::nullopt;
    const double remaining = deadline - now_seconds();
    if (remaining <= 0) return std::nullopt;
    const int rc =
        ::poll(fds.data(), nfds_t(fds.size()), int(remaining * 1000.0) + 1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      raise_errno("poll");
    }
    for (std::size_t i = 0; i < fds.size(); ++i) {
      if (fds[i].revents == 0) continue;
      Connection& conn = *open[i];
      Connection::ReadResult result = conn.on_readable(codec_, now_ns());
      // Stray hellos are control traffic, never surfaced to the protocol.
      deliver(result, conn.peer(), stats_, inbox_);
      // A hangup only leaves the poll set; a damaged stream is fatal.
      if (result.closed_reason != nullptr &&
          std::string_view(result.closed_reason) != "eof" &&
          stream_error_.empty())
        stream_error_ = std::string(result.closed_reason) + " from " +
                        net::to_string(conn.peer());
    }
  }
}

}  // namespace fedms::transport
