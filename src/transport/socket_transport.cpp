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
#include <thread>

#include "core/contracts.h"

namespace fedms::transport {

namespace {

constexpr double kWriteTimeoutSeconds = 30.0;

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

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

SocketTransport::~SocketTransport() {
  for (Peer& peer : peers_)
    if (peer.fd >= 0) ::close(peer.fd);
}

void SocketTransport::add_peer(int fd, const net::NodeId& id) {
  Peer peer;
  peer.fd = fd;
  peer.id = id;
  peers_.push_back(std::move(peer));
}

SocketTransport::Peer& SocketTransport::peer_for(const net::NodeId& id) {
  for (Peer& peer : peers_)
    if (peer.id == id) return peer;
  throw std::runtime_error("no connection to " + net::to_string(id));
}

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
    transport->add_peer(fd, net::server_id(s));

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
  transport->add_peer(fd, peer);
  return transport;
}

void SocketTransport::write_all(Peer& peer, const std::uint8_t* data,
                                std::size_t size) {
  const double deadline = now_seconds() + kWriteTimeoutSeconds;
  std::size_t written = 0;
  while (written < size) {
    std::size_t chunk = size - written;
    if (options_.max_send_chunk > 0 && chunk > options_.max_send_chunk)
      chunk = options_.max_send_chunk;
    const ssize_t n = ::send(peer.fd, data + written, chunk, MSG_NOSIGNAL);
    if (n > 0) {
      written += std::size_t(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      const double remaining = deadline - now_seconds();
      if (remaining <= 0)
        throw std::runtime_error("send timeout to " +
                                 net::to_string(peer.id));
      pollfd p{peer.fd, POLLOUT, 0};
      ::poll(&p, 1, int(remaining * 1000.0) + 1);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    peer.closed = true;
    raise_errno("send to " + net::to_string(peer.id));
  }
}

void SocketTransport::send(net::Message message) {
  FEDMS_EXPECTS(message.from == self_);
  Peer& peer = peer_for(message.to);
  if (peer.closed)
    throw std::runtime_error("send to closed peer " +
                             net::to_string(peer.id));
  std::vector<std::uint8_t> frame = codec_.encode(message);
  inject_corruption(message.kind, options_.corrupt_rate, corrupt_rng_,
                    frame);
  stats_.count_sent(message, frame.size());
  write_all(peer, frame.data(), frame.size());
}

bool SocketTransport::pump(Peer& peer) {
  for (;;) {
    std::uint8_t chunk[65536];
    const ssize_t n = ::recv(peer.fd, chunk, sizeof chunk, 0);
    if (n > 0) {
      peer.rx.insert(peer.rx.end(), chunk, chunk + n);
      if (std::size_t(n) < sizeof chunk) break;
      continue;
    }
    if (n == 0) {
      peer.closed = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    peer.closed = true;
    break;
  }
  extract_frames(peer);
  return !peer.closed;
}

void SocketTransport::extract_frames(Peer& peer) {
  std::size_t offset = 0;
  for (;;) {
    FrameError error = FrameError::kNone;
    const auto size = FrameCodec::frame_size(peer.rx.data() + offset,
                                             peer.rx.size() - offset,
                                             &error);
    if (error != FrameError::kNone)
      throw std::runtime_error("desynchronized stream from " +
                               net::to_string(peer.id) + ": " +
                               to_string(error));
    if (!size.has_value() || peer.rx.size() - offset < *size) break;
    FrameCodec::DecodeResult decoded =
        codec_.decode(peer.rx.data() + offset, *size);
    if (decoded.ok()) {
      stats_.count_received(decoded.message, *size);
      // A stray hello is control traffic, never surfaced to the protocol.
      if (decoded.message.kind != net::MessageKind::kHello)
        inbox_.push_back(std::move(decoded.message));
    } else if (decoded.error == FrameError::kCrcMismatch ||
               decoded.error == FrameError::kBadPayload) {
      // Bit corruption in transit: telemetry, then carry on — the protocol
      // layer sees a missing message.
      stats_.count_corrupt(peer.id);
    } else {
      throw std::runtime_error("undecodable frame from " +
                               net::to_string(peer.id) + ": " +
                               to_string(decoded.error));
    }
    offset += *size;
  }
  if (offset > 0)
    peer.rx.erase(peer.rx.begin(),
                  peer.rx.begin() + std::ptrdiff_t(offset));
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
    std::vector<pollfd> fds;
    std::vector<Peer*> open;
    for (Peer& peer : peers_) {
      if (peer.closed) continue;
      fds.push_back(pollfd{peer.fd, POLLIN, 0});
      open.push_back(&peer);
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
    if (rc == 0) continue;  // re-check deadline
    for (std::size_t i = 0; i < fds.size(); ++i)
      if (fds[i].revents != 0) pump(*open[i]);
  }
}

}  // namespace fedms::transport
