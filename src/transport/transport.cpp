#include "transport/transport.h"

#include <chrono>

#include "core/contracts.h"
#include "fl/wire_encoding.h"

namespace fedms::transport {

LinkStats& LinkStats::operator+=(const LinkStats& other) {
  messages += other.messages;
  bytes += other.bytes;
  control_messages += other.control_messages;
  control_bytes += other.control_bytes;
  corrupt_frames += other.corrupt_frames;
  return *this;
}

namespace {
LinkStats sum(const std::map<net::NodeId, LinkStats>& links) {
  LinkStats total;
  for (const auto& [peer, stats] : links) total += stats;
  return total;
}
void count(LinkStats& link, const net::Message& message,
           std::size_t framed_bytes) {
  if (is_control(message.kind)) {
    link.control_messages += 1;
    link.control_bytes += framed_bytes;
  } else {
    link.messages += 1;
    link.bytes += framed_bytes;
  }
}
}  // namespace

LinkStats EndpointStats::total_sent() const { return sum(sent); }
LinkStats EndpointStats::total_received() const { return sum(received); }

void EndpointStats::count_sent(const net::Message& message,
                               std::size_t framed_bytes) {
  count(sent[message.to], message, framed_bytes);
}

void EndpointStats::count_received(const net::Message& message,
                                   std::size_t framed_bytes) {
  count(received[message.from], message, framed_bytes);
}

void EndpointStats::count_corrupt(const net::NodeId& peer) {
  received[peer].corrupt_frames += 1;
}

InMemoryHub::InMemoryHub() : corrupt_rng_(0) {}

InMemoryHub::~InMemoryHub() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [id, endpoint] : endpoints_) endpoint->hub_ = nullptr;
  endpoints_.clear();
}

void InMemoryHub::set_corrupt_rate(double rate, std::uint64_t seed) {
  FEDMS_EXPECTS(rate >= 0.0 && rate < 1.0);
  std::lock_guard<std::mutex> lock(mutex_);
  corrupt_rate_ = rate;
  corrupt_rng_ = core::Rng(seed);
}

void InMemoryHub::set_deterministic(bool on) {
  std::lock_guard<std::mutex> lock(mutex_);
  deterministic_ = on;
}

std::unique_ptr<InMemoryTransport> InMemoryHub::make_endpoint(
    const net::NodeId& self, const std::string& wire_encoding) {
  FEDMS_EXPECTS(fl::check_wire_encoding(wire_encoding).empty());
  std::lock_guard<std::mutex> lock(mutex_);
  std::unique_ptr<InMemoryTransport> endpoint(
      new InMemoryTransport(*this, self));
  const bool inserted = endpoints_.emplace(self, endpoint.get()).second;
  FEDMS_EXPECTS(inserted);  // one endpoint per node id
  encodings_[self] = wire_encoding;
  return endpoint;
}

void InMemoryHub::detach(InMemoryTransport* endpoint) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = endpoints_.find(endpoint->self_);
  if (it != endpoints_.end() && it->second == endpoint) endpoints_.erase(it);
}

net::TrafficStats InMemoryHub::uplink() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return network_.uplink();
}

net::TrafficStats InMemoryHub::downlink() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return network_.downlink();
}

void InMemoryHub::send_from(InMemoryTransport& sender, net::Message message) {
  FEDMS_EXPECTS(message.from == sender.self_);
  std::lock_guard<std::mutex> lock(mutex_);
  const std::size_t framed = FrameCodec::framed_size(message);
  sender.stats_.count_sent(message, framed);

  // Transit corruption (data frames only — control frames carry no payload
  // to flip): the receiver's CRC check rejects the frame, so it counts a
  // corrupt frame and never sees the message.
  if (corrupt_rate_ > 0.0 && !is_control(message.kind) &&
      !message.payload.empty() && corrupt_rng_.bernoulli(corrupt_rate_)) {
    const auto it = endpoints_.find(message.to);
    if (it != endpoints_.end())
      it->second->stats_.count_corrupt(message.from);
    return;
  }

  network_.send(std::move(message));
  cv_.notify_all();
}

std::optional<net::Message> InMemoryHub::receive_for(
    InMemoryTransport& endpoint, double timeout_seconds) {
  std::unique_lock<std::mutex> lock(mutex_);
  // Deterministic mode: the caller's deadline is stretched to a fixed long
  // one, so a slow machine cannot turn into a thinner candidate set.
  if (deterministic_) timeout_seconds = 300.0;
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(timeout_seconds));
  for (;;) {
    for (net::Message& m : network_.drain_inbox(endpoint.self_))
      endpoint.pending_.push_back(std::move(m));
    if (!endpoint.pending_.empty()) {
      net::Message message = std::move(endpoint.pending_.front());
      endpoint.pending_.pop_front();
      endpoint.stats_.count_received(message,
                                     FrameCodec::framed_size(message));
      return message;
    }
    if (cv_.wait_until(lock, deadline) == std::cv_status::timeout) {
      // One last drain: a send may have raced the timeout.
      for (net::Message& m : network_.drain_inbox(endpoint.self_))
        endpoint.pending_.push_back(std::move(m));
      if (endpoint.pending_.empty()) return std::nullopt;
    }
  }
}

InMemoryTransport::~InMemoryTransport() {
  if (hub_ != nullptr) hub_->detach(this);
}

void InMemoryTransport::send(net::Message message) {
  FEDMS_EXPECTS(hub_ != nullptr);
  hub_->send_from(*this, std::move(message));
}

std::optional<net::Message> InMemoryTransport::receive(
    double timeout_seconds) {
  FEDMS_EXPECTS(hub_ != nullptr);
  return hub_->receive_for(*this, timeout_seconds);
}

std::string InMemoryTransport::peer_encoding(const net::NodeId& peer) const {
  FEDMS_EXPECTS(hub_ != nullptr);
  std::lock_guard<std::mutex> lock(hub_->mutex_);
  const auto it = hub_->encodings_.find(peer);
  return it != hub_->encodings_.end() ? it->second : "f32";
}

}  // namespace fedms::transport
