#include "net/sim_network.h"

namespace fedms::net {

TrafficStats& TrafficStats::operator+=(const TrafficStats& other) {
  messages += other.messages;
  bytes += other.bytes;
  dropped_messages += other.dropped_messages;
  return *this;
}

TrafficStats& SimNetwork::direction_for(const NodeId& sender,
                                        TrafficStats& uplink,
                                        TrafficStats& downlink) {
  return sender.kind == NodeKind::kClient ? uplink : downlink;
}

void SimNetwork::send(Message message) {
  TrafficStats& direction = direction_for(message.from, uplink_, downlink_);
  direction.messages += 1;
  direction.bytes += wire_size(message);
  inboxes_[message.to].push_back(std::move(message));
}

std::vector<Message> SimNetwork::drain_inbox(const NodeId& node) {
  const auto it = inboxes_.find(node);
  if (it == inboxes_.end()) return {};
  std::vector<Message> messages = std::move(it->second);
  inboxes_.erase(it);
  return messages;
}

std::size_t SimNetwork::pending_count() const {
  std::size_t n = 0;
  for (const auto& [node, inbox] : inboxes_) n += inbox.size();
  return n;
}

TrafficStats SimNetwork::total() const {
  TrafficStats stats = uplink_;
  stats += downlink_;
  return stats;
}

void SimNetwork::reset_stats() {
  uplink_ = TrafficStats{};
  downlink_ = TrafficStats{};
}

}  // namespace fedms::net
