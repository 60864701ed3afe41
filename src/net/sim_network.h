// Round-synchronous simulated network.
//
// The FEEL protocol is synchronous (the paper's clients are synchronized
// across the three stages), so the network is modelled as a per-round
// message bus: senders `send()` during a stage, receivers `drain_inbox()`
// at the stage boundary. The bus keeps cumulative traffic statistics split
// by direction — the quantity behind the paper's claim that sparse
// uploading costs K model-transfers versus K×P for upload-to-all.
//
// The bus itself never loses a message: message faults (drops, delays,
// duplicates, omissions) are the event-driven runtime's FaultPlan.
//
// Drop attribution contract (shared with the event-driven runtime and the
// transport telemetry so the counters stay comparable): a lost message is
// billed to the *sender's* direction — client-origin drops land in
// `uplink().dropped_messages`, PS-origin drops in `downlink()` — and a
// dropped message contributes neither to `messages` nor `bytes`.
// Send-side omissions (a PS "forgetting" to send; see runtime::FaultPlan)
// are a different fault: the message never reached the link, so they are
// counted separately and never appear as link drops.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "net/message.h"

namespace fedms::net {

struct TrafficStats {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t dropped_messages = 0;

  TrafficStats& operator+=(const TrafficStats& other);
};

class SimNetwork {
 public:
  // Queues a message for its destination and records traffic. Payloads
  // are moved, not copied.
  void send(Message message);

  // Removes and returns every queued message addressed to `node`, in send
  // order.
  std::vector<Message> drain_inbox(const NodeId& node);

  // Number of queued (undelivered) messages across all inboxes.
  std::size_t pending_count() const;

  // Cumulative stats by direction.
  const TrafficStats& uplink() const { return uplink_; }      // client -> PS
  const TrafficStats& downlink() const { return downlink_; }  // PS -> client
  TrafficStats total() const;
  void reset_stats();

  // The direction a message from `sender` is billed to (uplink for
  // client-origin traffic, downlink for PS-origin) — the single attribution
  // rule for delivered bytes *and* drops.
  static TrafficStats& direction_for(const NodeId& sender,
                                     TrafficStats& uplink,
                                     TrafficStats& downlink);

 private:
  std::map<NodeId, std::vector<Message>> inboxes_;
  TrafficStats uplink_;
  TrafficStats downlink_;
};

}  // namespace fedms::net
