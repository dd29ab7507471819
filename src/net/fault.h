// Fault-injection capability of a transport.
//
// Every Mendel transport can simulate node failure: a failed node's
// traffic is dropped (and counted) until the node is healed, and a
// partial-failure variant drops only one message type so tests can kill a
// node mid-dataflow. These operations used to live ad hoc on the concrete
// transport classes; FaultInjector lifts them into one interface so chaos
// tests — and the Client's fail/heal machinery — are written once against
// the capability instead of per concrete transport.
//
// How "down" manifests differs by transport and mirrors a real failure
// mode of each runtime:
//   * SimTransport drops at delivery time (the node vanished);
//   * SocketTransport drops at the outbound edge of this process, and
//     additionally reports peers whose heartbeats expired as down.
// In every case node_down() is the membership view the Client consults
// when deferring cancel broadcasts for later healing.
#pragma once

#include <cstdint>

namespace mendel::net {

using NodeId = std::uint32_t;

class FaultInjector {
 public:
  virtual ~FaultInjector() = default;

  // Marks a node as failed: its traffic is dropped (counted in
  // dropped_messages()) until heal_node().
  virtual void fail_node(NodeId id) = 0;
  // Re-admits the node and clears any partial-failure type drop.
  virtual void heal_node(NodeId id) = 0;
  virtual bool node_down(NodeId id) const = 0;
  // Partial failure: drop only messages of one type to the node, leaving
  // it otherwise healthy (it keeps answering everything else and is NOT
  // node_down()). heal_node() clears it.
  virtual void drop_type_to(NodeId id, std::uint32_t type) = 0;
  // Messages dropped by any of the mechanisms above.
  virtual std::uint64_t dropped_messages() const = 0;
};

}  // namespace mendel::net
