// TransportFactory: the one place a transport is chosen and constructed.
//
// Every runtime (Client, cluster tools, examples, the mendel-node daemon)
// selects its transport through TransportMode + TransportConfig instead of
// naming a concrete class, so adding a transport — as the socket transport
// was — touches this file and nothing upstream. The returned Transport
// carries everything an owner needs behind virtual calls: start()/stop()
// lifecycle, quiesce() for settling and stall detection, external_time()
// for stamping queries, counters() and the per-query attribution surface
// for observability, and fault_injector() for failure injection. No owner
// needs to know which concrete class it holds.
#pragma once

#include <cstdint>
#include <memory>

#include "src/net/message.h"
#include "src/net/sim_transport.h"
#include "src/net/socket_transport.h"

namespace mendel::net {

enum class TransportMode {
  kSim,     // deterministic discrete-event simulator (virtual time)
  kSocket,  // real sockets between processes (mendel-node daemons)
};

struct TransportConfig {
  TransportMode mode = TransportMode::kSim;
  // kSim: simulated network cost model and schedule-exploration seed.
  CostModel cost;
  std::uint64_t schedule_seed = 0;
  // kSocket: endpoints and deployment knobs.
  SocketOptions socket;
};

// Constructs the transport for `config.mode`. Starting and stopping it
// (Transport::start/stop) remains the owner's job.
std::unique_ptr<Transport> make_transport(const TransportConfig& config);

}  // namespace mendel::net
