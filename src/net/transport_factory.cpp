#include "src/net/transport_factory.h"

#include <string>

#include "src/common/error.h"

namespace mendel::net {

std::unique_ptr<Transport> make_transport(const TransportConfig& config) {
  switch (config.mode) {
    case TransportMode::kSim: {
      auto sim = std::make_unique<SimTransport>(config.cost);
      sim->set_schedule_seed(config.schedule_seed);
      return sim;
    }
    case TransportMode::kSocket:
      return std::make_unique<SocketTransport>(config.socket);
  }
  throw InvalidArgument("make_transport: unknown TransportMode " +
                        std::to_string(static_cast<int>(config.mode)));
}

}  // namespace mendel::net
