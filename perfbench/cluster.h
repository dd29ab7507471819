// The deployed socket path, hosted in one process: three storage daemons
// (each a SocketTransport + core::NodeHost, configured the way mendel-node
// configures its host) serving 3 groups x 2 nodes over Unix-domain
// sockets, and one core::Client driving them through real frames.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "src/mendel/client.h"
#include "src/mendel/node_host.h"
#include "src/net/socket_transport.h"
#include "src/obs/metrics.h"
#include "src/sequence/sequence.h"

namespace perfbench {

inline constexpr std::uint32_t kGroups = 3;
inline constexpr std::uint32_t kNodesPerGroup = 2;
inline constexpr std::size_t kDaemons = 3;

struct DeploymentConfig {
  // Per-node window-arena resident budget (0 = all resident).
  std::size_t arena_resident_budget = 0;
  // Spill-segment size of the block store behind a budgeted arena (0 = the
  // store's default).
  std::size_t arena_segment_bytes = 0;
  // Traced deployment: the client stamps every query with tracing and the
  // daemons share a metrics registry. Off, the daemons run with no
  // registry, like mendel-node.
  bool traced = false;
};

// Index-shape and client options shared by the socket deployment and the
// in-process kSim oracle, so the oracle answers the same queries over the
// same index.
mendel::core::ClientOptions client_options(const DeploymentConfig& config);

class Deployment {
 public:
  // Starts the daemons (concurrently, like separate processes) and builds
  // the client; does not index. `socket_dir` holds the Unix sockets.
  Deployment(const std::string& socket_dir, const DeploymentConfig& config);
  ~Deployment();

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  mendel::core::Client& client() { return *client_; }
  // Registry shared by the daemons' nodes (traced deployments only).
  mendel::obs::MetricsRegistry* daemon_registry() {
    return config_.traced ? &registry_ : nullptr;
  }
  const std::vector<std::unique_ptr<mendel::core::NodeHost>>& hosts() const {
    return hosts_;
  }
  const std::vector<std::unique_ptr<mendel::net::SocketTransport>>&
  daemon_transports() const {
    return transports_;
  }
  // Wall seconds the concurrent daemon start took.
  double start_seconds() const { return start_seconds_; }

  // Barrier round trip to every node (a collect_trace for an id no query
  // uses): once it returns, every node has handled everything sent before
  // it and its dispatch thread is idle.
  void settle();

 private:
  DeploymentConfig config_;
  std::vector<std::string> endpoints_;
  mendel::obs::MetricsRegistry registry_;
  std::vector<std::unique_ptr<mendel::net::SocketTransport>> transports_;
  std::vector<std::unique_ptr<mendel::core::NodeHost>> hosts_;
  std::unique_ptr<mendel::core::Client> client_;
  double start_seconds_ = 0.0;
};

}  // namespace perfbench
