// In-process socket cluster for the real-concurrency tests: "daemon"
// transports hosting the storage nodes over Unix-domain sockets, wired
// exactly as mendel-node processes would be (a SocketTransport + NodeHost
// per daemon; the client reaches them only through real sockets and the
// kNodeInit protocol). Node id `id` lives on daemon `id % daemons`.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/common/byte_size.h"
#include "src/mendel/client.h"
#include "src/mendel/node_host.h"
#include "src/net/socket_transport.h"
#include "src/obs/metrics.h"

namespace mendel::testutil {

struct SocketCluster {
  std::vector<std::string> endpoints;
  std::vector<std::unique_ptr<core::NodeHost>> hosts;
  std::vector<std::unique_ptr<net::SocketTransport>> transports;

  // `host` is every daemon's NodeHostOptions (search pool, shared metrics
  // registry, arena knobs) with node_ids filled in per daemon.
  // MENDEL_ARENA_BUDGET overrides its arena budget the way Client
  // overrides RuntimeOptions::arena_resident_budget, so the spill-forced
  // test runs reach the daemons' arenas too.
  explicit SocketCluster(const std::string& tag,
                         core::NodeHostOptions host = {},
                         std::size_t total_nodes = 6,
                         std::size_t daemons = 3) {
    if (const char* env = std::getenv("MENDEL_ARENA_BUDGET");
        env != nullptr && *env != '\0') {
      host.arena_resident_budget =
          parse_byte_size(env).value_or(host.arena_resident_budget);
    }
    for (std::size_t id = 0; id < total_nodes; ++id) {
      endpoints.push_back("unix:" + ::testing::TempDir() +
                          "mendel_cluster_" + std::to_string(::getpid()) +
                          "_" + tag + "_" + std::to_string(id) + ".sock");
    }
    for (std::size_t daemon = 0; daemon < daemons; ++daemon) {
      net::SocketOptions options;
      options.endpoints = endpoints;
      transports.push_back(std::make_unique<net::SocketTransport>(options));
      core::NodeHostOptions host_options = host;
      host_options.node_ids.clear();
      for (std::size_t id = daemon; id < total_nodes; id += daemons) {
        host_options.node_ids.push_back(static_cast<net::NodeId>(id));
      }
      hosts.push_back(std::make_unique<core::NodeHost>(
          transports.back().get(), std::move(host_options)));
    }
    // Daemons start concurrently (like real processes): each start()
    // blocks until its dials land, and the peers only listen once their
    // own start() runs.
    std::vector<std::thread> starters;
    for (auto& transport : transports) {
      starters.emplace_back([&transport] { transport->start(); });
    }
    for (auto& starter : starters) starter.join();
  }
  ~SocketCluster() { stop(); }

  SocketCluster(const SocketCluster&) = delete;
  SocketCluster& operator=(const SocketCluster&) = delete;

  // `base` switched to socket mode and aimed at this cluster.
  core::ClientOptions client_options(core::ClientOptions base) const {
    base.runtime.transport_mode = core::TransportMode::kSocket;
    base.runtime.socket.endpoints = endpoints;
    return base;
  }

  // The hosted StorageNode once the client's kNodeInit landed. Dispatch
  // threads mutate it: read it after Client::settle() or stop().
  core::StorageNode& node(net::NodeId id) const {
    core::StorageNode* node = hosts[id % hosts.size()]->node(id);
    if (node == nullptr) {
      throw std::logic_error("node " + std::to_string(id) +
                             " is not initialized");
    }
    return *node;
  }

  // Fault injection on every daemon transport, so traffic between daemons
  // is dropped too (the client's own transport is Client::fault_injector).
  void fail_node(net::NodeId id) {
    for (auto& transport : transports) transport->fail_node(id);
  }
  void heal_node(net::NodeId id) {
    for (auto& transport : transports) transport->heal_node(id);
  }
  void drop_type_to(net::NodeId id, std::uint32_t type) {
    for (auto& transport : transports) transport->drop_type_to(id, type);
  }

  // No daemon handler threw or rejected a frame.
  void expect_clean() const {
    for (const auto& transport : transports) {
      EXPECT_EQ(transport->handler_errors().size(), 0u);
      EXPECT_EQ(transport->decode_errors(), 0u);
    }
  }

  // Joins every daemon's dispatch threads; idempotent.
  void stop() {
    for (auto& transport : transports) transport->stop();
  }
};

// A Client on either runtime. Under kSim the client hosts the nodes; under
// kSocket it drives a SocketCluster whose hosts take the node-side knobs
// of options.runtime (NN cache, trace buffer, arena, pruning) plus a
// search pool of `search_threads` and an optional shared registry, as
// mendel-node daemons started with matching flags would.
class Deployment {
 public:
  Deployment(const std::string& tag, core::ClientOptions options,
             unsigned search_threads = 0,
             obs::MetricsRegistry* daemon_metrics = nullptr) {
    if (options.runtime.transport_mode == core::TransportMode::kSocket) {
      const core::RuntimeOptions& runtime = options.runtime;
      core::NodeHostOptions host;
      host.search_threads = search_threads;
      host.nn_cache_capacity = runtime.nn_cache_capacity;
      host.trace_buffer_capacity = runtime.trace_buffer_capacity;
      host.arena_resident_budget = runtime.arena_resident_budget;
      host.arena_packing = runtime.arena_packing;
      host.arena_segment_bytes = runtime.arena_segment_bytes;
      host.prune_extensions = runtime.prune_extensions;
      host.metrics = daemon_metrics;
      sockets_ = std::make_unique<SocketCluster>(tag, std::move(host));
      options = sockets_->client_options(std::move(options));
    }
    client_ = std::make_unique<core::Client>(std::move(options));
  }

  core::Client& client() { return *client_; }
  // Null under kSim.
  SocketCluster* sockets() { return sockets_.get(); }
  // Node `id` wherever it lives. Over sockets, read it after settle().
  const core::StorageNode& node(net::NodeId id) const {
    return sockets_ ? sockets_->node(id) : client_->node(id);
  }

 private:
  // Declared before the client, which talks to the daemons, so the client
  // is destroyed first.
  std::unique_ptr<SocketCluster> sockets_;
  std::unique_ptr<core::Client> client_;
};

}  // namespace mendel::testutil
