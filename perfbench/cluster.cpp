#include "cluster.h"

#include <chrono>
#include <cstdint>
#include <limits>
#include <thread>

namespace perfbench {

using namespace mendel;

namespace {

// mendel-node's defaults (tools/mendel_node_main.cpp): heartbeats on at 1 s,
// the transport's default silence threshold, a 5 s startup dial budget.
constexpr double kDaemonHeartbeatInterval = 1.0;
constexpr double kDaemonConnectTimeout = 5.0;

// Traced runs hold every query's spans until the run ends; size the span
// buffers so none is dropped (the stage table only counts when
// obs.spans_dropped is 0).
constexpr std::size_t kTracedSpanCapacity = std::size_t{1} << 21;

}  // namespace

core::ClientOptions client_options(const DeploymentConfig& config) {
  core::ClientOptions options;
  options.topology.num_groups = kGroups;
  options.topology.nodes_per_group = kNodesPerGroup;
  options.indexing.window_length = 8;
  options.indexing.sample_size = 4000;
  options.prefix_tree.cutoff_depth = 6;
  options.runtime.arena_resident_budget = config.arena_resident_budget;
  options.runtime.arena_segment_bytes = config.arena_segment_bytes;
  return options;
}

Deployment::Deployment(const std::string& socket_dir,
                       const DeploymentConfig& config)
    : config_(config) {
  const std::size_t total = std::size_t{kGroups} * kNodesPerGroup;
  for (std::size_t id = 0; id < total; ++id) {
    endpoints_.push_back("unix:" + socket_dir + "/n" + std::to_string(id) +
                         ".sock");
  }
  const auto started = std::chrono::steady_clock::now();
  for (std::size_t daemon = 0; daemon < kDaemons; ++daemon) {
    net::SocketOptions socket;
    socket.endpoints = endpoints_;
    socket.heartbeat_interval = kDaemonHeartbeatInterval;
    socket.connect_timeout = kDaemonConnectTimeout;
    transports_.push_back(std::make_unique<net::SocketTransport>(socket));
    core::NodeHostOptions host;
    for (std::size_t id = daemon; id < total; id += kDaemons) {
      host.node_ids.push_back(static_cast<net::NodeId>(id));
    }
    host.arena_resident_budget = config.arena_resident_budget;
    host.arena_segment_bytes = config.arena_segment_bytes;
    if (config.traced) {
      host.metrics = &registry_;
      host.trace_buffer_capacity = kTracedSpanCapacity;
    }
    hosts_.push_back(std::make_unique<core::NodeHost>(transports_.back().get(),
                                                      std::move(host)));
  }
  // Each start() blocks until its dials land, and a peer only listens once
  // its own start() runs, so the daemons start concurrently.
  std::vector<std::thread> starters;
  for (auto& transport : transports_) {
    starters.emplace_back([&transport] { transport->start(); });
  }
  for (auto& starter : starters) starter.join();
  start_seconds_ = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - started)
                       .count();

  auto options = client_options(config);
  options.runtime.transport_mode = core::TransportMode::kSocket;
  options.runtime.socket.endpoints = endpoints_;
  if (config.traced) {
    options.runtime.enable_tracing = true;
    options.runtime.trace_buffer_capacity = kTracedSpanCapacity;
  }
  client_ = std::make_unique<core::Client>(std::move(options));
}

Deployment::~Deployment() {
  // The client's destructor stops its own transport; each daemon transport
  // stops (joining its dispatch threads) before its NodeHost goes away.
  client_.reset();
  for (auto& transport : transports_) transport->stop();
  hosts_.clear();
  transports_.clear();
}

void Deployment::settle() {
  client_->collect_trace(std::numeric_limits<std::uint64_t>::max());
}

}  // namespace perfbench
