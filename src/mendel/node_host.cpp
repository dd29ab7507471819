#include "src/mendel/node_host.h"

#include <utility>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "src/common/error.h"
#include "src/scoring/distance.h"

namespace mendel::core {

namespace {

// Fixes glibc's mmap threshold at 128 KiB, once per process. Left dynamic,
// every free of a large buffer (an arena regrowth, a reply, a rebuilt
// vp-tree level) raises it — and the trim threshold with it — to as much
// as 32 and 64 MiB, after which thread-arena heap tops stay resident even
// through malloc_trim. A fixed threshold keeps large buffers in their own
// mappings, returned to the kernel on free. Daemons live for days and
// serve from pool threads, so this is where freed memory piles up.
void pin_mmap_threshold() {
#if defined(__GLIBC__)
  static const bool pinned = [] {
    return mallopt(M_MMAP_THRESHOLD, 128 * 1024) == 1;
  }();
  (void)pinned;
#endif
}

}  // namespace

class NodeHost::HostActor final : public net::Actor {
 public:
  HostActor(NodeHost* host, net::NodeId id) : host_(host), id_(id) {}
  void handle(const net::Message& message, net::Context& ctx) override {
    host_->handle(id_, message, ctx);
  }

 private:
  NodeHost* host_;
  net::NodeId id_;
};

NodeHost::NodeHost(net::Transport* transport, NodeHostOptions options)
    : options_(std::move(options)) {
  require(transport != nullptr, "NodeHost: null transport");
  require(!options_.node_ids.empty(), "NodeHost: no node ids to host");
  pin_mmap_threshold();
  if (options_.search_threads > 0) {
    search_pool_ = std::make_unique<ThreadPool>(options_.search_threads);
  }
  for (net::NodeId id : options_.node_ids) {
    actors_.push_back(std::make_unique<HostActor>(this, id));
    transport->register_actor(id, actors_.back().get());
  }
}

NodeHost::~NodeHost() = default;

std::uint64_t NodeHost::generation() const {
  std::shared_lock lock(mu_);
  return generation_;
}

StorageNode* NodeHost::node(net::NodeId id) {
  std::shared_lock lock(mu_);
  auto it = nodes_.find(id);
  return it == nodes_.end() ? nullptr : it->second.get();
}

void NodeHost::handle(net::NodeId id, const net::Message& message,
                      net::Context& ctx) {
  if (message.type == kNodeInit) {
    apply_init(decode_payload<NodeInitPayload>(message.payload));
    return;
  }
  std::shared_lock lock(mu_);
  auto it = nodes_.find(id);
  if (it == nodes_.end()) {
    // Not initialized yet. Ack barriers so a coordinator settling against
    // a half-initialized cluster cannot deadlock; drop everything else
    // (the init broadcast precedes all data over the coordinator's FIFO
    // connection, so this only catches cross-connection races).
    if (message.type == kBarrier) {
      ctx.send(message.from, kBarrierAck, message.request_id, {});
    }
    return;
  }
  it->second->handle(message, ctx);
}

void NodeHost::apply_init(const NodeInitPayload& payload) {
  std::unique_lock lock(mu_);
  if (payload.generation == generation_) return;  // already at this epoch

  // Untrusted-boundary validation: everything below feeds constructors
  // that treat bad values as caller bugs, so reject them as bad frames.
  if (payload.alphabet > static_cast<std::uint8_t>(seq::Alphabet::kProtein)) {
    throw DecodeError("node_init: unknown alphabet " +
                      std::to_string(payload.alphabet));
  }
  if (payload.num_groups == 0 || payload.nodes_per_group == 0) {
    throw DecodeError("node_init: empty topology");
  }
  const auto alphabet = static_cast<seq::Alphabet>(payload.alphabet);

  cluster::TopologyConfig config;
  config.num_groups = payload.num_groups;
  config.nodes_per_group = payload.nodes_per_group;
  config.ring_virtual_nodes =
      static_cast<std::size_t>(payload.ring_virtual_nodes);
  config.replication = payload.replication;
  config.sequence_replication = payload.sequence_replication;
  auto topology = std::make_unique<cluster::Topology>(config);
  for (std::uint32_t group : payload.extra_node_groups) {
    if (group >= config.num_groups) {
      throw DecodeError("node_init: extra node in unknown group " +
                        std::to_string(group));
    }
    topology->add_node(group);
  }
  for (net::NodeId id : options_.node_ids) {
    if (id >= topology->total_nodes()) {
      throw DecodeError("node_init: hosted node " + std::to_string(id) +
                        " outside the " +
                        std::to_string(topology->total_nodes()) +
                        "-node topology");
    }
  }

  auto distance = std::make_unique<score::DistanceMatrix>(
      score::default_distance(alphabet));
  CodecReader tree_reader(payload.prefix_tree);
  auto prefix_tree = std::make_unique<vpt::VpPrefixTree>(
      vpt::VpPrefixTree::decode(tree_reader, distance.get()));
  if (!tree_reader.done()) {
    throw DecodeError("node_init: trailing bytes after prefix tree");
  }
  topology->bind_prefixes(prefix_tree->leaf_prefixes());

  // A re-init at a new generation replaces the node set wholesale — this
  // is the restart path, where the previous state died with the process.
  nodes_.clear();
  topology_ = std::move(topology);
  distance_ = std::move(distance);
  prefix_tree_ = std::move(prefix_tree);

  StorageNodeConfig node_config;
  node_config.topology = topology_.get();
  node_config.prefix_tree = prefix_tree_.get();
  node_config.distance = distance_.get();
  node_config.alphabet = alphabet;
  node_config.bucket_capacity =
      static_cast<std::size_t>(payload.bucket_capacity);
  node_config.database_residues = payload.database_residues;
  node_config.search_pool = search_pool_.get();
  node_config.nn_cache_capacity = options_.nn_cache_capacity;
  node_config.metrics = options_.metrics;
  node_config.trace_buffer_capacity = options_.trace_buffer_capacity;
  node_config.arena_resident_budget = options_.arena_resident_budget;
  node_config.arena_packing = options_.arena_packing;
  node_config.arena_segment_bytes = options_.arena_segment_bytes;
  node_config.prune_extensions = options_.prune_extensions;

  for (net::NodeId id : options_.node_ids) {
    auto node = std::make_unique<StorageNode>(id, node_config);
    for (std::uint32_t down : payload.down_nodes) node->set_down(down, true);
    nodes_[id] = std::move(node);
  }
  generation_ = payload.generation;
}

}  // namespace mendel::core
