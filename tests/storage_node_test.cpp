// Message-level unit tests of the StorageNode actor: each server-side role
// exercised in isolation with hand-crafted protocol messages over a
// deterministic SimTransport.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "src/common/error.h"
#include "src/common/rng.h"
#include "src/mendel/client.h"
#include "src/mendel/indexer.h"
#include "src/mendel/protocol.h"
#include "src/mendel/storage_node.h"
#include "src/net/sim_transport.h"
#include "src/workload/generator.h"

namespace mendel::core {

// Seeds bookkeeping corruptions the node's own paths never produce, so the
// audit's detection of them can be tested.
struct StorageNodeTestPeer {
  // A dedup key no stored block backs.
  static void add_stray_key(StorageNode& node, std::uint64_t key) {
    node.block_keys_.insert(key);
  }
  // A posting filed under `slot` whose key the dedup set lacks.
  static void add_unkeyed_posting(StorageNode& node, seq::SequenceId sequence,
                                  std::uint32_t start, std::uint32_t slot) {
    node.postings_.add(slot, {sequence, start, slot});
  }
  // Renames the first block recorded for arena slot `slot`.
  static void corrupt_first_block(StorageNode& node, std::uint32_t slot) {
    node.first_blocks_.at(slot) ^= 1;
  }

  static bool hamming_ball(const StorageNode& node) {
    return node.hamming_ball_;
  }
  static unsigned packed_bits(const StorageNode& node) {
    return node.arena_.packed_bits();
  }

  // An n-NN list as (distance, sequence, start) triples.
  using Ranked =
      std::vector<std::tuple<double, seq::SequenceId, std::uint32_t>>;
  // The vp-tree's n nearest blocks to `probe` within `cap`.
  static Ranked tree_nn(const StorageNode& node, const vpt::Window& probe,
                        std::size_t n, double cap) {
    const seq::CodeSpan span(probe);
    auto pins = node.arena_.pin_set();
    const StorageNode::BlockRefMetric metric{
        node.config_.distance, &node.arena_, &node.postings_, &span, &pins};
    const StorageNode::BlockRef probe_ref{0, 0,
                                          StorageNode::BlockRef::kProbeSlot};
    Ranked out;
    for (const auto& near :
         node.tree_.nearest_with(metric, probe_ref, n, cap)) {
      out.emplace_back(near.distance, near.item->sequence, near.item->start);
    }
    return out;
  }
  // The Hamming-ball walk's list, or nullopt where it leaves the search to
  // the vp-tree. Hamming nodes only.
  static std::optional<Ranked> ball_nn(const StorageNode& node,
                                       const vpt::Window& probe,
                                       std::size_t n, double cap) {
    auto pins = node.arena_.pin_set();
    const auto nearest = node.hamming_ball_nearest(probe, n, cap, pins);
    if (!nearest) return std::nullopt;
    Ranked out;
    for (const auto& near : *nearest) {
      out.emplace_back(near.distance, near.block.sequence, near.block.start);
    }
    return out;
  }
};

namespace {

// A tiny single-group cluster whose internals the tests can poke directly.
struct MiniCluster {
  cluster::Topology topology;
  const score::DistanceMatrix& distance;
  seq::SequenceStore store;
  vpt::VpPrefixTree prefix_tree;
  net::SimTransport transport;
  std::vector<std::unique_ptr<StorageNode>> nodes;
  std::vector<net::Message> client_inbox;
  std::unique_ptr<net::FunctionActor> client;

  MiniCluster()
      : topology(make_config()),
        distance(score::default_distance(seq::Alphabet::kProtein)),
        store(make_store()),
        prefix_tree(make_tree()),
        transport(net::CostModel{.measured_cpu = false}) {
    topology.bind_prefixes(prefix_tree.leaf_prefixes());
    StorageNodeConfig config;
    config.topology = &topology;
    config.prefix_tree = &prefix_tree;
    config.distance = &distance;
    config.alphabet = seq::Alphabet::kProtein;
    config.database_residues = store.total_residues();
    // These tests address nodes directly with hand-crafted, unrouted
    // blocks; the MENDEL_CHECKED placement audit would rightly reject
    // them, so it is opted out at the node level.
    config.checked_placement_audit = false;
    for (net::NodeId id = 0; id < topology.total_nodes(); ++id) {
      nodes.push_back(std::make_unique<StorageNode>(id, config));
      transport.register_actor(id, nodes.back().get());
    }
    client = std::make_unique<net::FunctionActor>(
        [this](const net::Message& m, net::Context&) {
          client_inbox.push_back(m);
        });
    transport.register_actor(net::kClientNode, client.get());
  }

  static cluster::TopologyConfig make_config() {
    cluster::TopologyConfig config;
    config.num_groups = 2;
    config.nodes_per_group = 2;
    return config;
  }

  static seq::SequenceStore make_store() {
    workload::DatabaseSpec spec;
    spec.families = 3;
    spec.members_per_family = 3;
    spec.background_sequences = 4;
    spec.min_length = 120;
    spec.max_length = 250;
    spec.seed = 11;
    return workload::generate_database(spec);
  }

  vpt::VpPrefixTree make_tree() {
    IndexingOptions options;
    options.window_length = 8;
    options.sample_size = 128;
    Indexer indexer(&topology, &distance, options);
    return indexer.build_prefix_tree(store, {.cutoff_depth = 3});
  }

  void index_everything() {
    IndexingOptions options;
    options.window_length = 8;
    options.sample_size = 128;
    Indexer indexer(&topology, &distance, options);
    indexer.index_store(store, prefix_tree, transport, net::kClientNode);
    transport.run_until_idle();
  }

  void send(net::NodeId to, std::uint32_t type, std::uint64_t request_id,
            std::vector<std::uint8_t> payload) {
    net::Message m;
    m.from = net::kClientNode;
    m.to = to;
    m.type = type;
    m.request_id = request_id;
    m.payload = std::move(payload);
    transport.send(std::move(m));
  }
};

TEST(StorageNode, StoreSequenceAndFetchRange) {
  MiniCluster mini;
  StoreSequencePayload stored;
  stored.sequence = 3;
  stored.name = "probe sequence";
  stored.codes = seq::encode_string(seq::Alphabet::kProtein,
                                    "MKVLAWHHRRMKVLAWHHRR");
  mini.send(1, kStoreSequence, 0, encode_payload(stored));
  mini.transport.run_until_idle();
  EXPECT_EQ(mini.nodes[1]->sequence_count(), 1u);

  FetchRangePayload fetch;
  fetch.purpose = 0;
  fetch.token = 9;
  fetch.sequence = 3;
  fetch.start = 5;
  fetch.length = 8;
  mini.send(1, kFetchRange, 77, encode_payload(fetch));
  mini.transport.run_until_idle();
  ASSERT_EQ(mini.client_inbox.size(), 1u);
  const auto reply = decode_payload<FetchRangeResultPayload>(
      mini.client_inbox[0].payload);
  EXPECT_EQ(reply.token, 9u);
  EXPECT_EQ(reply.start, 5u);
  EXPECT_EQ(reply.sequence_length, 20u);
  EXPECT_EQ(reply.sequence_name, "probe sequence");
  EXPECT_EQ(seq::to_string(seq::Alphabet::kProtein, reply.codes),
            "WHHRRMKV");
  EXPECT_EQ(mini.client_inbox[0].request_id, 77u);
}

TEST(StorageNode, FetchRangeClampsToSequenceEnd) {
  MiniCluster mini;
  StoreSequencePayload stored;
  stored.sequence = 1;
  stored.name = "short";
  stored.codes = seq::encode_string(seq::Alphabet::kProtein, "MKVLAW");
  mini.send(0, kStoreSequence, 0, encode_payload(stored));
  // Drain before fetching: the smaller fetch message would otherwise pay
  // less transfer delay and overtake the store.
  mini.transport.run_until_idle();
  FetchRangePayload fetch;
  fetch.sequence = 1;
  fetch.start = 4;
  fetch.length = 100;
  mini.send(0, kFetchRange, 1, encode_payload(fetch));
  mini.transport.run_until_idle();
  const auto reply = decode_payload<FetchRangeResultPayload>(
      mini.client_inbox[0].payload);
  EXPECT_EQ(seq::to_string(seq::Alphabet::kProtein, reply.codes), "AW");
}

TEST(StorageNode, FetchUnknownSequenceReturnsEmpty) {
  MiniCluster mini;
  FetchRangePayload fetch;
  fetch.sequence = 999;
  fetch.start = 0;
  fetch.length = 10;
  mini.send(0, kFetchRange, 1, encode_payload(fetch));
  mini.transport.run_until_idle();
  const auto reply = decode_payload<FetchRangeResultPayload>(
      mini.client_inbox[0].payload);
  EXPECT_TRUE(reply.codes.empty());
  EXPECT_EQ(reply.sequence_length, 0u);
}

TEST(StorageNode, InsertBlocksGrowLocalTree) {
  MiniCluster mini;
  InsertBlocksPayload payload;
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    Block block;
    block.sequence = 1;
    block.start = static_cast<std::uint32_t>(i);
    const auto s = workload::random_sequence(seq::Alphabet::kProtein, 8,
                                             "w", rng);
    block.window.assign(s.codes().begin(), s.codes().end());
    payload.blocks.push_back(std::move(block));
  }
  mini.send(2, kInsertBlocks, 0, encode_payload(payload));
  mini.transport.run_until_idle();
  EXPECT_EQ(mini.nodes[2]->block_count(), 100u);
  EXPECT_EQ(mini.nodes[2]->counters().blocks_inserted, 100u);
}

TEST(StorageNode, NodeSearchAppliesFilters) {
  MiniCluster mini;
  // Plant one block; search with its exact window and with thresholds that
  // cannot pass.
  InsertBlocksPayload payload;
  Block block;
  block.sequence = 7;
  block.start = 42;
  block.window =
      seq::encode_string(seq::Alphabet::kProtein, "MKVLAWHH");
  payload.blocks.push_back(block);
  mini.send(3, kInsertBlocks, 0, encode_payload(payload));
  mini.transport.run_until_idle();

  NodeSearchPayload search;
  search.params.n = 4;
  search.params.identity = 0.9;
  search.params.c_score = 0.9;
  Subquery sub;
  sub.query_offset = 16;
  sub.window = block.window;
  search.subqueries.push_back(sub);
  mini.send(3, kNodeSearch, 5, encode_payload(search));
  mini.transport.run_until_idle();
  ASSERT_EQ(mini.client_inbox.size(), 1u);
  auto reply = decode_payload<NodeSearchResultPayload>(
      mini.client_inbox[0].payload);
  ASSERT_EQ(reply.seeds.size(), 1u);
  EXPECT_EQ(reply.seeds[0].sequence, 7u);
  EXPECT_EQ(reply.seeds[0].subject_start, 42u);
  EXPECT_EQ(reply.seeds[0].query_offset, 16u);
  EXPECT_DOUBLE_EQ(reply.seeds[0].identity, 1.0);

  // Impossible identity threshold: no seeds.
  mini.client_inbox.clear();
  search.params.identity = 1.1;
  mini.send(3, kNodeSearch, 6, encode_payload(search));
  mini.transport.run_until_idle();
  reply = decode_payload<NodeSearchResultPayload>(
      mini.client_inbox[0].payload);
  EXPECT_TRUE(reply.seeds.empty());
}

TEST(StorageNode, QueryRequestTooShortAnswersEmptyImmediately) {
  MiniCluster mini;
  mini.index_everything();
  QueryRequestPayload request;
  request.query = seq::encode_string(seq::Alphabet::kProtein, "MKV");
  mini.send(0, kQueryRequest, 50, encode_payload(request));
  mini.transport.run_until_idle();
  ASSERT_EQ(mini.client_inbox.size(), 1u);
  EXPECT_EQ(mini.client_inbox[0].type,
            static_cast<std::uint32_t>(kQueryResult));
  const auto reply =
      decode_payload<QueryResultPayload>(mini.client_inbox[0].payload);
  EXPECT_TRUE(reply.hits.empty());
}

TEST(StorageNode, FullQueryThroughHandCraftedMessages) {
  MiniCluster mini;
  mini.index_everything();
  const auto& donor = mini.store.at(2);
  const auto window = donor.window(10, 100);
  QueryRequestPayload request;
  request.query.assign(window.begin(), window.end());
  mini.send(1, kQueryRequest, 99, encode_payload(request));
  mini.transport.run_until_idle();
  ASSERT_EQ(mini.client_inbox.size(), 1u);
  const auto reply =
      decode_payload<QueryResultPayload>(mini.client_inbox[0].payload);
  ASSERT_FALSE(reply.hits.empty());
  bool found = false;
  for (const auto& hit : reply.hits) found = found || hit.subject_id == 2;
  EXPECT_TRUE(found);
}

TEST(StorageNode, UnknownMessageTypeIsCountedAndDropped) {
  // A bad frame (any peer can send any type value) must not tear the node
  // down: the bad-frame guard counts it and the node keeps serving.
  MiniCluster mini;
  mini.send(0, 0xdead, 0, {});
  EXPECT_NO_THROW(mini.transport.run_until_idle());
  EXPECT_EQ(mini.nodes[0]->counters().decode_errors, 1u);
  EXPECT_NE(mini.nodes[0]->last_decode_error().find("unknown message type"),
            std::string::npos);
}

TEST(StorageNode, TruncatedPayloadIsCountedAndDropped) {
  MiniCluster mini;
  mini.index_everything();
  // A store-sequence frame cut short mid-payload must surface as a counted
  // decode error, not a crash or a partial store.
  StoreSequencePayload payload;
  payload.sequence = 77;
  payload.name = "trunc";
  payload.codes = {0, 1, 2, 3};
  auto bytes = encode_payload(payload);
  bytes.resize(bytes.size() / 2);
  const std::size_t before = mini.nodes[0]->sequence_count();
  mini.send(0, kStoreSequence, 0, bytes);
  EXPECT_NO_THROW(mini.transport.run_until_idle());
  EXPECT_EQ(mini.nodes[0]->counters().decode_errors, 1u);
  EXPECT_EQ(mini.nodes[0]->sequence_count(), before);
}

TEST(StorageNode, OutOfAlphabetCodesAreRejected) {
  MiniCluster mini;
  // Residue codes past the alphabet would index distance LUTs out of
  // bounds downstream; the ingress validation must reject the frame.
  StoreSequencePayload payload;
  payload.sequence = 78;
  payload.name = "hostile";
  payload.codes = {0, 1, 250};
  mini.send(0, kStoreSequence, 0, encode_payload(payload));
  EXPECT_NO_THROW(mini.transport.run_until_idle());
  EXPECT_EQ(mini.nodes[0]->counters().decode_errors, 1u);
  EXPECT_EQ(mini.nodes[0]->sequence_count(), 0u);
}

TEST(StorageNode, StaleResponsesAreIgnored) {
  MiniCluster mini;
  mini.index_everything();
  // A NodeSearchResult / GroupResult / FetchRangeResult for an unknown
  // query id must be dropped silently (stale after completion).
  NodeSearchResultPayload stale_seeds;
  mini.send(0, kNodeSearchResult, 12345, encode_payload(stale_seeds));
  GroupResultPayload stale_group;
  mini.send(0, kGroupResult, 12345, encode_payload(stale_group));
  FetchRangeResultPayload stale_fetch;
  mini.send(0, kFetchRangeResult, 12345, encode_payload(stale_fetch));
  EXPECT_NO_THROW(mini.transport.run_until_idle());
  EXPECT_TRUE(mini.client_inbox.empty());
}

TEST(StorageNode, SaveLoadRoundTripPreservesState) {
  MiniCluster mini;
  mini.index_everything();
  const auto& node = *mini.nodes[1];
  CodecWriter writer;
  node.save(writer);

  StorageNodeConfig config;
  config.topology = &mini.topology;
  config.prefix_tree = &mini.prefix_tree;
  config.distance = &mini.distance;
  config.alphabet = seq::Alphabet::kProtein;
  StorageNode restored(1, config);
  CodecReader reader(writer.data());
  restored.load(reader);
  EXPECT_EQ(restored.block_count(), node.block_count());
  EXPECT_EQ(restored.sequence_count(), node.sequence_count());
}

TEST(StorageNode, LoadRejectsWrongNodeId) {
  MiniCluster mini;
  mini.index_everything();
  CodecWriter writer;
  mini.nodes[1]->save(writer);
  StorageNodeConfig config;
  config.topology = &mini.topology;
  config.prefix_tree = &mini.prefix_tree;
  config.distance = &mini.distance;
  StorageNode other(2, config);
  CodecReader reader(writer.data());
  EXPECT_THROW(other.load(reader), InvalidArgument);
}

// ---------- packed / spilled snapshot round trips ----------

// Ranked hits must be byte-identical whether the restored cluster keeps
// its packed arenas fully resident or spills them through the block store
// under a clamped budget: out-of-core storage is a memory policy, never a
// results policy.
TEST(StorageNode, SnapshotRoundTripUnderSpillBudgetMatchesAllResident) {
  workload::DatabaseSpec spec;
  spec.alphabet = seq::Alphabet::kDna;
  spec.families = 4;
  spec.members_per_family = 3;
  spec.background_sequences = 6;
  spec.min_length = 200;
  spec.max_length = 500;
  spec.seed = 91;
  const auto store = workload::generate_database(spec);

  ClientOptions options;
  options.topology.num_groups = 2;
  options.topology.nodes_per_group = 2;
  options.indexing.window_length = 12;
  options.indexing.sample_size = 256;
  options.prefix_tree.cutoff_depth = 3;
  options.cost.measured_cpu = false;

  const std::string path = "/tmp/mendel_spill_roundtrip.bin";
  Client resident(options);
  resident.index(store);
  // DNA with no stray codes packs at 2 bits per residue.
  EXPECT_GT(resident.metrics().gauge("arena.packed_bytes"), 0);
  resident.save_index(path);

  auto spill_options = options;
  spill_options.runtime.arena_resident_budget = 1;  // clamps to store floor
  Client restored(spill_options);
  restored.load_index(path);
  EXPECT_TRUE(restored.indexed());
  EXPECT_EQ(restored.block_counts(), resident.block_counts());

  QueryParams params;
  params.matrix = "DNA";
  params.identity = 0.6;
  params.c_score = 0.4;
  params.gapped_trigger = 1.0;
  for (const seq::SequenceId donor : {1u, 5u, 9u}) {
    const auto window = store.at(donor).window(20, 150);
    const seq::Sequence query(store.alphabet(), "probe",
                              {window.begin(), window.end()});
    const auto want = resident.query(query, params);
    const auto got = restored.query(query, params);
    ASSERT_EQ(got.hits.size(), want.hits.size()) << "donor " << donor;
    for (std::size_t i = 0; i < want.hits.size(); ++i) {
      EXPECT_EQ(got.hits[i].subject_id, want.hits[i].subject_id);
      EXPECT_EQ(got.hits[i].alignment.hsp.score,
                want.hits[i].alignment.hsp.score);
      EXPECT_EQ(got.hits[i].alignment.cigar, want.hits[i].alignment.cigar);
      EXPECT_DOUBLE_EQ(got.hits[i].evalue, want.hits[i].evalue);
    }
  }
  std::remove(path.c_str());
}

// The spilled cluster's snapshot must itself be byte-identical to the
// resident cluster's: the save path reads rows back through the block
// store without an inflate/deflate round trip.
TEST(StorageNode, SpilledClusterSavesByteIdenticalSnapshot) {
  workload::DatabaseSpec spec;
  spec.alphabet = seq::Alphabet::kDna;
  spec.families = 3;
  spec.members_per_family = 3;
  spec.background_sequences = 4;
  spec.min_length = 150;
  spec.max_length = 400;
  spec.seed = 92;
  const auto store = workload::generate_database(spec);

  ClientOptions options;
  options.topology.num_groups = 2;
  options.topology.nodes_per_group = 2;
  options.indexing.window_length = 12;
  options.indexing.sample_size = 256;
  options.prefix_tree.cutoff_depth = 3;
  options.cost.measured_cpu = false;

  Client resident(options);
  resident.index(store);
  const std::string resident_path = "/tmp/mendel_snap_resident.bin";
  resident.save_index(resident_path);

  auto spill_options = options;
  spill_options.runtime.arena_resident_budget = 1;
  Client spilled(spill_options);
  spilled.index(store);
  const std::string spilled_path = "/tmp/mendel_snap_spilled.bin";
  spilled.save_index(spilled_path);

  auto slurp = [](const std::string& p) {
    std::vector<char> bytes;
    std::FILE* f = std::fopen(p.c_str(), "rb");
    EXPECT_NE(f, nullptr) << p;
    if (f != nullptr) {
      char buf[4096];
      std::size_t n = 0;
      while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) {
        bytes.insert(bytes.end(), buf, buf + n);
      }
      std::fclose(f);
    }
    return bytes;
  };
  EXPECT_EQ(slurp(spilled_path), slurp(resident_path));
  std::remove(resident_path.c_str());
  std::remove(spilled_path.c_str());
}

// One storage node alone on its own simulator, so two nodes with the same
// id (and therefore comparable snapshots) can be driven side by side.
struct SoloNode {
  net::SimTransport transport{net::CostModel{.measured_cpu = false}};
  StorageNode node;
  std::vector<net::Message> inbox;
  net::FunctionActor client{[this](const net::Message& m, net::Context&) {
    inbox.push_back(m);
  }};

  explicit SoloNode(const StorageNodeConfig& config) : node(0, config) {
    transport.register_actor(0, &node);
    transport.register_actor(net::kClientNode, &client);
  }

  // Delivers one message and returns the payload of the reply, if any.
  std::vector<std::uint8_t> deliver(std::uint32_t type,
                                    std::vector<std::uint8_t> payload) {
    inbox.clear();
    net::Message m;
    m.from = net::kClientNode;
    m.to = 0;
    m.type = type;
    m.request_id = 1;
    m.payload = std::move(payload);
    transport.send(std::move(m));
    transport.run_until_idle();
    return inbox.empty() ? std::vector<std::uint8_t>{} : inbox[0].payload;
  }

  std::vector<std::uint8_t> snapshot() const {
    CodecWriter writer;
    node.save(writer);
    return writer.data();
  }
};

// A spilled arena is a memory policy, never a results policy: a node whose
// arena spills through a block store several times smaller than its rows,
// and a heap-resident twin, fed the same insert batches, return identical
// n-NN lists after every batch and save byte-identical snapshots. No
// search or insert may leave a segment pinned.
TEST(StorageNode, SpilledAndResidentNodesAgreeAfterEveryInsertBatch) {
  workload::DatabaseSpec spec;
  spec.alphabet = seq::Alphabet::kDna;
  spec.families = 5;
  spec.members_per_family = 3;
  spec.background_sequences = 10;
  spec.min_length = 400;
  spec.max_length = 720;
  spec.seed = 93;
  const auto store = workload::generate_database(spec);

  cluster::TopologyConfig tcfg;
  tcfg.num_groups = 1;
  tcfg.nodes_per_group = 1;
  cluster::Topology topology(tcfg);
  const auto& distance = score::default_distance(seq::Alphabet::kDna);
  IndexingOptions iopt;
  iopt.window_length = 12;
  iopt.sample_size = 256;
  const Indexer indexer(&topology, &distance, iopt);
  const auto prefix_tree =
      indexer.build_prefix_tree(store, {.cutoff_depth = 2});
  topology.bind_prefixes(prefix_tree.leaf_prefixes());

  StorageNodeConfig config;
  config.topology = &topology;
  config.prefix_tree = &prefix_tree;
  config.distance = &distance;
  config.alphabet = seq::Alphabet::kDna;
  config.database_residues = store.total_residues();
  config.nn_cache_capacity = 0;  // every round searches the tree
  auto spill_config = config;
  // About two thirds of the ~48 KB of packed rows (one per distinct
  // window) stay resident.
  spill_config.arena_resident_budget = 8 * 4096;
  spill_config.arena_segment_bytes = 4096;
  SoloNode resident(config);
  SoloNode spilled(spill_config);

  std::vector<Block> blocks;
  for (const auto& sequence : store) {
    for (Block& block : make_blocks(sequence, iopt.window_length)) {
      blocks.push_back(std::move(block));
    }
  }
  NodeSearchPayload search;
  search.params.matrix = "DNA";
  search.params.n = 12;
  search.params.identity = 0.0;  // keep every neighbor: compare raw n-NN
  search.params.c_score = 0.0;
  Rng rng(0x5011D);
  for (std::uint32_t i = 0; i < 24; ++i) {
    const auto& donor = store.at(static_cast<seq::SequenceId>(
        rng.below(store.size())));
    const auto window = donor.window(
        rng.below(donor.size() - iopt.window_length), iopt.window_length);
    Subquery sub;
    sub.query_offset = i;
    sub.window.assign(window.begin(), window.end());
    // A substitution or two, so neighbors are not just the exact block.
    for (int m = 0; m < 2; ++m) {
      sub.window[rng.below(sub.window.size())] =
          static_cast<seq::Code>(rng.below(4));
    }
    search.subqueries.push_back(std::move(sub));
  }

  const std::size_t batches = 4;
  for (std::size_t b = 0; b < batches; ++b) {
    InsertBlocksPayload batch;
    for (std::size_t i = b; i < blocks.size(); i += batches) {
      batch.blocks.push_back(blocks[i]);
    }
    const auto bytes = encode_payload(batch);
    resident.deliver(kInsertBlocks, bytes);
    spilled.deliver(kInsertBlocks, bytes);
    EXPECT_EQ(spilled.node.arena_stats().pinned_segments, 0u);

    const auto want = resident.deliver(kNodeSearch, encode_payload(search));
    const auto got = spilled.deliver(kNodeSearch, encode_payload(search));
    ASSERT_FALSE(want.empty());
    EXPECT_EQ(got, want) << "n-NN lists differ after batch " << b;
    EXPECT_EQ(spilled.node.arena_stats().pinned_segments, 0u);
    EXPECT_TRUE(spilled.node.audit().empty()) << spilled.node.audit().front();
  }
  ASSERT_EQ(spilled.node.block_count(), blocks.size());
  EXPECT_GT(spilled.node.arena_stats().store.evictions, 0u)
      << "the budget never forced an eviction";
  EXPECT_EQ(spilled.snapshot(), resident.snapshot());
}

// ---------- distinct windows and postings ----------

// Low-complexity DNA where 8-mer windows repeat heavily: poly-A runs,
// dinucleotide and pentanucleotide repeats, and random sequence around a
// poly-A core, each with a few substitutions so near-duplicates sit one or
// two mismatches from the repeated windows.
seq::SequenceStore low_complexity_store() {
  seq::SequenceStore store(seq::Alphabet::kDna);
  Rng rng(0x10C0);
  const std::string bases = "ACGT";
  for (std::size_t i = 0; i < 24; ++i) {
    std::string s;
    switch (i % 4) {
      case 0:
        s.assign(60 + 7 * i, 'A');
        break;
      case 1:
        for (std::size_t j = 0; j < 40 + i; ++j) s += "AC";
        break;
      case 2:
        for (std::size_t j = 0; j < 20 + i; ++j) s += "AAGAT";
        break;
      default:
        for (std::size_t j = 0; j < 40; ++j) s += bases[rng.below(4)];
        s += std::string(24, 'A');
        for (std::size_t j = 0; j < 40; ++j) s += bases[rng.below(4)];
    }
    for (int m = 0; m < 3; ++m) s[rng.below(s.size())] = bases[rng.below(4)];
    store.add(seq::Sequence(seq::Alphabet::kDna, "lc" + std::to_string(i),
                            seq::encode_string(seq::Alphabet::kDna, s)));
  }
  return store;
}

// A one-node DNA shard over low_complexity_store(): every block routes to
// node 0, so the audit's placement checks hold.
struct DnaShard {
  static constexpr std::size_t kWindow = 8;
  seq::SequenceStore store;
  cluster::Topology topology{{.num_groups = 1, .nodes_per_group = 1}};
  const score::DistanceMatrix& distance =
      score::default_distance(seq::Alphabet::kDna);
  vpt::VpPrefixTree prefix_tree = build_tree();
  std::vector<Block> blocks;

  vpt::VpPrefixTree build_tree() {
    IndexingOptions iopt;
    iopt.window_length = kWindow;
    iopt.sample_size = 256;
    const Indexer indexer(&topology, &distance, iopt);
    return indexer.build_prefix_tree(store, {.cutoff_depth = 2});
  }

  DnaShard() : DnaShard(low_complexity_store()) {}

  explicit DnaShard(seq::SequenceStore sequences)
      : store(std::move(sequences)) {
    topology.bind_prefixes(prefix_tree.leaf_prefixes());
    for (const auto& sequence : store) {
      for (Block& block : make_blocks(sequence, kWindow)) {
        blocks.push_back(std::move(block));
      }
    }
    // Admission order decides which block stands for a repeated window;
    // shuffle it so that block is rarely the window's smallest.
    Rng rng(0x5AFF1E);
    for (std::size_t i = blocks.size(); i > 1; --i) {
      std::swap(blocks[i - 1], blocks[rng.below(i)]);
    }
  }

  StorageNodeConfig config() const {
    StorageNodeConfig c;
    c.topology = &topology;
    c.prefix_tree = &prefix_tree;
    c.distance = &distance;
    c.alphabet = seq::Alphabet::kDna;
    c.database_residues = store.total_residues();
    return c;
  }

  // Batch b of `batches`, interleaved over the shuffled blocks.
  std::vector<std::uint8_t> batch(std::size_t b, std::size_t batches) const {
    InsertBlocksPayload payload;
    for (std::size_t i = b; i < blocks.size(); i += batches) {
      payload.blocks.push_back(blocks[i]);
    }
    return encode_payload(payload);
  }

  // Probe windows around the repeated content plus random ones.
  std::vector<vpt::Window> probes() const {
    std::vector<vpt::Window> out;
    for (const char* text : {"AAAAAAAA", "AAAAGAAA", "ACACACAC", "CACACACA",
                             "AAGATAAG", "GATAAGAT", "ACGTACGT", "TTTTTTTT"}) {
      out.push_back(seq::encode_string(seq::Alphabet::kDna, text));
    }
    Rng rng(0x9809E);
    for (int i = 0; i < 8; ++i) {
      vpt::Window w = blocks[rng.below(blocks.size())].window;
      w[rng.below(w.size())] = static_cast<seq::Code>(rng.below(4));
      out.push_back(std::move(w));
    }
    return out;
  }
};

// One node_search request over `probes` with the c-score filter open, so
// the reply is the n-NN list of each probe that passes `identity` (every
// one at the default 0): (sequence, start) per seed, split by subquery.
using Hit = std::pair<seq::SequenceId, std::uint32_t>;
std::vector<std::vector<Hit>> node_nn(SoloNode& solo,
                                      const std::vector<vpt::Window>& probes,
                                      std::uint32_t n, double identity = 0.0) {
  NodeSearchPayload search;
  search.params.matrix = "DNA";
  search.params.n = n;
  search.params.identity = identity;
  search.params.c_score = std::numeric_limits<double>::lowest();
  for (std::size_t i = 0; i < probes.size(); ++i) {
    search.subqueries.push_back({static_cast<std::uint32_t>(i), probes[i]});
  }
  const auto bytes = solo.deliver(kNodeSearch, encode_payload(search));
  EXPECT_FALSE(bytes.empty());
  const auto reply = decode_payload<NodeSearchResultPayload>(bytes);
  std::vector<std::vector<Hit>> out(probes.size());
  for (const Seed& seed : reply.seeds) {
    out.at(seed.query_offset).emplace_back(seed.sequence, seed.subject_start);
  }
  return out;
}

// Brute force over every block: the n smallest under (distance, sequence,
// start). `straddles` counts probes whose n-th neighbor ties the next
// block on distance, i.e. where the tie order picks the boundary.
std::vector<Hit> brute_force_nn(const std::vector<Block>& blocks,
                                const score::DistanceMatrix& distance,
                                const vpt::Window& probe, std::size_t n,
                                std::size_t& straddles) {
  std::vector<std::tuple<double, seq::SequenceId, std::uint32_t>> all;
  all.reserve(blocks.size());
  for (const Block& block : blocks) {
    all.emplace_back(score::window_distance(distance, probe, block.window),
                     block.sequence, block.start);
  }
  std::sort(all.begin(), all.end());
  if (n < all.size() && std::get<0>(all[n - 1]) == std::get<0>(all[n])) {
    ++straddles;
  }
  std::vector<Hit> out;
  for (std::size_t i = 0; i < std::min(n, all.size()); ++i) {
    out.emplace_back(std::get<1>(all[i]), std::get<2>(all[i]));
  }
  return out;
}

// A node indexes each distinct window once, yet its n-NN lists must equal
// a brute-force oracle over every block — including where distance ties
// straddle the n-th neighbor, which only the (sequence, start) order over
// postings can settle — after every insert batch, resident and spilled.
TEST(StorageNode, DuplicateHeavyDnaMatchesBruteForceOracle) {
  const DnaShard shard;
  auto config = shard.config();
  config.nn_cache_capacity = 0;  // every round searches the tree
  auto spill_config = config;
  spill_config.arena_resident_budget = 4096;
  spill_config.arena_segment_bytes = 4096;
  SoloNode resident(config);
  SoloNode spilled(spill_config);
  const auto probes = shard.probes();

  const std::size_t batches = 4;
  std::size_t straddles = 0;
  for (std::size_t b = 0; b < batches; ++b) {
    resident.deliver(kInsertBlocks, shard.batch(b, batches));
    spilled.deliver(kInsertBlocks, shard.batch(b, batches));
    std::vector<Block> stored;
    for (std::size_t i = 0; i < shard.blocks.size(); ++i) {
      if (i % batches <= b) stored.push_back(shard.blocks[i]);
    }
    for (const std::uint32_t n : {1u, 3u, 8u, 17u, 40u, 150u}) {
      const auto want_resident = node_nn(resident, probes, n);
      const auto want_spilled = node_nn(spilled, probes, n);
      for (std::size_t p = 0; p < probes.size(); ++p) {
        const auto oracle =
            brute_force_nn(stored, shard.distance, probes[p], n, straddles);
        EXPECT_EQ(want_resident[p], oracle)
            << "resident, batch " << b << ", n " << n << ", probe " << p;
        EXPECT_EQ(want_spilled[p], oracle)
            << "spilled, batch " << b << ", n " << n << ", probe " << p;
      }
    }
    EXPECT_TRUE(resident.node.audit().empty())
        << resident.node.audit().front();
    EXPECT_TRUE(spilled.node.audit().empty()) << spilled.node.audit().front();
  }
  EXPECT_GT(straddles, 0u) << "no probe put a distance tie on the boundary";
  ASSERT_EQ(resident.node.block_count(), shard.blocks.size());
  EXPECT_EQ(resident.node.counters().blocks_inserted, shard.blocks.size());
  // Heavy duplication is the point of the shard.
  EXPECT_LT(resident.node.window_count() * 4, resident.node.block_count());
  EXPECT_EQ(spilled.snapshot(), resident.snapshot());
}

// Regression: a batch whose blocks all repeat windows the node already
// holds adds no tree item, but it still changes the n-NN answer when one
// of its blocks wins a boundary tie. The NN cache must not serve the
// stale seed list.
TEST(StorageNode, PostingOnlyBatchInvalidatesNnCache) {
  const DnaShard shard;
  SoloNode solo(shard.config());
  auto block = [](seq::SequenceId sequence, std::uint32_t start,
                  const char* window) {
    return Block{sequence, start,
                 seq::encode_string(seq::Alphabet::kDna, window)};
  };
  InsertBlocksPayload first;
  first.blocks = {block(10, 0, "ACGTACGT"), block(10, 20, "ACGTACGA"),
                  block(11, 0, "ACGTACGA"), block(12, 0, "TTTTTTTT")};
  solo.deliver(kInsertBlocks, encode_payload(first));
  const std::vector<vpt::Window> probe = {
      seq::encode_string(seq::Alphabet::kDna, "ACGTACGT")};
  // n = 2: the exact block, then the first of the two one-mismatch blocks
  // in (sequence, start) order.
  const std::vector<Hit> before = {{10, 0}, {10, 20}};
  EXPECT_EQ(node_nn(solo, probe, 2)[0], before);
  EXPECT_EQ(node_nn(solo, probe, 2)[0], before);  // now from the cache
  EXPECT_EQ(solo.node.counters().nn_cache_hits, 1u);
  const std::size_t windows = solo.node.window_count();

  InsertBlocksPayload second;
  second.blocks = {block(3, 5, "ACGTACGA"), block(13, 0, "TTTTTTTT")};
  solo.deliver(kInsertBlocks, encode_payload(second));
  EXPECT_EQ(solo.node.window_count(), windows) << "no window was new";
  EXPECT_EQ(solo.node.block_count(), 6u);
  EXPECT_EQ(solo.node.nn_cache_entries(), 0u);
  const std::vector<Hit> after = {{10, 0}, {3, 5}};
  EXPECT_EQ(node_nn(solo, probe, 2)[0], after);
  EXPECT_TRUE(solo.node.audit().empty()) << solo.node.audit().front();
}

// Snapshots hold one row per block in (sequence, start) order: a node
// restored from one saves the same bytes and answers the same n-NN lists,
// and a snapshot in any other block order — as earlier versions wrote
// them, in arena-slot order — loads to the same node.
TEST(StorageNode, DuplicateHeavySnapshotRoundTrip) {
  const DnaShard shard;
  auto config = shard.config();
  config.nn_cache_capacity = 0;
  SoloNode original(config);
  for (std::size_t b = 0; b < 3; ++b) {
    original.deliver(kInsertBlocks, shard.batch(b, 3));
  }
  const auto snapshot = original.snapshot();
  const auto probes = shard.probes();
  const auto want = node_nn(original, probes, 17);

  SoloNode restored(config);
  CodecReader reader(snapshot);
  restored.node.load(reader);
  EXPECT_EQ(restored.node.block_count(), original.node.block_count());
  EXPECT_EQ(restored.node.window_count(), original.node.window_count());
  EXPECT_EQ(restored.node.counters().blocks_restored, shard.blocks.size());
  EXPECT_EQ(restored.snapshot(), snapshot);
  EXPECT_EQ(node_nn(restored, probes, 17), want);
  EXPECT_TRUE(restored.node.audit().empty()) << restored.node.audit().front();

  // The same blocks in admission order, one 2-bit row each.
  CodecWriter legacy;
  legacy.str("mendel-node-v2");
  legacy.u32(0);
  legacy.u32(DnaShard::kWindow);
  legacy.u8(2);
  legacy.u32(static_cast<std::uint32_t>(shard.blocks.size()));
  for (const Block& block : shard.blocks) {
    legacy.u32(block.sequence);
    legacy.u32(block.start);
  }
  const std::size_t row_bytes =
      vpt::WindowArena::payload_bytes(DnaShard::kWindow, 2);
  legacy.u64(shard.blocks.size() * row_bytes);
  std::vector<std::uint8_t> row(row_bytes);
  for (const Block& block : shard.blocks) {
    vpt::WindowArena::encode_row_to(row.data(), block.window, 2);
    legacy.raw(std::span<const std::uint8_t>(row.data(), row.size()));
  }
  legacy.u32(0);  // no stored sequences
  SoloNode from_legacy(config);
  CodecReader legacy_reader(legacy.data());
  from_legacy.node.load(legacy_reader);
  EXPECT_EQ(from_legacy.snapshot(), snapshot);
  EXPECT_EQ(node_nn(from_legacy, probes, 17), want);
}

// Rebalance moves blocks, not windows: ownership hashes each block's
// identity, so one repeated window's postings split across the group's
// new owners. Nothing is lost or duplicated and ranked hits are unchanged.
TEST(StorageNode, RebalanceSplitsOneWindowsPostingsAcrossOwners) {
  const auto store = low_complexity_store();
  ClientOptions options;
  options.topology.num_groups = 1;
  options.topology.nodes_per_group = 1;
  options.indexing.window_length = DnaShard::kWindow;
  options.indexing.sample_size = 256;
  options.prefix_tree.cutoff_depth = 2;
  options.cost.measured_cpu = false;
  Client client(options);
  client.index(store);
  // The dedup ratio is readable from the metrics: blocks against windows.
  const auto metrics = client.metrics();
  EXPECT_EQ(metrics.gauge("arena.windows"),
            static_cast<std::int64_t>(client.node(0).window_count()));
  EXPECT_EQ(metrics.counter("node.blocks_inserted"),
            client.node(0).block_count());
  EXPECT_LT(client.node(0).window_count() * 4, client.node(0).block_count());

  QueryParams params;
  params.matrix = "DNA";
  params.identity = 0.6;
  params.c_score = 0.4;
  std::vector<seq::Sequence> queries;
  for (const seq::SequenceId donor : {1u, 3u, 6u}) {
    const auto window = store.at(donor).window(10, 60);
    queries.emplace_back(store.alphabet(), "probe",
                         std::vector<seq::Code>(window.begin(), window.end()));
  }
  std::vector<QueryOutcome> before;
  for (const auto& query : queries) {
    before.push_back(client.query(query, params));
  }
  const std::size_t total = client.node(0).block_count();

  const net::NodeId added = client.add_node(0);
  // Which nodes now hold the poly-A window's postings.
  const auto poly_a = seq::encode_string(seq::Alphabet::kDna, "AAAAAAAA");
  std::set<net::NodeId> poly_a_holders;
  std::set<Hit> stored;
  for (const net::NodeId id : {net::NodeId{0}, added}) {
    EXPECT_TRUE(client.node(id).audit().empty())
        << client.node(id).audit().front();
    EXPECT_GT(client.node(id).block_count(), 0u) << "node " << id;
    for (const Block& block : client.node(id).blocks()) {
      if (block.window == poly_a) poly_a_holders.insert(id);
      EXPECT_TRUE(stored.emplace(block.sequence, block.start).second)
          << "block (" << block.sequence << ", " << block.start
          << ") stored twice";
    }
  }
  EXPECT_EQ(stored.size(), total);
  EXPECT_EQ(poly_a_holders.size(), 2u)
      << "the poly-A window's postings did not split";

  for (std::size_t q = 0; q < queries.size(); ++q) {
    const auto after = client.query(queries[q], params);
    ASSERT_EQ(after.hits.size(), before[q].hits.size()) << "query " << q;
    for (std::size_t i = 0; i < after.hits.size(); ++i) {
      EXPECT_EQ(after.hits[i].subject_id, before[q].hits[i].subject_id);
      EXPECT_EQ(after.hits[i].alignment.hsp.score,
                before[q].hits[i].alignment.hsp.score);
      EXPECT_EQ(after.hits[i].alignment.cigar,
                before[q].hits[i].alignment.cigar);
    }
  }
}

// The audit's posting count must equal the dedup key set: a stray key, or
// a posting the key set lacks, is reported.
TEST(StorageNode, AuditFlagsPostingKeyMismatch) {
  const DnaShard shard;
  SoloNode solo(shard.config());
  solo.deliver(kInsertBlocks, shard.batch(0, 1));
  ASSERT_TRUE(solo.node.audit().empty()) << solo.node.audit().front();
  auto mentions = [](const std::vector<std::string>& violations,
                     const std::string& what) {
    return std::any_of(violations.begin(), violations.end(),
                       [&](const std::string& v) {
                         return v.find(what) != std::string::npos;
                       });
  };

  SoloNode stray(shard.config());
  stray.deliver(kInsertBlocks, shard.batch(0, 1));
  StorageNodeTestPeer::add_stray_key(stray.node, 0xfffffffe00000000ULL);
  EXPECT_TRUE(mentions(stray.node.audit(), "block postings but the dedup "
                                           "key set holds"));

  StorageNodeTestPeer::add_unkeyed_posting(solo.node, 0xfffffffe, 0, 0);
  const auto violations = solo.node.audit();
  EXPECT_TRUE(mentions(violations, "block postings but the dedup key set"));
  EXPECT_TRUE(mentions(violations, "missing from the dedup key set"));
}

// --- Hamming-ball n-NN ------------------------------------------------------

// low_complexity_store() plus random sequence, so a node holds several
// thousand distinct windows and the lookup walk reaches radius 3 within
// its budget. `with_n` adds ambiguity bases, single and in runs, which
// widen a 2-bit arena to 4 bits.
seq::SequenceStore mixed_store(bool with_n) {
  seq::SequenceStore store = low_complexity_store();
  Rng rng(with_n ? 0x4E4E : 0xACE);
  const std::string bases = with_n ? "ACGTACGTACGTN" : "ACGT";
  for (std::size_t i = 0; i < 40; ++i) {
    std::string s;
    for (std::size_t j = 0; j < 150; ++j) s += bases[rng.below(bases.size())];
    if (with_n && i % 6 == 0) s.replace(40, 9, "NNNNNNNNN");
    store.add(seq::Sequence(seq::Alphabet::kDna, "mx" + std::to_string(i),
                            seq::encode_string(seq::Alphabet::kDna, s)));
  }
  return store;
}

// DnaShard probes plus ones holding N: one N in a repeated window, N in a
// random stored window, and the all-N window.
std::vector<vpt::Window> hamming_probes(const DnaShard& shard) {
  auto out = shard.probes();
  for (const char* text : {"AAAANAAA", "NNNNNNNN", "ACACNCAC"}) {
    out.push_back(seq::encode_string(seq::Alphabet::kDna, text));
  }
  Rng rng(0x7AB);
  for (int i = 0; i < 4; ++i) {
    vpt::Window w = shard.blocks[rng.below(shard.blocks.size())].window;
    w[rng.below(w.size())] = seq::kDnaN;
    out.push_back(std::move(w));
  }
  return out;
}

// Identity filters and the radius caps they give at k = 8: 1 -> 0,
// 0.875 -> 1, 0.625 -> exactly 3, 0.6 -> 3.2, 1.5 -> negative, and 0 ->
// 8, which a large n drives past the lookup budget.
constexpr std::array<double, 6> kBallIdentities = {1.0, 0.875, 0.625,
                                                   0.6, 1.5,   0.0};
// n = 100000 exceeds every block within any cap.
constexpr std::array<std::size_t, 5> kBallNs = {0, 1, 3, 16, 100000};

double cap_of(double identity) {
  return (1.0 - identity) * static_cast<double>(DnaShard::kWindow);
}

// What the engine checks below saw.
struct EngineTally {
  std::size_t ball = 0;        // searches the lookup walk answered
  std::size_t fallback = 0;    // searches it left to the vp-tree
  std::size_t straddles = 0;   // ball answers whose n-th block ties the next
  std::size_t short_ball = 0;  // ball answers with fewer than n blocks
};

// Both engines against brute force over `stored`, for every probe and
// every (identity, n) case: the vp-tree always, the Hamming-ball walk
// wherever it answers, and the walk must leave identity 0 with the
// largest n to the tree.
void expect_engines_agree(const StorageNode& node,
                          const std::vector<Block>& stored,
                          const std::vector<vpt::Window>& probes,
                          const std::string& label, EngineTally& tally) {
  using Peer = StorageNodeTestPeer;
  ASSERT_TRUE(Peer::hamming_ball(node)) << label;
  const auto& distance = score::default_distance(seq::Alphabet::kDna);
  for (std::size_t p = 0; p < probes.size(); ++p) {
    Peer::Ranked all;
    for (const Block& block : stored) {
      all.emplace_back(
          score::window_distance(distance, probes[p], block.window),
          block.sequence, block.start);
    }
    std::sort(all.begin(), all.end());
    for (const double identity : kBallIdentities) {
      const double cap = cap_of(identity);
      const auto within = static_cast<std::size_t>(
          std::count_if(all.begin(), all.end(), [&](const auto& entry) {
            return std::get<0>(entry) <= cap;
          }));
      for (const std::size_t n : kBallNs) {
        const std::string where = label + ", probe " + std::to_string(p) +
                                  ", identity " + std::to_string(identity) +
                                  ", n " + std::to_string(n);
        const Peer::Ranked want(all.begin(),
                                all.begin() + std::min(n, within));
        EXPECT_EQ(Peer::tree_nn(node, probes[p], n, cap), want) << where;
        const auto ball = Peer::ball_nn(node, probes[p], n, cap);
        if (identity == 0.0 && n == kBallNs.back()) {
          EXPECT_FALSE(ball.has_value()) << where;
        }
        if (!ball) {
          ++tally.fallback;
          continue;
        }
        ++tally.ball;
        EXPECT_EQ(*ball, want) << where;
        if (n > 0 && n < within &&
            std::get<0>(all[n - 1]) == std::get<0>(all[n])) {
          ++tally.straddles;
        }
        if (within < n) ++tally.short_ball;
      }
    }
  }
}

// On a Hamming (DNA) node the n-NN lookup walk returns exactly the
// vp-tree's list and a brute-force (distance, sequence, start) list — on
// 2-bit arenas and on 4-bit arenas that store N windows, heap and
// spilled, for probes with and without N, integer and fractional caps,
// boundary tie classes, n past every block within the cap, n = 0, an
// identity above 1, and identity 0, which exhausts the lookup budget.
// Node search replies match the filtered oracle, and a restored snapshot
// answers the same.
TEST(StorageNode, HammingBallMatchesTreeAndBruteForce) {
  for (const bool with_n : {false, true}) {
    const DnaShard shard(mixed_store(with_n));
    const auto probes = hamming_probes(shard);
    for (const bool spill : {false, true}) {
      const std::string label = std::string(with_n ? "4-bit" : "2-bit") +
                                (spill ? " spilled" : " heap");
      auto config = shard.config();
      config.nn_cache_capacity = 0;
      if (spill) {
        config.arena_resident_budget = 16384;
        config.arena_segment_bytes = 4096;
      }
      SoloNode solo(config);
      for (std::size_t b = 0; b < 3; ++b) {
        solo.deliver(kInsertBlocks, shard.batch(b, 3));
      }
      ASSERT_EQ(solo.node.block_count(), shard.blocks.size()) << label;
      EXPECT_EQ(StorageNodeTestPeer::packed_bits(solo.node), with_n ? 4u : 2u)
          << label;
      EXPECT_TRUE(solo.node.audit().empty()) << solo.node.audit().front();

      EngineTally tally;
      expect_engines_agree(solo.node, shard.blocks, probes, label, tally);
      EXPECT_GT(tally.ball, 0u) << label;
      EXPECT_GT(tally.fallback, 0u) << label;
      EXPECT_GT(tally.straddles, 0u) << label;
      EXPECT_GT(tally.short_ball, 0u) << label;

      // Through node_search: the same lists, cut by the identity filter.
      const std::uint64_t searches_before = solo.node.counters().nn_searches;
      for (const double identity : kBallIdentities) {
        for (const std::size_t n : {std::size_t{0}, std::size_t{16},
                                    kBallNs.back()}) {
          const auto got = node_nn(solo, probes,
                                   static_cast<std::uint32_t>(n), identity);
          for (std::size_t p = 0; p < probes.size(); ++p) {
            std::vector<Hit> want;
            const auto tree = StorageNodeTestPeer::tree_nn(
                solo.node, probes[p], n, cap_of(identity));
            for (const auto& [d, sequence, start] : tree) {
              const double kept =
                  1.0 - d / static_cast<double>(DnaShard::kWindow);
              if (kept >= identity) want.emplace_back(sequence, start);
            }
            EXPECT_EQ(got[p], want) << label << ", probe " << p
                                    << ", identity " << identity << ", n "
                                    << n;
          }
        }
      }
      const NodeCounters& counters = solo.node.counters();
      const std::uint64_t searched = counters.nn_searches - searches_before;
      EXPECT_EQ(searched, probes.size() * kBallIdentities.size() * 3);
      EXPECT_GT(counters.nn_ball_searches, 0u) << label;
      EXPECT_LT(counters.nn_ball_searches, searched) << label;

      // A restored snapshot rebuilds the first-block table (spilled
      // snapshots are byte-identical to heap ones, so heap suffices).
      if (spill) continue;
      SoloNode restored(config);
      const auto snapshot = solo.snapshot();
      CodecReader reader(snapshot);
      restored.node.load(reader);
      EXPECT_TRUE(restored.node.audit().empty())
          << restored.node.audit().front();
      EngineTally restored_tally;
      expect_engines_agree(restored.node, shard.blocks, probes,
                           label + " restored", restored_tally);
      EXPECT_EQ(restored_tally.ball, tally.ball) << label;
    }
  }
}

// After a rebalance splits one window's postings across two nodes, each
// node's lookup walk still agrees with its vp-tree and with brute force
// over the blocks it kept.
TEST(StorageNode, HammingBallExactAfterRebalance) {
  const DnaShard shard(mixed_store(false));
  ClientOptions options;
  options.topology.num_groups = 1;
  options.topology.nodes_per_group = 1;
  options.indexing.window_length = DnaShard::kWindow;
  options.indexing.sample_size = 256;
  options.prefix_tree.cutoff_depth = 2;
  options.cost.measured_cpu = false;
  Client client(options);
  client.index(shard.store);
  const net::NodeId added = client.add_node(0);
  const auto poly_a = seq::encode_string(seq::Alphabet::kDna, "AAAAAAAA");
  const auto probes = hamming_probes(shard);
  std::size_t holders = 0;
  EngineTally tally;
  for (const net::NodeId id : {net::NodeId{0}, added}) {
    const StorageNode& node = client.node(id);
    EXPECT_TRUE(node.audit().empty()) << node.audit().front();
    const auto stored = node.blocks();
    holders += std::any_of(stored.begin(), stored.end(),
                           [&](const Block& b) { return b.window == poly_a; });
    expect_engines_agree(node, stored, probes,
                         "node " + std::to_string(id), tally);
  }
  EXPECT_EQ(holders, 2u) << "the poly-A window's postings did not split";
  EXPECT_GT(tally.ball, 0u);
  EXPECT_GT(tally.straddles, 0u);
}

// A BLOSUM-derived protein metric is no mismatch indicator: its nodes
// always search the vp-tree and keep no first-block table.
TEST(StorageNode, ProteinNodesNeverTakeTheHammingBall) {
  MiniCluster mini;
  mini.index_everything();
  const auto& donor = mini.store.at(0);
  const auto window = donor.window(0, 100);
  QueryRequestPayload request;
  request.query.assign(window.begin(), window.end());
  mini.send(0, kQueryRequest, 7, encode_payload(request));
  mini.transport.run_until_idle();
  ASSERT_EQ(mini.client_inbox.size(), 1u);
  std::uint64_t misses = 0;
  for (const auto& node : mini.nodes) {
    EXPECT_FALSE(StorageNodeTestPeer::hamming_ball(*node));
    EXPECT_EQ(node->counters().nn_ball_searches, 0u);
    misses += node->counters().nn_cache_misses;
    EXPECT_TRUE(node->audit().empty()) << node->audit().front();
  }
  EXPECT_GT(misses, 0u);
}

// The audit checks each slot's first block against its vp-tree item.
TEST(StorageNode, AuditFlagsFirstBlockMismatch) {
  const DnaShard shard;
  SoloNode solo(shard.config());
  solo.deliver(kInsertBlocks, shard.batch(0, 1));
  ASSERT_TRUE(solo.node.audit().empty()) << solo.node.audit().front();
  StorageNodeTestPeer::corrupt_first_block(solo.node, 0);
  const auto violations = solo.node.audit();
  ASSERT_FALSE(violations.empty());
  EXPECT_NE(violations.front().find("first-block table does not map arena "
                                    "slot 0"),
            std::string::npos)
      << violations.front();
}

TEST(StorageNode, DownNodesExcludedFromFanOut) {
  MiniCluster mini;
  mini.index_everything();
  // Mark node 1 down everywhere (and drop its traffic).
  for (auto& node : mini.nodes) node->set_down(1, true);
  mini.transport.fail_node(1);
  const auto& donor = mini.store.at(0);
  const auto window = donor.window(0, 100);
  QueryRequestPayload request;
  request.query.assign(window.begin(), window.end());
  mini.send(0, kQueryRequest, 7, encode_payload(request));
  // Must complete without stalling (no response from node 1 is awaited).
  mini.transport.run_until_idle();
  ASSERT_EQ(mini.client_inbox.size(), 1u);
}

}  // namespace
}  // namespace mendel::core
