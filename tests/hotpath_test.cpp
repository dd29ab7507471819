// Tests for the fused node-local NN hot path: bounded (early-abandon)
// distance kernels, the SoA window arena, k-NN exactness under abandonment,
// serial-vs-parallel indexing determinism, and snapshot restore counters.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>

#include "src/common/error.h"
#include "src/mendel/client.h"
#include "src/mendel/indexer.h"
#include "src/mendel/protocol.h"
#include "src/scoring/distance.h"
#include "src/vptree/dynamic_vptree.h"
#include "src/vptree/window_arena.h"
#include "src/workload/generator.h"

namespace mendel {
namespace {

std::vector<vpt::Window> random_windows(seq::Alphabet alphabet,
                                        std::size_t count, std::size_t length,
                                        std::uint64_t seed) {
  Rng rng(seed);
  std::vector<vpt::Window> windows;
  windows.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto s = workload::random_sequence(alphabet, length, "w", rng);
    windows.emplace_back(s.codes().begin(), s.codes().end());
  }
  return windows;
}

// ---------- bounded kernel properties ----------

TEST(HotPath, BoundedMatchesUnboundedAtInfinity) {
  for (const auto alphabet : {seq::Alphabet::kProtein, seq::Alphabet::kDna}) {
    const auto& d = score::default_distance(alphabet);
    const auto windows = random_windows(alphabet, 64, 12, 101);
    for (std::size_t i = 0; i + 1 < windows.size(); i += 2) {
      const double full = score::window_distance(d, windows[i], windows[i + 1]);
      const double bounded = score::window_distance_bounded(
          d, windows[i], windows[i + 1],
          std::numeric_limits<double>::infinity());
      // Identical accumulation order: bit-exact, not just approximately equal.
      EXPECT_EQ(full, bounded);
    }
  }
}

TEST(HotPath, BoundedAbandonStaysAdmissible) {
  const auto& d = score::default_distance(seq::Alphabet::kProtein);
  const auto windows = random_windows(seq::Alphabet::kProtein, 64, 12, 102);
  for (std::size_t i = 0; i + 1 < windows.size(); i += 2) {
    const double full = score::window_distance(d, windows[i], windows[i + 1]);
    const double bound = full / 2.0;
    const double value =
        score::window_distance_bounded(d, windows[i], windows[i + 1], bound);
    if (full <= bound) {
      EXPECT_EQ(value, full);
    } else {
      // Abandoned: the partial sum exceeds the bound but never overshoots
      // the true distance (distances are non-negative per cell).
      EXPECT_GT(value, bound);
      EXPECT_LE(value, full);
    }
  }
}

TEST(HotPath, FlattenedMatrixRowAccessor) {
  const auto& d = score::default_distance(seq::Alphabet::kProtein);
  for (seq::Code a = 0; a < 24; ++a) {
    const double* row = d.row(a);
    for (seq::Code b = 0; b < 24; ++b) {
      EXPECT_EQ(row[b], d.at(a, b));
    }
  }
}

// ---------- window arena ----------

TEST(HotPath, WindowArenaFixesLengthAndRoundTrips) {
  vpt::WindowArena arena;
  EXPECT_EQ(arena.window_length(), 0u);
  EXPECT_TRUE(arena.empty());

  const auto windows = random_windows(seq::Alphabet::kProtein, 8, 10, 103);
  std::vector<std::uint32_t> slots;
  for (const auto& w : windows) {
    slots.push_back(arena.append(seq::CodeSpan(w)));
  }
  EXPECT_EQ(arena.window_length(), 10u);
  EXPECT_EQ(arena.size(), windows.size());
  for (std::size_t i = 0; i < windows.size(); ++i) {
    const seq::CodeSpan span(arena.row_data(slots[i]), arena.window_length());
    EXPECT_TRUE(std::equal(span.begin(), span.end(), windows[i].begin(),
                           windows[i].end()));
  }

  // The first append fixed the length; mismatches are rejected.
  const auto other = random_windows(seq::Alphabet::kProtein, 1, 9, 104);
  EXPECT_THROW(arena.append(seq::CodeSpan(other[0])), InvalidArgument);
  arena.clear();
  EXPECT_TRUE(arena.empty());
  EXPECT_EQ(arena.window_length(), 10u);  // length survives clear()
}

// ---------- k-NN exactness under early abandonment ----------

struct BoundedWindowMetric {
  const score::DistanceMatrix* distance;
  double operator()(const vpt::Window& a, const vpt::Window& b) const {
    return score::window_distance(*distance, a, b);
  }
  double bounded(const vpt::Window& a, const vpt::Window& b,
                 double bound) const {
    return score::window_distance_bounded(*distance, a, b, bound);
  }
};

TEST(HotPath, KnnWithEarlyAbandonMatchesBruteForce) {
  const auto& d = score::default_distance(seq::Alphabet::kProtein);
  const auto windows = random_windows(seq::Alphabet::kProtein, 800, 8, 105);
  vpt::DynamicVpTree<vpt::Window, BoundedWindowMetric> tree(
      BoundedWindowMetric{&d}, {.bucket_capacity = 16});
  tree.insert_batch(windows);

  const auto probes = random_windows(seq::Alphabet::kProtein, 24, 8, 106);
  for (const auto& probe : probes) {
    std::vector<double> brute;
    brute.reserve(windows.size());
    for (const auto& w : windows) {
      brute.push_back(score::window_distance(d, probe, w));
    }
    std::sort(brute.begin(), brute.end());
    const auto neighbors = tree.nearest(probe, 16);
    ASSERT_EQ(neighbors.size(), 16u);
    for (std::size_t i = 0; i < neighbors.size(); ++i) {
      EXPECT_EQ(neighbors[i].distance, brute[i]);
    }
  }
}

// ---------- serial vs parallel indexing determinism ----------

// Captures every message verbatim in send order — the strongest possible
// equality: identical bytes, identical order, regardless of thread count.
class RecordingTransport : public net::Transport {
 public:
  void register_actor(net::NodeId, net::Actor*) override {}
  void send(net::Message message) override {
    sent.push_back(std::move(message));
  }
  net::NetworkStats stats() const override { return {}; }

  std::vector<net::Message> sent;
};

seq::SequenceStore determinism_store() {
  workload::DatabaseSpec spec;
  spec.families = 5;
  spec.members_per_family = 3;
  spec.background_sequences = 8;
  spec.min_length = 120;
  spec.max_length = 350;
  spec.seed = 21;
  return workload::generate_database(spec);
}

TEST(HotPath, SerialAndParallelIndexingBitIdentical) {
  const auto store = determinism_store();
  const auto& distance = score::default_distance(seq::Alphabet::kProtein);
  cluster::TopologyConfig config;
  config.num_groups = 3;
  config.nodes_per_group = 2;

  core::IndexingOptions options;
  options.sample_size = 256;
  options.batch_size = 64;

  std::vector<std::vector<net::Message>> streams;
  std::vector<std::vector<std::uint8_t>> trees;
  std::vector<core::IndexReport> reports;
  for (unsigned threads : {1u, 4u}) {
    options.threads = threads;
    cluster::Topology topology(config);
    core::Indexer indexer(&topology, &distance, options);
    auto tree = indexer.build_prefix_tree(store, {.cutoff_depth = 4});
    topology.bind_prefixes(tree.leaf_prefixes());
    CodecWriter writer;
    tree.encode(writer);
    trees.push_back(writer.data());

    RecordingTransport transport;
    reports.push_back(
        indexer.index_store(store, tree, transport, net::kClientNode));
    streams.push_back(std::move(transport.sent));
  }

  EXPECT_EQ(trees[0], trees[1]);
  EXPECT_EQ(reports[0].sequences, reports[1].sequences);
  EXPECT_EQ(reports[0].blocks, reports[1].blocks);
  EXPECT_EQ(reports[0].messages, reports[1].messages);
  ASSERT_EQ(streams[0].size(), streams[1].size());
  for (std::size_t i = 0; i < streams[0].size(); ++i) {
    EXPECT_EQ(streams[0][i].to, streams[1][i].to);
    EXPECT_EQ(streams[0][i].type, streams[1][i].type);
    EXPECT_EQ(streams[0][i].payload, streams[1][i].payload);
  }
}

std::vector<char> file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

core::ClientOptions client_options(unsigned threads) {
  core::ClientOptions options;
  options.topology.num_groups = 3;
  options.topology.nodes_per_group = 2;
  options.indexing.sample_size = 256;
  options.indexing.threads = threads;
  options.prefix_tree.cutoff_depth = 4;
  options.cost.measured_cpu = false;
  return options;
}

TEST(HotPath, SerialAndParallelSnapshotsByteIdentical) {
  const auto store = determinism_store();
  const std::string serial_path = "/tmp/mendel_hotpath_serial.bin";
  const std::string parallel_path = "/tmp/mendel_hotpath_parallel.bin";

  core::Client serial(client_options(1));
  serial.index(store);
  serial.save_index(serial_path);

  core::Client parallel(client_options(4));
  parallel.index(store);
  parallel.save_index(parallel_path);

  EXPECT_EQ(file_bytes(serial_path), file_bytes(parallel_path));
  std::remove(serial_path.c_str());
  std::remove(parallel_path.c_str());
}

// ---------- restore counters (regression: load once double-counted) ----------

TEST(HotPath, LoadCountsRestoredSeparatelyFromInserted) {
  const auto store = determinism_store();
  const std::string path = "/tmp/mendel_hotpath_restore.bin";

  core::Client original(client_options(1));
  original.index(store);
  const auto built = original.total_counters();
  EXPECT_GT(built.blocks_inserted, 0u);
  EXPECT_EQ(built.blocks_restored, 0u);
  EXPECT_EQ(built.sequences_restored, 0u);
  original.save_index(path);

  core::Client restored(client_options(1));
  restored.load_index(path);
  const auto loaded = restored.total_counters();
  // A restore is not an insert: the live-traffic counters stay zero and the
  // restored totals mirror what the original cluster held.
  EXPECT_EQ(loaded.blocks_inserted, 0u);
  EXPECT_EQ(loaded.sequences_stored, 0u);
  EXPECT_EQ(loaded.blocks_restored, built.blocks_inserted);
  EXPECT_EQ(loaded.sequences_restored, built.sequences_stored);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mendel
