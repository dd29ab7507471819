// Unit and property tests for src/vptree: the dynamic tree and the
// vp-prefix LSH. The central property is *exactness*: k-NN over a metric
// must return exactly the brute-force answer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "src/common/rng.h"
#include "src/scoring/distance.h"
#include "src/vptree/dynamic_vptree.h"
#include "src/vptree/prefix_tree.h"
#include "src/workload/generator.h"

namespace mendel::vpt {
namespace {

struct L1 {
  double operator()(double a, double b) const { return std::abs(a - b); }
};

std::vector<double> random_points(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> points;
  points.reserve(n);
  for (std::size_t i = 0; i < n; ++i) points.push_back(rng.uniform() * 100);
  return points;
}

std::vector<double> brute_force_knn(const std::vector<double>& points,
                                    double target, std::size_t n) {
  std::vector<double> dists;
  dists.reserve(points.size());
  for (double p : points) dists.push_back(std::abs(p - target));
  std::sort(dists.begin(), dists.end());
  dists.resize(std::min(n, dists.size()));
  return dists;
}

// ---------- DynamicVpTree ----------

class DynamicExactnessTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(DynamicExactnessTest, KnnExactAfterIncrementalInserts) {
  const auto points = random_points(800, GetParam());
  DynamicVpTree<double, L1> tree(L1{}, {.bucket_capacity = 8});
  std::vector<double> inserted;
  for (double p : points) {
    tree.insert(p);
    inserted.push_back(p);
  }
  EXPECT_EQ(tree.size(), inserted.size());
  Rng rng(GetParam() ^ 0x999);
  for (int trial = 0; trial < 10; ++trial) {
    const double target = rng.uniform() * 100;
    const auto got = tree.nearest(target, 7);
    const auto expected = brute_force_knn(inserted, target, 7);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_NEAR(got[i].distance, expected[i], 1e-12);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DynamicExactnessTest,
                         ::testing::Values(21, 22, 23, 24, 25));

TEST(DynamicVpTree, BatchInsertExact) {
  Rng rng(31);
  DynamicVpTree<double, L1> tree(L1{}, {.bucket_capacity = 8});
  std::vector<double> all;
  for (int batch = 0; batch < 6; ++batch) {
    const auto points = random_points(150, 31 + batch);
    all.insert(all.end(), points.begin(), points.end());
    tree.insert_batch(points);
  }
  EXPECT_EQ(tree.size(), all.size());
  const auto got = tree.nearest(50.0, 12);
  const auto expected = brute_force_knn(all, 50.0, 12);
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i].distance, expected[i], 1e-12);
  }
}

TEST(DynamicVpTree, SortedInsertionStaysBalancedWithRebalancing) {
  DynamicVpTree<double, L1> balanced(L1{}, {.bucket_capacity = 8});
  DynamicVpTree<double, L1> naive(
      L1{}, {.bucket_capacity = 8, .rebalance = false});
  // Sorted insertion is the adversarial case the paper describes: naive
  // splitting degenerates while the rebalancing insert stays shallow.
  for (int i = 0; i < 2000; ++i) {
    balanced.insert(static_cast<double>(i));
    naive.insert(static_cast<double>(i));
  }
  EXPECT_EQ(balanced.size(), 2000u);
  EXPECT_EQ(naive.size(), 2000u);
  EXPECT_LT(balanced.depth() * 3, naive.depth())
      << "balanced=" << balanced.depth() << " naive=" << naive.depth();
}

TEST(DynamicVpTree, NaiveInsertStillSearchesExactly) {
  const auto points = random_points(300, 41);
  DynamicVpTree<double, L1> tree(
      L1{}, {.bucket_capacity = 8, .rebalance = false});
  for (double p : points) tree.insert(p);
  const auto got = tree.nearest(33.0, 5);
  const auto expected = brute_force_knn(points, 33.0, 5);
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i].distance, expected[i], 1e-12);
  }
}

TEST(DynamicVpTree, CountersTrackRebuilds) {
  DynamicVpTree<double, L1> tree(L1{}, {.bucket_capacity = 4});
  for (int i = 0; i < 500; ++i) tree.insert(static_cast<double>(i % 97));
  const auto& counters = tree.counters();
  EXPECT_EQ(counters.inserts, 500u);
  EXPECT_GT(counters.subtree_rebuilds + counters.root_rebuilds, 0u);
}

TEST(DynamicVpTree, RadiusCapFiltersAndStaysExact) {
  const auto points = random_points(600, 71);
  DynamicVpTree<double, L1> tree(L1{}, {.bucket_capacity = 8});
  tree.insert_batch(points);
  const double target = 40.0, cap = 2.5;
  const auto capped = tree.nearest(target, 20, cap);
  // Every result is within the cap...
  for (const auto& nb : capped) EXPECT_LE(nb.distance, cap);
  // ...and matches brute force restricted to the cap.
  auto expected = brute_force_knn(points, target, 20);
  std::erase_if(expected, [&](double d) { return d > cap; });
  ASSERT_EQ(capped.size(), expected.size());
  for (std::size_t i = 0; i < capped.size(); ++i) {
    EXPECT_NEAR(capped[i].distance, expected[i], 1e-12);
  }
  // An infinite cap reproduces the plain search.
  const auto plain = tree.nearest(target, 20);
  const auto infinite = tree.nearest(
      target, 20, std::numeric_limits<double>::infinity());
  ASSERT_EQ(plain.size(), infinite.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(plain[i].distance, infinite[i].distance);
  }
}

TEST(DynamicVpTree, CollectAllReturnsEverything) {
  DynamicVpTree<double, L1> tree(L1{}, {.bucket_capacity = 4});
  tree.insert_batch({5, 3, 8, 1, 9, 2});
  auto all = tree.collect_all();
  std::sort(all.begin(), all.end());
  EXPECT_EQ(all, (std::vector<double>{1, 2, 3, 5, 8, 9}));
}

TEST(DynamicVpTree, EmptyBatchIsNoop) {
  DynamicVpTree<double, L1> tree(L1{});
  tree.insert_batch({});
  EXPECT_TRUE(tree.empty());
  EXPECT_TRUE(tree.nearest(1.0, 5).empty());

  // Degenerate contents: n = 0 asks for nothing, and a tree of identical
  // elements (every vantage split ties) still answers at distance 0.
  tree.insert_batch(std::vector<double>(100, 5.0));
  EXPECT_TRUE(tree.nearest(5.0, 0).empty());
  const auto got = tree.nearest(5.0, 10);
  ASSERT_EQ(got.size(), 10u);
  for (const auto& nb : got) EXPECT_EQ(nb.distance, 0.0);
}

// ---------- VpPrefixTree ----------

std::vector<Window> sample_windows(std::size_t count, std::size_t length,
                                   std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Window> windows;
  windows.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto sequence = workload::random_sequence(
        seq::Alphabet::kProtein, length, "w", rng);
    windows.emplace_back(sequence.codes().begin(), sequence.codes().end());
  }
  return windows;
}

const score::DistanceMatrix& protein_distance() {
  return score::default_distance(seq::Alphabet::kProtein);
}

TEST(VpPrefixTree, HashIsDeterministicAndLengthChecked) {
  VpPrefixTree tree(&protein_distance(), {.cutoff_depth = 5});
  tree.build(sample_windows(300, 8, 51));
  const auto probe = sample_windows(1, 8, 52)[0];
  EXPECT_EQ(tree.hash(probe), tree.hash(probe));
  const auto bad = sample_windows(1, 9, 53)[0];
  EXPECT_THROW(tree.hash(bad), InvalidArgument);
}

TEST(VpPrefixTree, IdenticalWindowsCollide) {
  VpPrefixTree tree(&protein_distance(), {.cutoff_depth = 6});
  auto windows = sample_windows(500, 8, 54);
  tree.build(windows);
  const auto probe = sample_windows(1, 8, 55)[0];
  const Window copy = probe;
  EXPECT_EQ(tree.hash(probe), tree.hash(copy));
}

TEST(VpPrefixTree, PrefixEncodesDepth) {
  VpPrefixTree tree(&protein_distance(), {.cutoff_depth = 5});
  tree.build(sample_windows(600, 8, 56));
  // With the leading-1 convention, a prefix emitted at depth d lies in
  // [2^(d-1), 2^d).
  for (std::uint64_t prefix : tree.leaf_prefixes()) {
    EXPECT_GE(prefix, 1u);
    EXPECT_LT(prefix, 1u << tree.cutoff_depth());
  }
}

TEST(VpPrefixTree, HashAlwaysLandsOnALeafPrefix) {
  VpPrefixTree tree(&protein_distance(), {.cutoff_depth = 5});
  tree.build(sample_windows(400, 8, 57));
  const auto& leaves = tree.leaf_prefixes();
  for (const auto& probe : sample_windows(100, 8, 58)) {
    const auto h = tree.hash(probe);
    EXPECT_NE(std::find(leaves.begin(), leaves.end(), h), leaves.end())
        << "hash " << h << " not a known leaf prefix";
  }
}

TEST(VpPrefixTree, MultiHashContainsSinglePath) {
  VpPrefixTree tree(&protein_distance(), {.cutoff_depth = 6});
  tree.build(sample_windows(500, 8, 59));
  for (const auto& probe : sample_windows(50, 8, 60)) {
    const auto single = tree.hash(probe);
    const auto multi = tree.hash_multi(probe, 5.0);
    EXPECT_NE(std::find(multi.begin(), multi.end(), single), multi.end());
  }
}

TEST(VpPrefixTree, ZeroEpsilonMatchesSinglePath) {
  VpPrefixTree tree(&protein_distance(), {.cutoff_depth = 6});
  tree.build(sample_windows(500, 8, 61));
  for (const auto& probe : sample_windows(50, 8, 62)) {
    const auto multi = tree.hash_multi(probe, 0.0);
    // Ties (d == mu exactly) may still branch, but are measure-zero for
    // this distance; expect exactly the single path.
    ASSERT_EQ(multi.size(), 1u);
    EXPECT_EQ(multi[0], tree.hash(probe));
  }
}

TEST(VpPrefixTree, HugeEpsilonCoversAllLeaves) {
  VpPrefixTree tree(&protein_distance(), {.cutoff_depth = 5});
  tree.build(sample_windows(400, 8, 63));
  const auto probe = sample_windows(1, 8, 64)[0];
  const auto multi = tree.hash_multi(probe, 1e9);
  EXPECT_EQ(multi.size(), tree.leaf_prefixes().size());
}

TEST(VpPrefixTree, SimilarWindowsCollideMoreThanRandom) {
  // The LSH property: windows at small edit distance should share a group
  // hash far more often than unrelated windows.
  VpPrefixTree tree(&protein_distance(), {.cutoff_depth = 5});
  tree.build(sample_windows(2000, 8, 65));
  Rng rng(66);
  int similar_collisions = 0, random_collisions = 0;
  const int trials = 300;
  for (int t = 0; t < trials; ++t) {
    auto base = workload::random_sequence(seq::Alphabet::kProtein, 8,
                                          "b", rng);
    auto similar_seq = workload::mutate_to_similarity(base, 0.875, "m", rng);
    Window w1(base.codes().begin(), base.codes().end());
    Window w2(similar_seq.codes().begin(), similar_seq.codes().end());
    similar_collisions += tree.hash(w1) == tree.hash(w2) ? 1 : 0;
    auto other = workload::random_sequence(seq::Alphabet::kProtein, 8,
                                           "o", rng);
    Window w3(other.codes().begin(), other.codes().end());
    random_collisions += tree.hash(w1) == tree.hash(w3) ? 1 : 0;
  }
  EXPECT_GT(similar_collisions, random_collisions + trials / 10)
      << "similar=" << similar_collisions << " random=" << random_collisions;
}

TEST(VpPrefixTree, EncodeDecodePreservesHashes) {
  VpPrefixTree tree(&protein_distance(), {.cutoff_depth = 6});
  tree.build(sample_windows(600, 8, 67));
  CodecWriter writer;
  tree.encode(writer);
  CodecReader reader(writer.data());
  const auto restored = VpPrefixTree::decode(reader, &protein_distance());
  EXPECT_EQ(restored.window_length(), tree.window_length());
  EXPECT_EQ(restored.leaf_prefixes(), tree.leaf_prefixes());
  for (const auto& probe : sample_windows(100, 8, 68)) {
    EXPECT_EQ(restored.hash(probe), tree.hash(probe));
  }
}

TEST(VpPrefixTree, RejectsBadBuildInputs) {
  VpPrefixTree tree(&protein_distance(), {.cutoff_depth = 4});
  EXPECT_THROW(tree.build({}), InvalidArgument);
  std::vector<Window> ragged = {{0, 1, 2}, {0, 1}};
  EXPECT_THROW(tree.build(ragged), InvalidArgument);
  EXPECT_THROW(tree.hash(Window{0, 1, 2}), InvalidArgument);
}

TEST(VpPrefixTree, TinySampleDegeneratesGracefully) {
  VpPrefixTree tree(&protein_distance(),
                    {.cutoff_depth = 6, .min_partition = 4});
  tree.build(sample_windows(2, 8, 69));
  // Sample below min_partition: single leaf with prefix 1; every hash
  // returns it.
  EXPECT_EQ(tree.leaf_prefixes(), std::vector<std::uint64_t>{1});
  const auto probe = sample_windows(1, 8, 70)[0];
  EXPECT_EQ(tree.hash(probe), 1u);
}

}  // namespace
}  // namespace mendel::vpt
