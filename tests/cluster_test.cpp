// Unit tests for src/cluster: two-tier topology, prefix binding, key
// placement, sequence homes, and load telemetry.
#include <gtest/gtest.h>

#include <set>

#include "src/cluster/telemetry.h"
#include "src/cluster/topology.h"
#include "src/common/error.h"
#include "src/hash/sha1.h"

namespace mendel::cluster {
namespace {

TopologyConfig config_10x5() {
  TopologyConfig config;
  config.num_groups = 10;
  config.nodes_per_group = 5;
  return config;
}

TEST(Topology, NodeIdAddressRoundTrip) {
  Topology topo(config_10x5());
  EXPECT_EQ(topo.total_nodes(), 50u);
  for (std::uint32_t g = 0; g < 10; ++g) {
    for (std::uint32_t i = 0; i < 5; ++i) {
      const auto id = topo.node_id(g, i);
      const auto addr = topo.address(id);
      EXPECT_EQ(addr.group, g);
      EXPECT_EQ(addr.index, i);
    }
  }
}

TEST(Topology, BoundsChecked) {
  Topology topo(config_10x5());
  EXPECT_THROW(topo.node_id(10, 0), InvalidArgument);
  EXPECT_THROW(topo.node_id(0, 5), InvalidArgument);
  EXPECT_THROW(topo.address(50), InvalidArgument);
  EXPECT_THROW(topo.group_nodes(10), InvalidArgument);
}

TEST(Topology, RejectsBadConfig) {
  TopologyConfig config;
  config.num_groups = 0;
  EXPECT_THROW(Topology{config}, InvalidArgument);
  config = config_10x5();
  config.replication = 6;  // > nodes_per_group
  EXPECT_THROW(Topology{config}, InvalidArgument);
  config = config_10x5();
  config.sequence_replication = 51;  // > total nodes
  EXPECT_THROW(Topology{config}, InvalidArgument);
}

TEST(Topology, GroupNodesAreItsMembers) {
  Topology topo(config_10x5());
  const auto nodes = topo.group_nodes(3);
  ASSERT_EQ(nodes.size(), 5u);
  for (const auto id : nodes) {
    EXPECT_EQ(topo.address(id).group, 3u);
  }
  EXPECT_EQ(topo.all_nodes().size(), 50u);
}

TEST(Topology, BindPrefixesRoundRobin) {
  Topology topo(config_10x5());
  // 20 prefixes over 10 groups: every group gets exactly two.
  std::vector<std::uint64_t> prefixes;
  for (std::uint64_t p = 32; p < 52; ++p) prefixes.push_back(p);
  topo.bind_prefixes(prefixes);
  std::map<std::uint32_t, int> per_group;
  for (std::uint64_t p : prefixes) ++per_group[topo.group_for_prefix(p)];
  EXPECT_EQ(per_group.size(), 10u);
  for (const auto& [group, count] : per_group) EXPECT_EQ(count, 2);
}

TEST(Topology, UnknownPrefixFallsBackStably) {
  Topology topo(config_10x5());
  topo.bind_prefixes({1, 2, 3});
  const auto g1 = topo.group_for_prefix(999);
  EXPECT_EQ(g1, topo.group_for_prefix(999));
  EXPECT_LT(g1, 10u);
}

TEST(Topology, GroupForPrefixBeforeBindThrows) {
  Topology topo(config_10x5());
  EXPECT_THROW(topo.group_for_prefix(1), InvalidArgument);
}

TEST(Topology, KeysStayWithinGroup) {
  Topology topo(config_10x5());
  for (int i = 0; i < 200; ++i) {
    const auto key = hashing::sha1_prefix64("block" + std::to_string(i));
    const auto node = topo.primary_node_for_key(i % 10, key);
    EXPECT_EQ(topo.address(node).group, static_cast<std::uint32_t>(i % 10));
  }
}

TEST(Topology, ReplicatedKeysDistinctWithinGroup) {
  auto config = config_10x5();
  config.replication = 3;
  Topology topo(config);
  for (int i = 0; i < 50; ++i) {
    const auto key =
        hashing::sha1_prefix64(std::string("b").append(std::to_string(i)));
    const auto nodes = topo.nodes_for_key(2, key);
    ASSERT_EQ(nodes.size(), 3u);
    std::set<net::NodeId> unique(nodes.begin(), nodes.end());
    EXPECT_EQ(unique.size(), 3u);
    for (const auto id : nodes) EXPECT_EQ(topo.address(id).group, 2u);
    EXPECT_EQ(nodes[0], topo.primary_node_for_key(2, key));
  }
}

TEST(Topology, SequenceHomesSpreadOverCluster) {
  auto config = config_10x5();
  config.sequence_replication = 2;
  Topology topo(config);
  std::set<net::NodeId> homes_seen;
  for (int i = 0; i < 400; ++i) {
    const auto homes =
        topo.sequence_homes(hashing::sha1_prefix64(
            std::string("s").append(std::to_string(i))));
    ASSERT_EQ(homes.size(), 2u);
    EXPECT_NE(homes[0], homes[1]);
    homes_seen.insert(homes.begin(), homes.end());
  }
  // With 400 sequences over 50 nodes essentially all nodes serve as homes.
  EXPECT_GT(homes_seen.size(), 40u);
}

TEST(Topology, DifferentGroupsHaveDifferentRingLayouts) {
  Topology topo(config_10x5());
  int differing = 0;
  for (int i = 0; i < 100; ++i) {
    const auto key =
        hashing::sha1_prefix64(std::string("k").append(std::to_string(i)));
    const auto a = topo.address(topo.primary_node_for_key(0, key)).index;
    const auto b = topo.address(topo.primary_node_for_key(1, key)).index;
    differing += a != b ? 1 : 0;
  }
  EXPECT_GT(differing, 50);  // layouts must not be mirror images
}

// ---------- telemetry ----------

TEST(Telemetry, PerfectBalance) {
  const std::vector<std::uint64_t> counts(10, 100);
  const auto report = analyze_load(counts);
  EXPECT_DOUBLE_EQ(report.max_spread, 0.0);
  EXPECT_DOUBLE_EQ(report.cov, 0.0);
  EXPECT_DOUBLE_EQ(report.min_share, 0.1);
  EXPECT_DOUBLE_EQ(report.max_share, 0.1);
}

TEST(Telemetry, SkewDetected) {
  const std::vector<std::uint64_t> counts = {400, 100, 100, 100, 100,
                                             100, 100, 100, 100, 100};
  const auto report = analyze_load(counts);
  EXPECT_NEAR(report.max_share, 400.0 / 1300.0, 1e-12);
  EXPECT_NEAR(report.min_share, 100.0 / 1300.0, 1e-12);
  EXPECT_GT(report.cov, 0.5);
  EXPECT_NEAR(report.max_spread, 300.0 / 1300.0, 1e-12);
}

TEST(Telemetry, EmptyAndZeroTotals) {
  EXPECT_TRUE(analyze_load({}).shares.empty());
  const std::vector<std::uint64_t> zeros(4, 0);
  const auto report = analyze_load(zeros);
  EXPECT_EQ(report.shares.size(), 4u);
  EXPECT_DOUBLE_EQ(report.max_spread, 0.0);
}

}  // namespace
}  // namespace mendel::cluster
