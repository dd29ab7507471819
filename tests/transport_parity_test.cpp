// Transport parity: the query pipeline must produce identical results on
// the deterministic discrete-event simulator and on a real socket cluster,
// whose daemons run every node on its own dispatch thread. This is the
// strongest form of the "no hidden ordering assumptions" guarantee — every
// cross-node reduction must be commutative/totally ordered, or the two
// runtimes would disagree.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <thread>

#include "src/hash/sha1.h"
#include "src/mendel/client.h"
#include "src/mendel/storage_node.h"
#include "src/workload/generator.h"
#include "tests/socket_cluster.h"

namespace mendel {
namespace {

using testutil::Deployment;
using testutil::SocketCluster;

workload::DatabaseSpec spec() {
  workload::DatabaseSpec s;
  s.families = 4;
  s.members_per_family = 3;
  s.background_sequences = 6;
  s.min_length = 150;
  s.max_length = 350;
  s.seed = 77;
  return s;
}

core::ClientOptions parity_options(core::TransportMode mode) {
  core::ClientOptions options;
  options.topology.num_groups = 3;
  options.topology.nodes_per_group = 2;
  options.indexing.window_length = 8;
  options.indexing.sample_size = 256;
  options.prefix_tree.cutoff_depth = 4;
  options.cost.measured_cpu = false;
  options.runtime.transport_mode = mode;
  return options;
}

std::vector<seq::Sequence> parity_queries(const seq::SequenceStore& store) {
  std::vector<seq::Sequence> queries;
  for (std::size_t donor : {2u, 5u, 9u, 2u}) {  // duplicate exercises cache
    const auto region = store.at(donor).window(5, 110);
    queries.emplace_back(store.alphabet(),
                         "probe" + std::to_string(queries.size()),
                         std::vector<seq::Code>{region.begin(), region.end()});
  }
  return queries;
}

void expect_same_hits(const core::QueryOutcome& a, const core::QueryOutcome& b) {
  ASSERT_EQ(a.hits.size(), b.hits.size());
  for (std::size_t i = 0; i < a.hits.size(); ++i) {
    EXPECT_EQ(a.hits[i].subject_id, b.hits[i].subject_id);
    EXPECT_EQ(a.hits[i].alignment.hsp.score, b.hits[i].alignment.hsp.score);
    EXPECT_EQ(a.hits[i].alignment.cigar, b.hits[i].alignment.cigar);
    EXPECT_DOUBLE_EQ(a.hits[i].evalue, b.hits[i].evalue);
  }
}

TEST(TransportParity, ConcurrentBatchMatchesSimBatch) {
  // The full concurrent pipeline: a socket-mode Client admits a whole
  // batch (queries genuinely overlap across the daemons' node threads,
  // with intra-node fan-out and the NN cache active) and must produce
  // exactly the ranked hit sets the deterministic simulator produces.
  const auto store = workload::generate_database(spec());
  const auto queries = parity_queries(store);

  core::Client sim_client(parity_options(core::TransportMode::kSim));
  sim_client.index(store);
  const auto sim_outcomes = sim_client.query_batch(queries);

  Deployment sockets("batch", parity_options(core::TransportMode::kSocket),
                     /*search_threads=*/2);
  sockets.client().index(store);
  const auto socket_outcomes = sockets.client().query_batch(queries);

  ASSERT_EQ(sim_outcomes.size(), socket_outcomes.size());
  for (std::size_t i = 0; i < sim_outcomes.size(); ++i) {
    EXPECT_TRUE(sim_outcomes[i].completed);
    EXPECT_TRUE(socket_outcomes[i].completed);
    expect_same_hits(sim_outcomes[i], socket_outcomes[i]);
  }
  EXPECT_EQ(sockets.client().metrics().counter("net.handler_errors"), 0u);
  sockets.sockets()->expect_clean();
}

TEST(TransportParity, ManyThreadsDrivingSubmitWaitAgreeWithSim) {
  // Multi-query admission from concurrent application threads: each thread
  // owns one submit/wait pair; results must still match the simulator
  // query-for-query.
  const auto store = workload::generate_database(spec());
  const auto queries = parity_queries(store);

  core::Client sim_client(parity_options(core::TransportMode::kSim));
  sim_client.index(store);
  std::vector<core::QueryOutcome> sim_outcomes;
  for (const auto& query : queries) {
    sim_outcomes.push_back(sim_client.query(query));
  }

  Deployment sockets("drivers", parity_options(core::TransportMode::kSocket));
  core::Client& socket_client = sockets.client();
  socket_client.index(store);
  std::vector<core::QueryOutcome> socket_outcomes(queries.size());
  {
    std::vector<std::thread> drivers;
    for (std::size_t i = 0; i < queries.size(); ++i) {
      drivers.emplace_back([&, i] {
        socket_outcomes[i] = socket_client.query(queries[i]);
      });
    }
    for (auto& driver : drivers) driver.join();
  }

  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_TRUE(socket_outcomes[i].completed);
    expect_same_hits(sim_outcomes[i], socket_outcomes[i]);
  }
}

// DNA's 4-letter alphabet makes exact window-distance ties pervasive, so
// the n-NN boundary used to be resolved by vp-tree traversal order — which
// depends on insertion order and therefore on transport message timing
// (ROADMAP item 7: sim "7 9 6 7" vs real threads "6 9 6 6" hit counts). The
// metric's tie_before total order resolves equidistant candidates by block
// identity on every tree shape; this pin holds the cross-transport
// guarantee for DNA params, which the protein-only suite above misses.
TEST(TransportParity, DnaBatchMatchesAcrossTransports) {
  auto dbspec = spec();
  dbspec.alphabet = seq::Alphabet::kDna;
  const auto store = workload::generate_database(dbspec);
  const auto queries = parity_queries(store);
  core::QueryParams params;
  params.matrix = "DNA";
  params.identity = 0.6;
  params.c_score = 0.4;
  params.gapped_trigger = 1.0;

  core::Client sim_client(parity_options(core::TransportMode::kSim));
  sim_client.index(store);
  const auto sim_outcomes = sim_client.query_batch(queries, params);

  Deployment sockets("dnabatch", parity_options(core::TransportMode::kSocket),
                     /*search_threads=*/2);
  sockets.client().index(store);
  const auto socket_outcomes = sockets.client().query_batch(queries, params);

  ASSERT_EQ(sim_outcomes.size(), socket_outcomes.size());
  for (std::size_t i = 0; i < sim_outcomes.size(); ++i) {
    EXPECT_TRUE(sim_outcomes[i].completed);
    EXPECT_TRUE(socket_outcomes[i].completed);
    ASSERT_FALSE(sim_outcomes[i].hits.empty()) << "query " << i;
    expect_same_hits(sim_outcomes[i], socket_outcomes[i]);
  }
  EXPECT_EQ(sockets.client().metrics().counter("net.handler_errors"), 0u);
  sockets.sockets()->expect_clean();
}

void run_socket_parity(seq::Alphabet alphabet, const std::string& tag) {
  auto dbspec = spec();
  dbspec.alphabet = alphabet;
  const auto store = workload::generate_database(dbspec);
  const auto queries = parity_queries(store);
  core::QueryParams params;
  if (alphabet == seq::Alphabet::kDna) {
    params.matrix = "DNA";
    params.identity = 0.6;
    params.c_score = 0.4;
    params.gapped_trigger = 1.0;
  }

  core::Client sim_client(parity_options(core::TransportMode::kSim));
  sim_client.index(store);
  const auto sim_outcomes = sim_client.query_batch(queries, params);

  SocketCluster cluster(tag);
  core::Client socket_client(
      cluster.client_options(parity_options(core::TransportMode::kSocket)));
  socket_client.index(store);
  const auto socket_outcomes = socket_client.query_batch(queries, params);

  ASSERT_EQ(sim_outcomes.size(), socket_outcomes.size());
  for (std::size_t i = 0; i < sim_outcomes.size(); ++i) {
    EXPECT_TRUE(sim_outcomes[i].completed);
    EXPECT_TRUE(socket_outcomes[i].completed);
    ASSERT_FALSE(sim_outcomes[i].hits.empty()) << "query " << i;
    expect_same_hits(sim_outcomes[i], socket_outcomes[i]);
  }
  EXPECT_EQ(socket_client.metrics().counter("net.handler_errors"), 0u);
  cluster.expect_clean();
}

// The tentpole guarantee: real sockets are just another transport — the
// ranked hits a multi-daemon socket cluster produces must be exactly the
// deterministic simulator's, for both alphabets.
TEST(TransportParity, SocketClusterMatchesSimProtein) {
  run_socket_parity(seq::Alphabet::kProtein, "prot");
}

TEST(TransportParity, SocketClusterMatchesSimDna) {
  run_socket_parity(seq::Alphabet::kDna, "dna");
}

// A node that was down while sequences were added missed that round's
// kSetResidues; heal_node must re-send it, or the healed node keeps
// ranking with E-values over the old database size. Checked on the
// simulator and against socket daemons that stayed alive through the
// outage, which ignore the heal's same-generation re-init.
TEST(TransportParity, HealResendsResiduesMissedWhileDown) {
  const auto store = workload::generate_database(spec());
  auto extra_spec = spec();
  extra_spec.families = 1;
  extra_spec.background_sequences = 2;
  extra_spec.seed = 78;
  const auto extra = workload::generate_database(extra_spec);
  const std::uint64_t expected =
      store.total_residues() + extra.total_residues();
  constexpr net::NodeId kVictim = 4;
  const auto fail_add_heal = [&](core::Client& client) {
    client.index(store);
    client.fail_node(kVictim);
    client.add_sequences(extra);
    client.heal_node(kVictim);
  };

  core::Client sim_client(parity_options(core::TransportMode::kSim));
  fail_add_heal(sim_client);
  for (net::NodeId id = 0; id < sim_client.node_count(); ++id) {
    EXPECT_EQ(sim_client.node(id).database_residues(), expected)
        << "sim node " << id;
  }

  SocketCluster cluster("heal");
  core::Client socket_client(
      cluster.client_options(parity_options(core::TransportMode::kSocket)));
  fail_add_heal(socket_client);
  // Joining the daemons' dispatch threads orders their last handler
  // before the reads below.
  cluster.stop();
  for (net::NodeId id = 0; id < 6; ++id) {
    EXPECT_EQ(cluster.node(id).database_residues(), expected)
        << "socket node " << id;
  }
}

// The node a query with this id enters at: the client's deterministic
// per-query entry rotation.
net::NodeId entry_node(std::uint64_t query_id, std::uint32_t total_nodes) {
  return static_cast<net::NodeId>(
      hashing::sha1_prefix64("entry" + std::to_string(query_id)) %
      total_nodes);
}

// A down node hears no membership change, so heal_node must hand it the
// whole current view. Overlapping failures show what goes wrong without
// it: after fail(B), fail(A), heal(B), node B still believes A is up and
// routes to it (its queries stall), and after heal(A), node A still
// believes B is down and leaves it out of every fan-out and fetch.
class OverlappingFailureTest
    : public ::testing::TestWithParam<core::TransportMode> {};

std::string runtime_name(
    const ::testing::TestParamInfo<core::TransportMode>& info) {
  switch (info.param) {
    case core::TransportMode::kSim: return "Sim";
    case core::TransportMode::kSocket: return "Socket";
  }
  return "Unknown";
}

TEST_P(OverlappingFailureTest, HealedNodesLearnMembershipChangedWhileDown) {
  const bool in_process = GetParam() == core::TransportMode::kSim;
  const auto store = workload::generate_database(spec());
  auto options = parity_options(GetParam());
  options.topology.replication = 2;
  options.topology.sequence_replication = 2;
  Deployment deployment("overlap", options);
  core::Client& client = deployment.client();
  client.index(store);
  const std::uint32_t total = client.topology().total_nodes();
  const net::NodeId a = client.topology().group_nodes(0).front();
  const net::NodeId b = client.topology().group_nodes(1).front();
  const auto query = parity_queries(store).front();
  const auto healthy = client.query(query);
  ASSERT_TRUE(healthy.completed);
  ASSERT_FALSE(healthy.hits.empty());

  // Every alive node's view must match the fault injector. In-process
  // nodes are read after settle(); daemons only once stopped.
  const auto expect_views_current = [&] {
    for (net::NodeId id = 0; id < total; ++id) {
      if (client.fault_injector().node_down(id)) continue;
      for (net::NodeId peer = 0; peer < total; ++peer) {
        EXPECT_EQ(deployment.node(id).is_down(peer),
                  client.fault_injector().node_down(peer))
            << "node " << id << "'s view of node " << peer;
      }
    }
  };
  // Submits queries until one has entered at `entry`. Those entering at an
  // alive node must complete with the healthy hits; one entering at a down
  // node is dropped and stalls, so only in-process runtimes (which prove
  // the stall at once) may be asked for this while a node is down.
  const auto expect_served_through = [&](net::NodeId entry) {
    bool entered = false;
    for (int attempt = 0; attempt < 64 && !entered; ++attempt) {
      const auto ticket = client.submit(query);
      const net::NodeId at = entry_node(ticket.id, total);
      entered = at == entry;
      const auto outcome = client.wait(ticket);
      if (client.fault_injector().node_down(at)) continue;
      EXPECT_TRUE(outcome.completed) << "query entering at node " << at;
      expect_same_hits(healthy, outcome);
    }
    EXPECT_TRUE(entered) << "no query entered at node " << entry;
  };

  client.fail_node(b);
  client.fail_node(a);
  client.heal_node(b);
  if (in_process) {
    expect_views_current();
    expect_served_through(b);
  }
  client.heal_node(a);
  expect_served_through(a);
  expect_served_through(b);
  if (in_process) {
    client.settle();
  } else {
    deployment.sockets()->stop();
  }
  expect_views_current();
}

INSTANTIATE_TEST_SUITE_P(Runtimes, OverlappingFailureTest,
                         ::testing::Values(core::TransportMode::kSim,
                                           core::TransportMode::kSocket),
                         runtime_name);

// Arena residency is a memory policy, not a results policy: a clamped
// resident budget (packed rows spilled through the block store) must
// reproduce the all-resident ranked hits exactly, on both runtimes and
// for both the packed (DNA) and unpacked (protein) row formats.
TEST(TransportParity, SpillForcedBudgetMatchesAllResident) {
  for (const auto alphabet : {seq::Alphabet::kDna, seq::Alphabet::kProtein}) {
    auto dbspec = spec();
    dbspec.alphabet = alphabet;
    const auto store = workload::generate_database(dbspec);
    const auto queries = parity_queries(store);
    core::QueryParams params;
    if (alphabet == seq::Alphabet::kDna) {
      params.matrix = "DNA";
      params.identity = 0.6;
      params.c_score = 0.4;
      params.gapped_trigger = 1.0;
    }

    for (const auto mode :
         {core::TransportMode::kSim, core::TransportMode::kSocket}) {
      const auto resident_options = parity_options(mode);
      Deployment resident_deployment("resident", resident_options,
                                     /*search_threads=*/2);
      resident_deployment.client().index(store);
      const auto resident =
          resident_deployment.client().query_batch(queries, params);

      auto spill_options = resident_options;
      spill_options.runtime.arena_resident_budget = 1;  // clamps to floor
      Deployment spill_deployment("spill", spill_options,
                                  /*search_threads=*/2);
      spill_deployment.client().index(store);
      const auto spilled =
          spill_deployment.client().query_batch(queries, params);

      ASSERT_EQ(resident.size(), spilled.size());
      for (std::size_t i = 0; i < resident.size(); ++i) {
        EXPECT_TRUE(spilled[i].completed);
        expect_same_hits(resident[i], spilled[i]);
      }
    }
  }
}

// The budget reaches the daemons' arenas: with 4 KiB segments and the
// minimum budget, a shard of a few thousand protein windows outgrows the
// resident floor, so the block store evicts and faults rows back in while
// the ranked hits stay the simulator's. MENDEL_ARENA_BUDGET replaces the
// budget here as it does in Client; the spill job's 4 MiB then holds these
// shards whole, so only the block-store backing (faults) is asserted.
TEST(TransportParity, BudgetedSocketClusterEvictsAndMatchesSim) {
  auto dbspec = spec();
  dbspec.families = 10;
  dbspec.members_per_family = 4;
  dbspec.background_sequences = 40;
  dbspec.min_length = 300;
  dbspec.max_length = 400;
  const auto store = workload::generate_database(dbspec);
  const auto queries = parity_queries(store);

  core::Client sim_client(parity_options(core::TransportMode::kSim));
  sim_client.index(store);
  const auto sim_outcomes = sim_client.query_batch(queries);

  auto options = parity_options(core::TransportMode::kSocket);
  options.runtime.arena_resident_budget = 1;  // clamps to the floor
  options.runtime.arena_segment_bytes = 4096;
  Deployment sockets("evict", options, /*search_threads=*/2);
  sockets.client().index(store);
  const auto socket_outcomes = sockets.client().query_batch(queries);
  ASSERT_EQ(sim_outcomes.size(), socket_outcomes.size());
  for (std::size_t i = 0; i < sim_outcomes.size(); ++i) {
    EXPECT_TRUE(socket_outcomes[i].completed);
    ASSERT_FALSE(sim_outcomes[i].hits.empty()) << "query " << i;
    expect_same_hits(sim_outcomes[i], socket_outcomes[i]);
  }

  sockets.client().settle();
  vpt::BlockStoreStats store_stats;
  for (net::NodeId id = 0; id < 6; ++id) {
    const auto stats = sockets.node(id).arena_stats().store;
    store_stats.evictions += stats.evictions;
    store_stats.faults += stats.faults;
  }
  EXPECT_GT(store_stats.faults, 0u);
  if (std::getenv("MENDEL_ARENA_BUDGET") == nullptr) {
    EXPECT_GT(store_stats.evictions, 0u);
  }
  sockets.sockets()->expect_clean();
}

// The cluster-wide pruning counters, read once every node went quiet.
core::NodeCounters settled_counters(Deployment& deployment) {
  deployment.client().settle();
  core::NodeCounters total;
  for (net::NodeId id = 0; id < deployment.client().topology().total_nodes();
       ++id) {
    const core::NodeCounters& counters = deployment.node(id).counters();
    total.anchors_pruned += counters.anchors_pruned;
    total.gapped_extensions += counters.gapped_extensions;
  }
  return total;
}

// Score-bounded pruning is a work policy, not a results policy: skipping
// bins whose score ceiling cannot crack the top-k must reproduce the
// unpruned ranked hits exactly, on both transports and both alphabets.
// The mixed-length store (long homologous family + short unrelated
// subjects) gives the pruner real prey; the counter assertion keeps the
// equivalence check from passing vacuously.
TEST(TransportParity, PruningMatchesUnprunedExactly) {
  for (const auto alphabet : {seq::Alphabet::kDna, seq::Alphabet::kProtein}) {
    auto long_spec = spec();
    long_spec.alphabet = alphabet;
    long_spec.families = 2;
    long_spec.background_sequences = 0;
    long_spec.min_length = 350;
    long_spec.max_length = 420;
    auto short_spec = long_spec;
    short_spec.families = 3;
    short_spec.members_per_family = 2;
    short_spec.background_sequences = 6;
    short_spec.min_length = 40;
    short_spec.max_length = 60;
    short_spec.seed = 78;
    seq::SequenceStore store(alphabet);
    for (const auto& s : workload::generate_database(long_spec)) store.add(s);
    for (const auto& s : workload::generate_database(short_spec)) {
      store.add(s);
    }

    std::vector<seq::Sequence> queries;
    for (std::size_t donor : {1u, 4u}) {
      const auto region = store.at(donor).window(5, 345);
      queries.emplace_back(
          store.alphabet(), "probe" + std::to_string(queries.size()),
          std::vector<seq::Code>{region.begin(), region.end()});
    }
    core::QueryParams params;
    params.gapped_trigger = 0.1;
    params.max_hits = 2;
    if (alphabet == seq::Alphabet::kDna) {
      params.matrix = "DNA";
      params.identity = 0.6;
      params.c_score = 0.4;
    }

    for (const auto mode :
         {core::TransportMode::kSim, core::TransportMode::kSocket}) {
      const auto options = parity_options(mode);
      Deployment pruned_deployment("pruned", options, /*search_threads=*/2);
      pruned_deployment.client().index(store);
      const auto pruned =
          pruned_deployment.client().query_batch(queries, params);
      const auto pruned_counters = settled_counters(pruned_deployment);
      EXPECT_GT(pruned_counters.anchors_pruned, 0u);

      auto unpruned_options = options;
      unpruned_options.runtime.prune_extensions = false;
      Deployment unpruned_deployment("unpruned", unpruned_options,
                                     /*search_threads=*/2);
      unpruned_deployment.client().index(store);
      const auto unpruned =
          unpruned_deployment.client().query_batch(queries, params);
      const auto unpruned_counters = settled_counters(unpruned_deployment);
      EXPECT_EQ(unpruned_counters.anchors_pruned, 0u);
      const auto unpruned_gapped = unpruned_counters.gapped_extensions;
      const auto pruned_gapped = pruned_counters.gapped_extensions;
#ifdef MENDEL_CHECKED
      // The checked build's prune audit deliberately extends pruned bins
      // too (to compare against the full ranking), so the work saving is
      // invisible in the gapped counter there.
      EXPECT_EQ(unpruned_gapped, pruned_gapped);
#else
      EXPECT_GT(unpruned_gapped, pruned_gapped);
#endif

      ASSERT_EQ(pruned.size(), unpruned.size());
      for (std::size_t i = 0; i < pruned.size(); ++i) {
        EXPECT_TRUE(pruned[i].completed);
        ASSERT_FALSE(unpruned[i].hits.empty()) << "query " << i;
        expect_same_hits(pruned[i], unpruned[i]);
      }
    }
  }
}

// Schedule exploration: the simulator normally breaks delivery-time ties
// by injection order, so one run exercises exactly one message
// interleaving. A nonzero runtime.schedule_seed perturbs every delivery
// with a deterministic per-seed jitter, permuting near-tied fan-in
// arrivals (node-search results, group results, fetched ranges) without
// violating causality. The protocol's reductions must be insensitive to
// arrival order, so the ranked hits for every seed must be byte-for-byte
// the seed-0 hits. On failure the seed is printed: replay by setting
// runtime.schedule_seed to it in a standalone Client.
TEST(TransportParity, ScheduleSeedSweepLeavesRankedHitsInvariant) {
  constexpr std::uint64_t kSeeds = 32;
  for (const auto alphabet : {seq::Alphabet::kProtein, seq::Alphabet::kDna}) {
    auto dbspec = spec();
    dbspec.alphabet = alphabet;
    const auto store = workload::generate_database(dbspec);
    const auto queries = parity_queries(store);
    core::QueryParams params;
    if (alphabet == seq::Alphabet::kDna) {
      params.matrix = "DNA";
      params.identity = 0.6;
      params.c_score = 0.4;
      params.gapped_trigger = 1.0;
    }

    auto run_with_seed = [&](std::uint64_t seed) {
      auto options = parity_options(core::TransportMode::kSim);
      options.runtime.schedule_seed = seed;
      core::Client client(options);
      client.index(store);
      return client.query_batch(queries, params);
    };

    const auto baseline = run_with_seed(0);
    for (const auto& outcome : baseline) {
      ASSERT_TRUE(outcome.completed);
      ASSERT_FALSE(outcome.hits.empty());
    }

    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
      SCOPED_TRACE("replay with runtime.schedule_seed=" +
                   std::to_string(seed) + " alphabet=" +
                   (alphabet == seq::Alphabet::kDna ? "DNA" : "protein"));
      const auto outcomes = run_with_seed(seed);
      ASSERT_EQ(outcomes.size(), baseline.size());
      for (std::size_t i = 0; i < outcomes.size(); ++i) {
        EXPECT_TRUE(outcomes[i].completed);
        expect_same_hits(baseline[i], outcomes[i]);
      }
    }
  }
}

// The jitter itself must be a pure function of (seed, sequence number):
// the same seed replays the same schedule, different seeds genuinely
// differ (otherwise the sweep above would explore nothing).
TEST(TransportParity, ScheduleSeedIsDeterministicAndEffective) {
  const auto store = workload::generate_database(spec());
  const auto& donor = store.at(2);
  const auto region = donor.window(10, 120);
  const seq::Sequence query(store.alphabet(), "probe",
                            {region.begin(), region.end()});

  auto turnaround_with_seed = [&](std::uint64_t seed) {
    auto options = parity_options(core::TransportMode::kSim);
    options.runtime.schedule_seed = seed;
    core::Client client(options);
    client.index(store);
    return client.query(query).turnaround;
  };

  const double seed7_a = turnaround_with_seed(7);
  const double seed7_b = turnaround_with_seed(7);
  EXPECT_DOUBLE_EQ(seed7_a, seed7_b);  // replayable

  // Jitter shifts delivery times, so some seed in a small pool must move
  // the virtual-time turnaround relative to the unjittered schedule.
  const double unjittered = turnaround_with_seed(0);
  bool any_differs = false;
  for (std::uint64_t seed = 1; seed <= 4 && !any_differs; ++seed) {
    any_differs = turnaround_with_seed(seed) != unjittered;
  }
  EXPECT_TRUE(any_differs);
}

// Two independent socket clusters, each dispatching its nodes on their own
// threads with a search pool, answer the same query identically.
TEST(TransportParity, RepeatedThreadedRunsAgree) {
  const auto store = workload::generate_database(spec());
  const auto& donor = store.at(5);
  const auto region = donor.window(0, 100);
  const seq::Sequence query(store.alphabet(), "probe",
                            {region.begin(), region.end()});
  const auto run = [&](const std::string& tag) {
    Deployment sockets(tag, parity_options(core::TransportMode::kSocket),
                       /*search_threads=*/2);
    sockets.client().index(store);
    return sockets.client().query(query);
  };
  const auto first = run("first");
  const auto second = run("second");
  EXPECT_TRUE(first.completed);
  EXPECT_TRUE(second.completed);
  ASSERT_FALSE(first.hits.empty());
  expect_same_hits(first, second);
}

}  // namespace
}  // namespace mendel
