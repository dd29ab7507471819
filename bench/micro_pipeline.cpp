// Microbenchmarks for pipeline building blocks (google-benchmark):
// alignment kernels, SHA-1 dispersal, block creation, and codec overhead —
// the per-message / per-anchor costs behind the Figure 6 numbers — plus a
// serial closed-loop query baseline through the simulator. End-to-end
// throughput and latency over the deployed socket path are perfbench's.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <fstream>
#include <iostream>

#include "bench/micro_main.h"
#include "src/align/banded.h"
#include "src/align/smith_waterman.h"
#include "src/align/ungapped.h"
#include "src/hash/sha1.h"
#include "src/mendel/block.h"
#include "src/mendel/client.h"
#include "src/mendel/protocol.h"
#include "src/workload/generator.h"

namespace {

using namespace mendel;

seq::Sequence protein(std::size_t length, std::uint64_t seed) {
  Rng rng(seed);
  return workload::random_sequence(seq::Alphabet::kProtein, length, "p",
                                   rng);
}

void BM_UngappedExtension(benchmark::State& state) {
  Rng rng(1);
  const auto base = protein(static_cast<std::size_t>(state.range(0)), 2);
  const auto homolog =
      workload::mutate_to_similarity(base, 0.7, "h", rng);
  for (auto _ : state) {
    const auto hsp = align::extend_ungapped(
        base.codes(), homolog.codes(), base.size() / 2, base.size() / 2, 8,
        score::blosum62(), {16});
    benchmark::DoNotOptimize(hsp.score);
  }
}
BENCHMARK(BM_UngappedExtension)->Arg(500)->Arg(2000);

void BM_BandedGapped(benchmark::State& state) {
  Rng rng(3);
  const auto base = protein(1000, 4);
  const auto homolog = workload::mutate(base, {0.25, 0.02, 0.4}, "h", rng);
  const auto radius = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    const auto a = align::banded_local_align(
        base.codes(), homolog.codes(), score::blosum62(),
        score::blosum62().default_gaps(), {0, radius});
    benchmark::DoNotOptimize(a.hsp.score);
  }
  state.SetLabel("band radius " + std::to_string(radius));
}
BENCHMARK(BM_BandedGapped)->Arg(4)->Arg(16)->Arg(64);

void BM_SmithWatermanFull(benchmark::State& state) {
  Rng rng(5);
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto base = protein(n, 6);
  const auto homolog = workload::mutate(base, {0.25, 0.02, 0.4}, "h", rng);
  for (auto _ : state) {
    const auto a = align::smith_waterman(base.codes(), homolog.codes(),
                                         score::blosum62(),
                                         score::blosum62().default_gaps());
    benchmark::DoNotOptimize(a.hsp.score);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n * n));
}
BENCHMARK(BM_SmithWatermanFull)->Arg(200)->Arg(500);

void BM_Sha1Block(benchmark::State& state) {
  const auto s = protein(static_cast<std::size_t>(state.range(0)), 7);
  const std::vector<std::uint8_t> bytes(s.codes().begin(), s.codes().end());
  for (auto _ : state) {
    benchmark::DoNotOptimize(hashing::sha1_prefix64(bytes));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(BM_Sha1Block)->Arg(8)->Arg(64)->Arg(4096);

void BM_MakeBlocks(benchmark::State& state) {
  auto s = protein(static_cast<std::size_t>(state.range(0)), 8);
  s.set_id(1);
  for (auto _ : state) {
    const auto blocks = core::make_blocks(s, 8);
    benchmark::DoNotOptimize(blocks.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MakeBlocks)->Arg(1000)->Arg(10000);

void BM_ProtocolRoundTrip(benchmark::State& state) {
  core::NodeSearchResultPayload payload;
  for (int i = 0; i < 64; ++i) {
    core::Seed seed;
    seed.sequence = static_cast<std::uint32_t>(i);
    seed.subject_start = static_cast<std::uint32_t>(i * 13);
    seed.query_offset = static_cast<std::uint32_t>(i * 7);
    seed.length = 8;
    seed.identity = 0.8;
    seed.c_score = 0.7;
    payload.seeds.push_back(seed);
  }
  for (auto _ : state) {
    const auto bytes = core::encode_payload(payload);
    const auto decoded =
        core::decode_payload<core::NodeSearchResultPayload>(bytes);
    benchmark::DoNotOptimize(decoded.seeds.size());
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_ProtocolRoundTrip);

void BM_ConsecutivityScore(benchmark::State& state) {
  Rng rng(9);
  const auto a = protein(8, 10);
  const auto b = workload::mutate_to_similarity(a, 0.75, "b", rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(score::consecutivity_score(
        a.codes(), b.codes(), score::blosum62()));
  }
}
BENCHMARK(BM_ConsecutivityScore);

// ---- closed-loop end-to-end queries ----------------------------------------
//
// Each benchmark thread is one closed-loop client: it issues a query, waits
// for the ranked hits, and immediately issues the next, drawing from a
// shared pool of repeated probes (the skewed real-world case: popular
// queries recur). items/s is end-to-end queries per second.
//
// BM_ClosedLoopSerial is the pre-pipeline baseline: one query at a time
// through the simulator with the NN cache disabled.

const seq::SequenceStore& closed_loop_store() {
  static const seq::SequenceStore store = [] {
    workload::DatabaseSpec spec;
    spec.families = 6;
    spec.members_per_family = 4;
    spec.background_sequences = 12;
    spec.min_length = 200;
    spec.max_length = 400;
    spec.seed = 2024;
    return workload::generate_database(spec);
  }();
  return store;
}

std::vector<seq::Sequence> closed_loop_queries() {
  const auto& store = closed_loop_store();
  std::vector<seq::Sequence> queries;
  for (std::size_t donor = 0; donor < 12; ++donor) {
    const auto window = store.at(donor).window((donor % 3) * 7, 120);
    queries.emplace_back(store.alphabet(), "probe" + std::to_string(donor),
                         std::vector<seq::Code>{window.begin(), window.end()});
  }
  return queries;
}

core::ClientOptions closed_loop_options(std::size_t nn_cache_capacity) {
  core::ClientOptions options;
  options.topology.num_groups = 3;
  options.topology.nodes_per_group = 2;
  options.indexing.window_length = 8;
  options.indexing.sample_size = 256;
  options.prefix_tree.cutoff_depth = 4;
  options.cost.measured_cpu = false;
  options.runtime.nn_cache_capacity = nn_cache_capacity;
  return options;
}

void BM_ClosedLoopSerial(benchmark::State& state) {
  core::Client client(closed_loop_options(0));
  client.index(closed_loop_store());
  const auto queries = closed_loop_queries();
  std::size_t i = 0;
  for (auto _ : state) {
    const auto outcome = client.query(queries[i++ % queries.size()]);
    benchmark::DoNotOptimize(outcome.hits.size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ClosedLoopSerial)->Unit(benchmark::kMillisecond)->UseRealTime();

// ---- observability smoke ---------------------------------------------------
//
// Driven by the CI observability step rather than the benchmark registry:
// after the selected benchmarks run, MENDEL_METRICS_JSON=<path> dumps the
// unified metrics snapshot of a one-query pipeline run for
// tools/check_metrics_schema, and MENDEL_TRACE=1 additionally runs that
// query traced and prints its reassembled span timeline.
void observability_smoke(const char* metrics_path, const char* trace_env) {
  auto options = closed_loop_options(4096);
  options.runtime.enable_tracing = trace_env != nullptr;
  core::Client client(options);
  client.index(closed_loop_store());
  const auto queries = closed_loop_queries();
  const auto ticket = client.submit(queries[0]);
  const auto outcome = client.wait(ticket);
  std::cout << "observability smoke: " << outcome.hits.size() << " hits, "
            << outcome.traffic.messages << " messages\n";
  if (trace_env != nullptr) {
    std::cout << client.collect_trace(ticket.id).format();
  }
  if (metrics_path != nullptr) {
    std::ofstream out(metrics_path);
    out << client.metrics().to_json() << "\n";
    if (!out) {
      std::cerr << "cannot write metrics to " << metrics_path << "\n";
      std::exit(1);
    }
    std::cout << "metrics written to " << metrics_path << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  mendel::bench::init_micro_bench(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  const char* metrics_path = std::getenv("MENDEL_METRICS_JSON");
  const char* trace_env = std::getenv("MENDEL_TRACE");
  if (metrics_path != nullptr || trace_env != nullptr) {
    observability_smoke(metrics_path, trace_env);
  }
  return 0;
}
