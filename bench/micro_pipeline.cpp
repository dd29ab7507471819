// Microbenchmarks for pipeline building blocks (google-benchmark):
// alignment kernels, SHA-1 dispersal, block creation, and codec overhead —
// the per-message / per-anchor costs behind the Figure 6 numbers — plus the
// closed-loop end-to-end query benchmark for the concurrent pipeline.
#include <benchmark/benchmark.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <thread>

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
// through the simulator with the NN cache disabled. BM_ClosedLoopConcurrent
// drives the threaded runtime with the cache on, at 1 and 8 concurrent
// clients.

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

core::ClientOptions closed_loop_options(core::TransportMode mode,
                                        std::size_t nn_cache_capacity) {
  core::ClientOptions options;
  options.topology.num_groups = 3;
  options.topology.nodes_per_group = 2;
  options.indexing.window_length = 8;
  options.indexing.sample_size = 256;
  options.prefix_tree.cutoff_depth = 4;
  options.cost.measured_cpu = false;
  options.runtime.transport_mode = mode;
  options.runtime.nn_cache_capacity = nn_cache_capacity;
  return options;
}

void BM_ClosedLoopSerial(benchmark::State& state) {
  core::Client client(
      closed_loop_options(core::TransportMode::kSim, 0));
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

void BM_ClosedLoopConcurrent(benchmark::State& state) {
  static std::unique_ptr<core::Client> client;
  static std::vector<seq::Sequence> queries;
  if (state.thread_index() == 0) {
    client = std::make_unique<core::Client>(
        closed_loop_options(core::TransportMode::kThreaded, 4096));
    client->index(closed_loop_store());
    queries = closed_loop_queries();
  }
  // Per-thread stream offset so concurrent clients interleave different
  // (but recurring) queries.
  std::size_t i = static_cast<std::size_t>(state.thread_index()) * 7;
  for (auto _ : state) {
    const auto outcome = client->query(queries[i++ % queries.size()]);
    benchmark::DoNotOptimize(outcome.hits.size());
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    client.reset();
    queries.clear();
  }
}
BENCHMARK(BM_ClosedLoopConcurrent)
    ->Threads(1)
    ->Threads(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// ---- long-query closed loop ------------------------------------------------
//
// The long-query mix: queries long enough that the post-seed phase (range
// fetches + ungapped/banded extension) dominates, which is what the
// pipelined extension dataflow targets. Same closed-loop drive as above.

const seq::SequenceStore& serving_store() {
  static const seq::SequenceStore store = [] {
    workload::DatabaseSpec spec;
    spec.families = 6;
    spec.members_per_family = 4;
    spec.background_sequences = 12;
    spec.min_length = 600;
    spec.max_length = 1000;
    spec.seed = 4242;
    return workload::generate_database(spec);
  }();
  return store;
}

// Mixed query lengths, cycling short/medium/long (index % 3) so open-loop
// latency percentiles cover the whole service-time spread.
std::vector<seq::Sequence> serving_queries() {
  const auto& store = serving_store();
  constexpr std::size_t kLengths[3] = {120, 260, 520};
  std::vector<seq::Sequence> queries;
  for (std::size_t i = 0; i < 12; ++i) {
    const auto& donor = store.at(i);
    const std::size_t len = kLengths[i % 3];
    const std::size_t offset = (i * 13) % (donor.size() - len);
    const auto window = donor.window(offset, len);
    queries.emplace_back(store.alphabet(), "serve" + std::to_string(i),
                         std::vector<seq::Code>{window.begin(), window.end()});
  }
  return queries;
}

std::vector<seq::Sequence> long_queries() {
  auto queries = serving_queries();
  std::erase_if(queries, [](const seq::Sequence& q) {
    return q.size() < 500;
  });
  return queries;
}

void BM_ClosedLoopLongMix(benchmark::State& state) {
  static std::unique_ptr<core::Client> client;
  static std::vector<seq::Sequence> queries;
  if (state.thread_index() == 0) {
    client = std::make_unique<core::Client>(
        closed_loop_options(core::TransportMode::kThreaded, 4096));
    client->index(serving_store());
    queries = long_queries();
  }
  std::size_t i = static_cast<std::size_t>(state.thread_index()) * 3;
  for (auto _ : state) {
    const auto outcome = client->query(queries[i++ % queries.size()]);
    benchmark::DoNotOptimize(outcome.hits.size());
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    client.reset();
    queries.clear();
  }
}
BENCHMARK(BM_ClosedLoopLongMix)
    ->Threads(1)
    ->Threads(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// ---- open-loop serving bench -----------------------------------------------
//
// Arrival-rate-driven (open-loop) load: queries are submitted on a fixed
// schedule regardless of completions, so queueing delay is measured instead
// of hidden (closed-loop clients self-throttle under load). Latency is
// stamped from each query's *scheduled* arrival — late submission counts
// against the system (coordinated-omission safe). Reports p50/p99/p999 from
// the log2 latency histograms, overall and per length class, as
// BENCH_serving.json-style JSON.
//
// Driven by MENDEL_OPEN_LOOP="<rate_qps>,<seconds>" after the benchmark
// registry runs (use --benchmark_filter=^$ to run only this), with
// MENDEL_SERVING_JSON=<path> to persist the report.

obs::HistogramValue histogram_value(const obs::LatencyHistogram& h,
                                    std::string name) {
  obs::HistogramValue v;
  v.name = std::move(name);
  v.count = h.count();
  v.sum_ns = h.sum_ns();
  for (std::size_t i = 0; i < obs::LatencyHistogram::kBins; ++i) {
    const std::uint64_t n = h.bin(i);
    if (n != 0) v.bins.emplace_back(static_cast<std::uint32_t>(i), n);
  }
  return v;
}

void append_histogram_json(std::string& out, const obs::HistogramValue& v) {
  const double ms = 1e-6;
  out += "    \"" + v.name + "\": {\"count\": " + std::to_string(v.count);
  out += ", \"mean_ms\": " + std::to_string(v.mean_ns() * ms);
  out += ", \"p50_ms\": " +
         std::to_string(static_cast<double>(v.percentile_ns(50)) * ms);
  out += ", \"p99_ms\": " +
         std::to_string(static_cast<double>(v.percentile_ns(99)) * ms);
  out += ", \"p999_ms\": " +
         std::to_string(static_cast<double>(v.percentile_ns(99.9)) * ms);
  out += "}";
}

void open_loop_serving(double rate_qps, double seconds,
                       const char* json_path) {
  using clock = std::chrono::steady_clock;
  auto options = closed_loop_options(core::TransportMode::kThreaded, 4096);
  core::Client client(options);
  client.index(serving_store());
  const auto queries = serving_queries();

  obs::LatencyHistogram overall;
  std::array<obs::LatencyHistogram, 3> per_class;  // short / medium / long
  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> failed{0};

  const auto interval =
      std::chrono::duration_cast<clock::duration>(
          std::chrono::duration<double>(1.0 / rate_qps));
  const auto start = clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> waiters;
  waiters.reserve(static_cast<std::size_t>(rate_qps * seconds) + 1);
  for (std::size_t i = 0;; ++i) {
    const auto scheduled = start + interval * static_cast<std::int64_t>(i);
    if (scheduled >= deadline) break;
    std::this_thread::sleep_until(scheduled);
    const auto& query = queries[i % queries.size()];
    const auto ticket = client.submit(query);
    waiters.emplace_back([&, ticket, scheduled, cls = i % 3] {
      const auto outcome = client.wait(ticket);
      const auto ns = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() -
                                                               scheduled)
              .count());
      overall.record_ns(ns);
      per_class[cls].record_ns(ns);
      if (outcome.completed) {
        completed.fetch_add(1, std::memory_order_relaxed);
      } else {
        failed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& waiter : waiters) waiter.join();
  const double wall =
      std::chrono::duration<double>(clock::now() - start).count();

  std::string json = "{\n";
  json += "  \"mode\": \"open_loop\",\n";
  json += "  \"rate_qps\": " + std::to_string(rate_qps) + ",\n";
  json += "  \"duration_s\": " + std::to_string(seconds) + ",\n";
  json += "  \"submitted\": " + std::to_string(waiters.size()) + ",\n";
  json += "  \"completed\": " + std::to_string(completed.load()) + ",\n";
  json += "  \"failed\": " + std::to_string(failed.load()) + ",\n";
  json += "  \"achieved_qps\": " +
          std::to_string(static_cast<double>(completed.load()) / wall) +
          ",\n";
  json += "  \"latency\": {\n";
  const char* class_names[3] = {"short_120", "medium_260", "long_520"};
  append_histogram_json(json, histogram_value(overall, "overall"));
  json += ",\n";
  for (std::size_t c = 0; c < 3; ++c) {
    append_histogram_json(json,
                          histogram_value(per_class[c], class_names[c]));
    if (c + 1 < 3) json += ",\n";
  }
  json += "\n  }\n}\n";

  std::cout << "open-loop serving: " << json;
  if (json_path != nullptr) {
    std::ofstream out(json_path);
    out << json;
    if (!out) {
      std::cerr << "cannot write serving report to " << json_path << "\n";
      std::exit(1);
    }
    std::cout << "serving report written to " << json_path << "\n";
  }
}

// ---- observability smoke ---------------------------------------------------
//
// Driven by the CI observability step rather than the benchmark registry:
// after the selected benchmarks run, MENDEL_METRICS_JSON=<path> dumps the
// unified metrics snapshot of a one-query pipeline run for
// tools/check_metrics_schema, and MENDEL_TRACE=1 additionally runs that
// query traced and prints its reassembled span timeline.
void observability_smoke(const char* metrics_path, const char* trace_env) {
  auto options = closed_loop_options(core::TransportMode::kSim, 4096);
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
  if (const char* open_loop = std::getenv("MENDEL_OPEN_LOOP")) {
    double rate = 0.0, seconds = 0.0;
    if (std::sscanf(open_loop, "%lf,%lf", &rate, &seconds) != 2 ||
        rate <= 0.0 || seconds <= 0.0) {
      std::cerr << "MENDEL_OPEN_LOOP wants \"<rate_qps>,<seconds>\", got \""
                << open_loop << "\"\n";
      return 1;
    }
    open_loop_serving(rate, seconds, std::getenv("MENDEL_SERVING_JSON"));
  }
  return 0;
}
