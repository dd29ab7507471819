// mendel_perfbench: end-to-end benchmark of the socket deployment.
//
//   mendel_perfbench --workload protein-cold|protein-hot|dna-ingest
//                    --seed N --seconds S --trace 0|1 [--revision REV]
//   mendel_perfbench --selftest
//
// --trace 0 reports the end-to-end metrics from untraced deployments;
// --trace 1 runs the workload untraced once more (the overhead baseline),
// then traced with a daemon metrics registry, and reports the per-layer
// metrics and the stage table. The last stdout line is the JSON result.
// See README.md for the metric definitions.
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <numeric>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "cluster.h"
#include "selftest.h"
#include "src/common/simd.h"
#include "stages.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace mendel;

#if defined(NDEBUG) && defined(__OPTIMIZE__)
constexpr bool kOptimizedBuild = true;
#else
constexpr bool kOptimizedBuild = false;
#endif

// Traced runs stage at most this many queries (a seeded sample).
constexpr std::size_t kMaxStagedQueries = 400;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  // sample counts etc., printed in the report only
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string revision = "unknown";
  bool selftest = false;
};

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Resident memory of the whole process (client + daemons) once the
// allocator has returned its free pages: what the deployment holds, not
// the slack glibc's per-thread arenas happened to keep (peak RSS varied
// by a fifth between identical runs).
double resident_mib() {
  malloc_trim(0);
  std::ifstream statm("/proc/self/statm");
  double pages = 0.0, resident = 0.0;
  statm >> pages >> resident;
  return resident * static_cast<double>(::sysconf(_SC_PAGESIZE)) /
         (1 << 20);
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0).value;
}

std::string number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

// --- set-up --------------------------------------------------------------

struct Setup {
  std::unique_ptr<Deployment> deployment;
  double start_seconds = 0.0;  // concurrent daemon start
  double index_seconds = 0.0;  // Client::index
  double total_seconds = 0.0;  // daemon start + client + index
};

Setup set_up(const Workload& workload, const std::string& socket_dir,
             bool traced) {
  Setup s;
  const double t0 = now_seconds();
  s.deployment =
      std::make_unique<Deployment>(socket_dir, workload.deployment(traced));
  const double t1 = now_seconds();
  s.deployment->client().index(workload.store());
  const double t2 = now_seconds();
  s.start_seconds = s.deployment->start_seconds();
  s.index_seconds = t2 - t1;
  s.total_seconds = t2 - t0;
  return s;
}

// --- end-to-end numbers of one run ---------------------------------------

struct RunSummary {
  std::size_t attempted = 0;
  std::size_t incomplete = 0;
  double qps = 0.0;
  Percentile p50, p95;
  double source_recall = 0.0;
  double fresh_recall = 0.0;
  std::size_t fresh_queries = 0;
};

RunSummary summarize(const RunResult& run, double seconds) {
  RunSummary s;
  s.attempted = run.records.size();
  std::vector<double> latency_ms;
  std::size_t in_window = 0, found = 0, fresh_found = 0;
  for (const QueryRecord& r : run.records) {
    if (r.found_source) ++found;
    if (r.fresh) {
      ++s.fresh_queries;
      if (r.found_source) ++fresh_found;
    }
    if (!r.completed) {
      ++s.incomplete;
      continue;
    }
    latency_ms.push_back(1e3 * r.turnaround);
    if (r.arrival() >= run.window_start && r.arrival() <= run.window_end) {
      ++in_window;
    }
  }
  s.qps = static_cast<double>(in_window) / seconds;
  s.p50 = percentile(latency_ms, 50.0);
  s.p95 = percentile(latency_ms, 95.0);
  s.source_recall = share(static_cast<double>(found),
                          static_cast<double>(s.attempted));
  // Workloads that ingest nothing after index() have every source ingested
  // by this run's own set-up, so fresh recall covers all queries.
  s.fresh_recall = s.fresh_queries == 0
                       ? s.source_recall
                       : share(static_cast<double>(fresh_found),
                               static_cast<double>(s.fresh_queries));
  return s;
}

std::string count_note(const Percentile& p) {
  return "n=" + std::to_string(p.samples) +
         " beyond=" + std::to_string(p.beyond) +
         (p.resolved() ? "" : " UNRESOLVED(<10 beyond)");
}

// --- per-layer readings ----------------------------------------------------

struct LayerReading {
  obs::MetricsSnapshot daemon;  // daemons' shared registry
  obs::MetricsSnapshot client;  // Client::metrics()
  core::NodeCounters nodes;     // summed NodeHost::node(id)->counters()
  vpt::BlockStoreStats store;
  double resident_bytes = 0.0;
  double packed_bytes = 0.0;
  std::uint64_t messages = 0, bytes = 0, dropped = 0, decode_errors = 0,
                frame_errors = 0, reconnects = 0, spans_dropped = 0;
};

// Settles first: NodeHost::node() races dispatch, so counters are only
// read once every node has acked a barrier and gone idle.
LayerReading read_layers(Deployment& d) {
  d.settle();
  LayerReading r;
  if (auto* registry = d.daemon_registry()) r.daemon = registry->snapshot();
  r.client = d.client().metrics();
  for (const auto& host : d.hosts()) {
    for (net::NodeId id = 0; id < kGroups * kNodesPerGroup; ++id) {
      const core::StorageNode* node = host->node(id);
      if (node == nullptr) continue;
      const core::NodeCounters& c = node->counters();
      r.nodes.blocks_inserted += c.blocks_inserted;
      r.nodes.nn_searches += c.nn_searches;
      r.nodes.nn_cache_hits += c.nn_cache_hits;
      r.nodes.nn_cache_misses += c.nn_cache_misses;
      r.nodes.seeds_emitted += c.seeds_emitted;
      r.nodes.fetches_served += c.fetches_served;
      r.nodes.anchors_extended += c.anchors_extended;
      r.nodes.gapped_extensions += c.gapped_extensions;
      r.nodes.fetch_ranges_coalesced += c.fetch_ranges_coalesced;
      r.nodes.anchors_pruned += c.anchors_pruned;
      const auto arena = node->arena_stats();
      r.resident_bytes += static_cast<double>(arena.resident_bytes);
      r.packed_bytes += static_cast<double>(arena.packed_bytes);
      r.store.hits += arena.store.hits;
      r.store.misses += arena.store.misses;
      r.store.evictions += arena.store.evictions;
      r.store.faults += arena.store.faults;
      r.spans_dropped += node->span_buffer().dropped();
    }
  }
  r.messages = r.client.counter("net.messages");
  r.bytes = r.client.counter("net.bytes");
  r.dropped = r.client.counter("net.dropped_messages");
  r.decode_errors = r.client.counter("net.decode_errors");
  r.frame_errors = r.client.counter("net.frame_errors");
  r.reconnects = r.client.counter("net.reconnects");
  r.spans_dropped += r.client.counter("trace.spans_dropped");
  for (const auto& t : d.daemon_transports()) {
    const net::NetworkStats stats = t->stats();
    r.messages += stats.messages;
    r.bytes += stats.bytes;
    r.dropped += t->dropped_messages();
    r.decode_errors += t->decode_errors();
    r.frame_errors += t->frame_errors();
    r.reconnects += t->reconnects();
  }
  return r;
}

// --- output ----------------------------------------------------------------

void print_report(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-40s %16s %-6s %s\n", m.name.c_str(),
                number(m.value).c_str(), m.unit.c_str(), m.note.c_str());
  }
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": ";
  json += std::to_string(attempted);
  json += ", \"failed\": ";
  json += std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"";
    json += escape(metrics[i].name);
    json += "\": {\"value\": ";
    json += number(metrics[i].value);
    json += ", \"unit\": \"";
    json += escape(metrics[i].unit);
    json += "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

void print_fingerprint(const Args& args) {
  std::printf(
      "fingerprint {\"nproc\": %u, \"simd_level\": \"%s\", \"ndebug\": %s, "
      "\"optimized\": %s, \"build_type\": \"%s\", \"compiler\": \"%s\", "
      "\"revision\": \"%s\", \"workload\": \"%s\", \"seed\": %llu, "
      "\"seconds\": %s, \"trace\": %d}\n",
      std::thread::hardware_concurrency(),
      simd::level_name(simd::active_level()),
#ifdef NDEBUG
      "true",
#else
      "false",
#endif
      kOptimizedBuild ? "true" : "false", MENDEL_PERFBENCH_BUILD_TYPE,
      MENDEL_PERFBENCH_COMPILER, escape(args.revision).c_str(),
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      number(args.seconds).c_str(), args.trace);
}

// --- the two modes -----------------------------------------------------------

int run_end_to_end(const Workload& workload, const Args& args,
                   const std::string& socket_dir) {
  std::vector<double> setup_s, index_s;
  Setup setup;
  for (int i = 0; i < workload.setups(); ++i) {
    setup = Setup{};  // tear the previous deployment down first
    setup = set_up(workload, socket_dir, /*traced=*/false);
    setup_s.push_back(setup.total_seconds);
    index_s.push_back(setup.index_seconds);
  }
  const RunResult run = workload.run(*setup.deployment, [] {});
  setup.deployment->settle();
  const double rss = resident_mib();
  setup.deployment.reset();

  const OracleVerdict verdict = workload.check(run);
  const RunSummary s = summarize(run, args.seconds);
  const std::size_t failed = s.incomplete + verdict.mismatched;
  const double failed_frac =
      share(static_cast<double>(failed), static_cast<double>(s.attempted));
  const double ingest_kres_per_s =
      run.add_seconds.empty()
          ? 1e-3 * static_cast<double>(workload.store().total_residues()) /
                median(index_s)
          : 1e-3 * static_cast<double>(run.residues_added) /
                std::accumulate(run.add_seconds.begin(),
                                run.add_seconds.end(), 0.0);

  const std::vector<Metric> metrics = {
      {"setup_s", median(setup_s), "s",
       "median of " + std::to_string(workload.setups()) + " set-ups"},
      {"qps", s.qps, "1/s",
       "closed loop, " + std::to_string(run.threads) + " client(s)"},
      {"latency_p50_ms", s.p50.value, "ms", count_note(s.p50)},
      {"latency_p95_ms", s.p95.value, "ms", count_note(s.p95)},
      {"success_frac", 1.0 - failed_frac, "ratio",
       "failed_frac=" + number(failed_frac) +
           " incomplete=" + std::to_string(s.incomplete) +
           " oracle_mismatched=" + std::to_string(verdict.mismatched) + "/" +
           std::to_string(verdict.checked)},
      {"source_recall", s.source_recall, "ratio",
       "n=" + std::to_string(s.attempted)},
      {"fresh_recall", s.fresh_recall, "ratio",
       "n=" + std::to_string(s.fresh_queries == 0 ? s.attempted
                                                  : s.fresh_queries)},
      {"rss_mb", rss, "MiB", "resident after the run, client + daemons"},
      {"ingest_kres_per_s", ingest_kres_per_s, "kres/s",
       run.add_seconds.empty()
           ? "Client::index"
           : "add_sequences, " + std::to_string(run.add_seconds.size()) +
                 " batches"},
  };
  std::printf("end-to-end metrics (%s, seed %llu, %s s):\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed),
              number(args.seconds).c_str());
  print_report(metrics);
  const bool correct = verdict.mismatched == 0 && verdict.checked > 0;
  if (!correct) {
    std::fprintf(stderr,
                 "perfbench: ORACLE GATE FAILED: %zu of %zu checked queries "
                 "differ from the kSim oracle\n",
                 verdict.mismatched, verdict.checked);
  }
  print_result(correct, s.attempted, failed, metrics);
  return correct ? 0 : 1;
}

int run_traced(const Workload& workload, const Args& args,
               const std::string& socket_dir) {
  // Untraced baseline for the overhead ratio.
  RunSummary baseline;
  {
    Setup setup = set_up(workload, socket_dir, /*traced=*/false);
    baseline = summarize(workload.run(*setup.deployment, [] {}), args.seconds);
  }

  Setup setup = set_up(workload, socket_dir, /*traced=*/true);
  Deployment& d = *setup.deployment;
  LayerReading before;
  const RunResult run = workload.run(d, [&] { before = read_layers(d); });
  const LayerReading after = read_layers(d);
  const RunSummary s = summarize(run, args.seconds);

  // Stage table over a seeded sample of completed queries.
  std::vector<const QueryRecord*> traced;
  for (const QueryRecord& r : run.records) {
    if (r.completed) traced.push_back(&r);
  }
  std::mt19937_64 rng(args.seed);
  std::shuffle(traced.begin(), traced.end(), rng);
  if (traced.size() > kMaxStagedQueries) traced.resize(kMaxStagedQueries);
  std::array<std::vector<double>, kStageNames.size()> stage_ms;
  std::vector<double> residual_ms;
  std::vector<double> turnaround_ms;
  std::size_t staged = 0, stage_failures = 0;
  std::string first_failure;
  for (const QueryRecord* r : traced) {
    const obs::QueryTrace trace = d.client().collect_trace(r->query_id);
    const StageBreakdown b = stage_breakdown(trace, r->turnaround);
    if (!b.ok || !residual_within_bound(b.residual, r->turnaround)) {
      ++stage_failures;
      if (first_failure.empty()) {
        first_failure = b.ok ? "residual " + number(b.residual * 1e3) + " ms"
                             : b.error;
      }
      continue;
    }
    ++staged;
    for (std::size_t i = 0; i < kStageNames.size(); ++i) {
      stage_ms[i].push_back(b.seconds[i] * 1e3);
    }
    residual_ms.push_back(b.residual * 1e3);
    turnaround_ms.push_back(r->turnaround * 1e3);
  }
  const LayerReading final_reading = read_layers(d);
  setup.deployment.reset();
  const OracleVerdict verdict = workload.check(run);

  const auto q = static_cast<double>(std::max<std::size_t>(1, run.issued));
  auto delta = [](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(a >= b ? a - b : 0);
  };
  auto hist_ms = [&](const char* name) {
    return 1e3 * histogram_sum_seconds_delta(before.daemon, after.daemon,
                                             name);
  };
  auto counter = [&](const char* name) {
    return static_cast<double>(counter_delta(before.daemon, after.daemon, name));
  };
  const double hits = delta(after.nodes.nn_cache_hits, before.nodes.nn_cache_hits);
  const double misses =
      delta(after.nodes.nn_cache_misses, before.nodes.nn_cache_misses);
  const double extended =
      delta(after.nodes.anchors_extended, before.nodes.anchors_extended);
  const double pruned =
      delta(after.nodes.anchors_pruned, before.nodes.anchors_pruned);
  const double store_hits = delta(after.store.hits, before.store.hits);
  const double store_misses = delta(after.store.misses, before.store.misses);
  const double batched = counter("kernel.batched_scans");
  const double scalar = counter("kernel.scalar_fallbacks");
  const double overhead = 1.0 - share(s.qps, baseline.qps);
  std::vector<double> submit_us;
  for (const QueryRecord& r : run.records) {
    submit_us.push_back(1e6 * r.submit_seconds);
  }

  std::vector<Metric> metrics = {
      {"mendel.cluster_start_s", setup.start_seconds, "s", ""},
      {"mendel.index_s", setup.index_seconds, "s", ""},
      {"mendel.submit_us", percentile(submit_us, 50.0).value, "us",
       "p50, n=" + std::to_string(submit_us.size())},
      {"mendel.add_sequences_s",
       run.add_seconds.empty() ? 0.0 : median(run.add_seconds), "s",
       "median, n=" + std::to_string(run.add_seconds.size())},
      {"mendel.warmup_s", run.warmup_seconds, "s", ""},
  };
  for (std::size_t i = 0; i < kStageNames.size(); ++i) {
    metrics.push_back({std::string("mendel.stage.") + kStageNames[i] + "_ms",
                       median(stage_ms[i]), "ms",
                       "median, n=" + std::to_string(staged)});
  }
  metrics.push_back({"mendel.stage.residual_ms", median(residual_ms), "ms",
                     "bound |r| <= " + number(kResidualAbsSeconds * 1e3) +
                         " ms + " + number(kResidualRel) + " x turnaround"});
  metrics.push_back({"mendel.stage.staged_queries",
                     static_cast<double>(staged), "count", ""});
  metrics.push_back({"mendel.stage.failures",
                     static_cast<double>(stage_failures), "count",
                     first_failure});
  const std::vector<Metric> layer = {
      {"mendel.seeds_per_query",
       delta(after.nodes.seeds_emitted, before.nodes.seeds_emitted) / q,
       "count", ""},
      {"mendel.fetches_per_query",
       delta(after.nodes.fetches_served, before.nodes.fetches_served) / q,
       "count", ""},
      {"mendel.ranges_coalesced_per_query",
       delta(after.nodes.fetch_ranges_coalesced,
             before.nodes.fetch_ranges_coalesced) / q,
       "count", ""},
      {"mendel.anchors_extended_per_query", extended / q, "count", ""},
      {"mendel.anchor_prune_ratio", share(pruned, pruned + extended), "ratio",
       "pruned / (pruned + extended)"},
      {"mendel.gapped_ext_per_query",
       delta(after.nodes.gapped_extensions, before.nodes.gapped_extensions) /
           q,
       "count", ""},
      {"mendel.handler_busy_ms_per_query",
       handler_busy_seconds(hist_ms("node.handler_seconds") / 1e3) * 1e3 / q,
       "ms", "sampled sum x16"},
      {"mendel.group_fanin_wait_ms_per_query",
       hist_ms("group.fanin_wait_seconds") / q, "ms", ""},
      {"mendel.coord_fanin_wait_ms_per_query",
       hist_ms("coord.fanin_wait_seconds") / q, "ms", ""},
      {"vptree.nn_searches_per_query",
       delta(after.nodes.nn_searches, before.nodes.nn_searches) / q, "count",
       ""},
      {"vptree.nn_cache_hit_ratio", share(hits, hits + misses), "ratio",
       "hits / (hits + misses)"},
      {"vptree.search_busy_ms_per_query", hist_ms("node.search_seconds") / q,
       "ms", ""},
      {"vptree.subquery_busy_ms_per_query",
       hist_ms("node.subquery_seconds") / q, "ms", ""},
      {"vptree.blockstore_fault_ratio",
       share(delta(after.store.faults, before.store.faults),
             store_hits + store_misses),
       "ratio", "faults / (hits + misses)"},
      {"vptree.blockstore_evictions_per_query",
       delta(after.store.evictions, before.store.evictions) / q, "count", ""},
      {"vptree.arena_resident_mb", after.resident_bytes / (1 << 20), "MiB",
       "all nodes"},
      {"vptree.arena_packed_mb", after.packed_bytes / (1 << 20), "MiB",
       "all nodes"},
      {"vptree.blocks_inserted_per_s",
       delta(after.nodes.blocks_inserted, before.nodes.blocks_inserted) /
           args.seconds,
       "1/s", ""},
      {"scoring.batched_scan_ratio", share(batched, batched + scalar), "ratio",
       "batched / (batched + scalar)"},
      {"scoring.simd_level",
       static_cast<double>(after.daemon.gauge("kernel.simd_level")), "level",
       simd::level_name(simd::active_level())},
      {"align.group_extend_ms_per_query", hist_ms("group.extend_seconds") / q,
       "ms", ""},
      {"align.coord_extend_ms_per_query", hist_ms("coord.extend_seconds") / q,
       "ms", ""},
      {"net.messages_per_query", delta(after.messages, before.messages) / q,
       "count", "client + every daemon transport"},
      {"net.bytes_per_query", delta(after.bytes, before.bytes) / q, "B", ""},
      {"net.dropped", delta(after.dropped, before.dropped), "count", ""},
      {"net.decode_errors", delta(after.decode_errors, before.decode_errors),
       "count", ""},
      {"net.frame_errors", delta(after.frame_errors, before.frame_errors),
       "count", ""},
      {"net.reconnects", delta(after.reconnects, before.reconnects), "count",
       ""},
      {"obs.trace_overhead_frac", overhead, "ratio",
       "1 - traced qps / untraced qps"},
      {"obs.spans_dropped", static_cast<double>(final_reading.spans_dropped),
       "count", ""},
      {"loadgen.threads", static_cast<double>(run.threads), "count", ""},
      {"loadgen.sent", static_cast<double>(s.attempted), "count", ""},
      {"loadgen.completed", static_cast<double>(s.attempted - s.incomplete),
       "count", ""},
      {"failed_frac",
       share(static_cast<double>(s.incomplete + verdict.mismatched),
             static_cast<double>(s.attempted)),
       "ratio", ""},
      {"gate.oracle_checked", static_cast<double>(verdict.checked), "count",
       ""},
      {"gate.oracle_mismatched", static_cast<double>(verdict.mismatched),
       "count", ""},
  };
  metrics.insert(metrics.end(), layer.begin(), layer.end());

  std::printf("stage table (%s, %zu queries staged, turnaround median %s ms):\n",
              args.workload.c_str(), staged,
              number(median(turnaround_ms)).c_str());
  std::printf("  %-14s %12s %12s\n", "stage", "median_ms", "mean_ms");
  const double turnaround_total =
      std::accumulate(turnaround_ms.begin(), turnaround_ms.end(), 0.0);
  for (std::size_t i = 0; i <= kStageNames.size(); ++i) {
    const auto& values = i < kStageNames.size() ? stage_ms[i] : residual_ms;
    const double sum = std::accumulate(values.begin(), values.end(), 0.0);
    std::printf("  %-14s %12s %12s  %5.1f%% of turnaround\n",
                i < kStageNames.size() ? kStageNames[i] : "residual",
                number(median(values)).c_str(),
                number(values.empty() ? 0.0 : sum / values.size()).c_str(),
                100.0 * share(sum, turnaround_total));
  }
  std::printf("per-layer metrics:\n");
  print_report(metrics);

  const bool correct = verdict.mismatched == 0 && verdict.checked > 0 &&
                       stage_failures == 0 && staged > 0 &&
                       final_reading.spans_dropped == 0;
  if (!correct) {
    std::fprintf(stderr,
                 "perfbench: traced run FAILED its checks: oracle %zu/%zu "
                 "mismatched, %zu stage failures (%s), %llu spans dropped\n",
                 verdict.mismatched, verdict.checked, stage_failures,
                 first_failure.c_str(),
                 static_cast<unsigned long long>(final_reading.spans_dropped));
  }
  print_result(correct, s.attempted, s.incomplete + verdict.mismatched,
               metrics);
  return correct ? 0 : 1;
}

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      args.selftest = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") args.workload = value;
      else if (flag == "--seed") args.seed = std::stoull(value);
      else if (flag == "--seconds") args.seconds = std::stod(value);
      else if (flag == "--trace") args.trace = std::stoi(value);
      else if (flag == "--revision") args.revision = value;
      else return false;
    } catch (const std::exception&) {
      return false;
    }
  }
  return args.selftest ||
         (!args.workload.empty() && args.seconds > 0 &&
          (args.trace == 0 || args.trace == 1));
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: mendel_perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--revision REV] | --selftest\n");
    return 2;
  }
  const bool selftest_ok = run_selftests(std::cerr);
  if (args.selftest) return selftest_ok ? 0 : 1;
  if (!selftest_ok) {
    std::fprintf(stderr, "perfbench: self-tests failed; refusing to measure\n");
    return 1;
  }
  if (!kOptimizedBuild) {
    std::fprintf(stderr,
                 "********************************************************\n"
                 "* perfbench: REFUSING an unoptimized build (no NDEBUG or *\n"
                 "* no -O). Rebuild with -DCMAKE_BUILD_TYPE=Release.       *\n"
                 "********************************************************\n");
    return 1;
  }
  const auto kind = parse_workload(args.workload);
  if (!kind.has_value()) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  print_fingerprint(args);

  const std::string socket_dir =
      ".bench_run/s" + std::to_string(::getpid());
  std::filesystem::create_directories(socket_dir);
  int code = 1;
  try {
    const Workload workload(*kind, args.seed, args.seconds);
    code = args.trace == 0 ? run_end_to_end(workload, args, socket_dir)
                           : run_traced(workload, args, socket_dir);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    code = 1;
  }
  std::filesystem::remove_all(socket_dir);
  return code;
}
