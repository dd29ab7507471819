// Observability subsystem tests: metrics registry primitives, export
// round-trips, per-query distributed tracing (determinism under the
// simulator, stage coverage under both transports), exact per-query
// traffic attribution, and metrics consistency under concurrent batches
// (the TSan CI job runs this binary).
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "src/common/error.h"
#include "src/mendel/client.h"
#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/workload/generator.h"

namespace mendel {
namespace {

// ---------- registry primitives ----------

TEST(Metrics, CounterSumsAcrossShards) {
  obs::Counter counter;
  counter.add(3);
  counter.add_shard(0, 2);
  counter.add_shard(7, 5);
  counter.add_shard(7 + obs::Counter::kShards, 1);  // wraps onto shard 7
  EXPECT_EQ(counter.value(), 11u);
}

TEST(Metrics, GaugeSetAndAdd) {
  obs::Gauge gauge;
  gauge.set(10);
  gauge.add(-4);
  EXPECT_EQ(gauge.value(), 6);
}

TEST(Metrics, HistogramBinsAndPercentiles) {
  obs::LatencyHistogram h;
  h.record_ns(0);
  h.record_ns(1);     // bin 1: [1, 2)
  h.record_ns(1000);  // bin 10: [512, 1024)
  h.record_seconds(1e-6);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum_ns(), 0u + 1u + 1000u + 1000u);
  EXPECT_EQ(h.bin(0), 1u);
  EXPECT_EQ(h.bin(1), 1u);
  EXPECT_EQ(h.bin(10), 2u);
}

TEST(Metrics, RegistryHandlesAreStableAndShared) {
  obs::MetricsRegistry registry;
  obs::Counter& a = registry.counter("x.events");
  obs::Counter& b = registry.counter("x.events");
  EXPECT_EQ(&a, &b);
  a.add(2);
  b.add(3);
  const auto snap = registry.snapshot();
  EXPECT_EQ(snap.counter("x.events"), 5u);
  EXPECT_EQ(snap.counter("never.registered"), 0u);
}

// ---------- export round-trip ----------

TEST(Metrics, JsonExportRoundTrips) {
  obs::MetricsRegistry registry;
  registry.counter("a.count").add(42);
  registry.gauge("b.depth").set(-7);
  registry.histogram("c.latency_seconds").record_ns(900);
  const auto snap = registry.snapshot();

  const obs::Json doc = obs::Json::parse(snap.to_json());
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.find("counters")->find("a.count")->number(), 42.0);
  EXPECT_EQ(doc.find("gauges")->find("b.depth")->number(), -7.0);
  const obs::Json* histogram =
      doc.find("histograms")->find("c.latency_seconds");
  ASSERT_NE(histogram, nullptr);
  EXPECT_EQ(histogram->find("count")->number(), 1.0);
  EXPECT_EQ(histogram->find("sum_ns")->number(), 900.0);
  ASSERT_EQ(histogram->find("bins")->array().size(), 1u);
}

// ---------- adversarial JSON input ----------
// The parser reads external text (metrics exports round-tripped through
// files, schema documents); malformed input must raise ParseError, never
// crash or accept garbage. These pin the hardening the json_fuzz harness
// enforces over arbitrary bytes.

TEST(Json, DeeplyNestedDocumentIsRejectedNotStackOverflow) {
  const std::string deep(100000, '[');
  EXPECT_THROW(obs::Json::parse(deep), ParseError);
  // A balanced but too-deep document fails the same way.
  std::string balanced(1000, '[');
  balanced += std::string(1000, ']');
  EXPECT_THROW(obs::Json::parse(balanced), ParseError);
  // Realistic nesting stays well inside the limit.
  EXPECT_NO_THROW(obs::Json::parse("[[[[[[[[[[1]]]]]]]]]]"));
}

TEST(Json, TruncatedUnicodeEscapeIsRejected) {
  EXPECT_THROW(obs::Json::parse(R"("\u00)"), ParseError);
  EXPECT_THROW(obs::Json::parse(R"("\u")"), ParseError);
  EXPECT_THROW(obs::Json::parse(R"("\uZZZZ")"), ParseError);
  EXPECT_EQ(obs::Json::parse(R"("A")").str(), "A");
}

TEST(Json, NonFiniteNumbersAreRejected) {
  EXPECT_THROW(obs::Json::parse("1e999"), ParseError);
  EXPECT_THROW(obs::Json::parse("-1e999"), ParseError);
  EXPECT_THROW(obs::Json::parse("inf"), ParseError);
  EXPECT_THROW(obs::Json::parse("nan"), ParseError);
  EXPECT_DOUBLE_EQ(obs::Json::parse("1.7976931348623157e308").number(),
                   1.7976931348623157e308);
}

TEST(Json, MalformedDocumentsRaiseStructuredErrors) {
  for (const char* bad :
       {"", "{", "[1,", "\"abc", "{\"a\":}", "truex", "01x", "[1 2]",
        "{\"a\" 1}", "\xff\xfe"}) {
    EXPECT_THROW(obs::Json::parse(bad), ParseError) << bad;
  }
}

TEST(Metrics, PrometheusExportNamesAndTypes) {
  obs::MetricsRegistry registry;
  registry.counter("net.messages").add(5);
  registry.histogram("node.search_seconds").record_ns(1000);
  const auto text = registry.snapshot().to_prometheus();
  EXPECT_NE(text.find("# TYPE net_messages counter"), std::string::npos);
  EXPECT_NE(text.find("net_messages 5"), std::string::npos);
  EXPECT_NE(text.find("# TYPE node_search_seconds histogram"),
            std::string::npos);
  EXPECT_NE(text.find("node_search_seconds_count 1"), std::string::npos);
  EXPECT_NE(text.find("le=\"+Inf\""), std::string::npos);
}

// ---------- span buffer ----------

TEST(Trace, SpanBufferBoundsAndDrainsByQuery) {
  obs::SpanBuffer buffer(3);
  for (std::uint64_t i = 0; i < 5; ++i) {
    obs::SpanRecord span;
    span.name = "s";
    span.query_id = i % 2;
    span.span_id = buffer.next_span_id(9);
    buffer.add(std::move(span));
  }
  EXPECT_EQ(buffer.size(), 3u);
  EXPECT_EQ(buffer.dropped(), 2u);
  const auto q0 = buffer.take(0);
  for (const auto& span : q0) EXPECT_EQ(span.query_id, 0u);
  EXPECT_EQ(buffer.size(), 3u - q0.size());
  // Span ids embed the node id in the high word.
  EXPECT_EQ(q0.at(0).span_id >> 32, 9u);
}

// ---------- cluster fixtures ----------

workload::DatabaseSpec obs_spec() {
  workload::DatabaseSpec spec;
  spec.families = 4;
  spec.members_per_family = 3;
  spec.background_sequences = 8;
  spec.min_length = 150;
  spec.max_length = 300;
  spec.seed = 77;
  return spec;
}

core::ClientOptions obs_options(core::TransportMode mode) {
  core::ClientOptions options;
  options.topology.num_groups = 3;
  options.topology.nodes_per_group = 2;
  options.indexing.window_length = 8;
  options.indexing.sample_size = 256;
  options.prefix_tree.cutoff_depth = 4;
  // Fixed handler charge: virtual timestamps are then bit-exact across
  // runs, which the byte-stability test below relies on.
  options.cost.measured_cpu = false;
  options.runtime.transport_mode = mode;
  options.runtime.enable_tracing = true;
  return options;
}

seq::Sequence probe_of(const seq::SequenceStore& store, std::size_t donor) {
  const auto window = store.at(donor).window(5, 110);
  return seq::Sequence(store.alphabet(), "probe",
                       std::vector<seq::Code>{window.begin(), window.end()});
}

// Every stage of the paper's query dataflow, client admit through reply.
const char* const kPipelineStages[] = {
    "client.submit", "coord.route",  "group.broadcast", "node.search",
    "group.merge",   "node.fetch",   "group.extend",    "coord.fanin",
    "coord.finish",  "client.reply",
};

obs::QueryTrace traced_query(core::Client& client, const seq::Sequence& query) {
  const auto ticket = client.submit(query);
  const auto outcome = client.wait(ticket);
  EXPECT_TRUE(outcome.completed);
  EXPECT_FALSE(outcome.hits.empty());
  return client.collect_trace(ticket.id);
}

// ---------- tracing ----------

TEST(Trace, TimelineIsByteStableUnderSim) {
  const auto store = workload::generate_database(obs_spec());
  const auto query = probe_of(store, 2);

  std::string first;
  for (int run = 0; run < 2; ++run) {
    core::Client client(obs_options(core::TransportMode::kSim));
    client.index(store);
    const auto trace = traced_query(client, query);
    for (const char* stage : kPipelineStages) {
      EXPECT_TRUE(trace.has_span(stage)) << "missing span " << stage;
    }
    const std::string formatted = trace.format();
    if (run == 0) {
      first = formatted;
      EXPECT_FALSE(first.empty());
    } else {
      EXPECT_EQ(first, formatted)
          << "identical sim runs must produce identical timelines";
    }
  }
}

TEST(Trace, CoversEveryStageUnderThreads) {
  const auto store = workload::generate_database(obs_spec());
  auto options = obs_options(core::TransportMode::kThreaded);
  options.runtime.search_threads = 2;
  core::Client client(options);
  client.index(store);
  const auto trace = traced_query(client, probe_of(store, 2));
  for (const char* stage : kPipelineStages) {
    EXPECT_TRUE(trace.has_span(stage)) << "missing span " << stage;
  }
  // Under wall-clock time the searcher spans carry measured durations.
  EXPECT_EQ(trace.to_json().find("\"spans\": []"), std::string::npos);
}

TEST(Trace, CollectedSpansAreRemovedFromNodeBuffers) {
  const auto store = workload::generate_database(obs_spec());
  core::Client client(obs_options(core::TransportMode::kSim));
  client.index(store);
  const auto trace = traced_query(client, probe_of(store, 2));
  EXPECT_GT(trace.spans.size(), 0u);
  // A second collection finds nothing: buffers were drained.
  const auto again = client.collect_trace(trace.query_id);
  EXPECT_TRUE(again.spans.empty());
  EXPECT_EQ(client.metrics().gauge("trace.spans_buffered"), 0);
}

TEST(Trace, DisabledTracingRecordsNothing) {
  const auto store = workload::generate_database(obs_spec());
  auto options = obs_options(core::TransportMode::kSim);
  options.runtime.enable_tracing = false;
  core::Client client(options);
  client.index(store);
  const auto ticket = client.submit(probe_of(store, 2));
  EXPECT_TRUE(client.wait(ticket).completed);
  EXPECT_TRUE(client.collect_trace(ticket.id).spans.empty());
  EXPECT_EQ(client.metrics().gauge("trace.spans_buffered"), 0);
}

// ---------- exact per-query traffic ----------

TEST(Traffic, PerQueryAttributionIsExactUnderConcurrency) {
  const auto store = workload::generate_database(obs_spec());
  const auto query = probe_of(store, 2);

  // Baseline: the query alone.
  core::Client solo(obs_options(core::TransportMode::kSim));
  solo.index(store);
  const auto solo_outcome = solo.query(query);
  ASSERT_GT(solo_outcome.traffic.messages, 0u);

  // Same query admitted first in a concurrent batch: its attributed traffic
  // must be identical — overlapping queries' messages no longer bleed in.
  core::Client busy(obs_options(core::TransportMode::kSim));
  busy.index(store);
  const auto outcomes = busy.query_batch(
      {query, probe_of(store, 5), probe_of(store, 9)});
  EXPECT_EQ(outcomes[0].traffic.messages, solo_outcome.traffic.messages);
  EXPECT_EQ(outcomes[0].traffic.bytes, solo_outcome.traffic.bytes);
  // Each concurrent query got a non-empty, per-query count.
  for (const auto& outcome : outcomes) {
    EXPECT_TRUE(outcome.completed);
    EXPECT_GT(outcome.traffic.messages, 0u);
    EXPECT_LT(outcome.traffic.messages, busy.metrics().counter("net.messages"));
  }
}

// ---------- unified stats under concurrency ----------

core::NodeCounters summed_node_counters(const core::Client& client) {
  core::NodeCounters total;
  for (net::NodeId id = 0; id < client.node_count(); ++id) {
    const core::NodeCounters& c = client.node(id).counters();
    total.nn_searches += c.nn_searches;
    total.nn_cache_hits += c.nn_cache_hits;
    total.nn_cache_misses += c.nn_cache_misses;
    total.nn_ball_searches += c.nn_ball_searches;
    total.fetch_ranges_coalesced += c.fetch_ranges_coalesced;
    total.anchors_pruned += c.anchors_pruned;
  }
  return total;
}

// Dashboards and the schema lint see one name set whatever the runtime:
// every net.* counter is exported (zero where a runtime cannot incur it),
// and both exports pass tools/check_metrics_schema.
TEST(Metrics, SameNameSetOnEveryRuntimeAndSchemaClean) {
  const auto store = workload::generate_database(obs_spec());
  std::vector<std::set<std::string>> name_sets;
  for (const auto mode :
       {core::TransportMode::kSim, core::TransportMode::kThreaded}) {
    const std::string tag =
        mode == core::TransportMode::kSim ? "sim" : "threaded";
    core::Client client(obs_options(mode));
    client.index(store);
    EXPECT_TRUE(client.query(probe_of(store, 2)).completed) << tag;
    client.settle();
    const auto snap = client.metrics();

    std::set<std::string> names;
    for (const auto& c : snap.counters) names.insert("counter " + c.name);
    for (const auto& g : snap.gauges) names.insert("gauge " + g.name);
    for (const auto& h : snap.histograms) names.insert("histogram " + h.name);
    name_sets.push_back(std::move(names));

    const std::string path = testing::TempDir() + "mendel_metrics_" +
                             std::to_string(::getpid()) + "_" + tag + ".json";
    {
      std::ofstream out(path);
      out << snap.to_json();
    }
    const std::string command = std::string(MENDEL_SCHEMA_CHECK_BIN) + " " +
                                path + " " + MENDEL_METRICS_SCHEMA;
    EXPECT_EQ(std::system(command.c_str()), 0) << tag << ": " << command;
    std::remove(path.c_str());
  }
  EXPECT_EQ(name_sets[0], name_sets[1]);
}

TEST(Metrics, ConsistentUnderConcurrentBatch) {
  const auto store = workload::generate_database(obs_spec());
  auto options = obs_options(core::TransportMode::kThreaded);
  options.runtime.search_threads = 2;
  core::Client client(options);
  client.index(store);

  std::vector<seq::Sequence> queries;
  for (std::size_t donor : {1u, 2u, 5u, 9u, 2u, 5u}) {
    queries.push_back(probe_of(store, donor));
  }
  const auto outcomes = client.query_batch(queries);
  for (const auto& outcome : outcomes) EXPECT_TRUE(outcome.completed);
  // wait() returns as the reply lands; the last handlers may still run.
  client.settle();

  const auto snap = client.metrics();
  EXPECT_EQ(snap.counter("client.queries_submitted"), queries.size());
  EXPECT_EQ(snap.counter("client.queries_completed"), queries.size());
  EXPECT_EQ(snap.counter("client.queries_stalled"), 0u);
  const obs::HistogramValue* turnaround =
      snap.histogram("client.turnaround_seconds");
  ASSERT_NE(turnaround, nullptr);
  EXPECT_EQ(turnaround->count, queries.size());
  // The export agrees with the per-node NodeCounters it folds in.
  const auto totals = summed_node_counters(client);
  EXPECT_EQ(snap.counter("node.nn_searches"), totals.nn_searches);
  EXPECT_EQ(snap.counter("node.nn_cache_hits"), totals.nn_cache_hits);
  EXPECT_EQ(snap.counter("node.nn_cache_misses"), totals.nn_cache_misses);
  // The BLOSUM-derived protein metric never takes the Hamming-ball path.
  EXPECT_EQ(snap.counter("node.nn_ball_searches"), 0u);
  EXPECT_EQ(totals.nn_ball_searches, 0u);
  // Pipeline-stage histograms saw real work.
  EXPECT_GT(snap.histogram("node.handler_seconds")->count, 0u);
  EXPECT_GT(snap.histogram("node.search_seconds")->count, 0u);
  // Load gauges were published at index time.
  EXPECT_EQ(snap.gauge("cluster.nodes"), 6);

  // The full client-facing export parses back cleanly.
  const obs::Json doc = obs::Json::parse(snap.to_json());
  EXPECT_EQ(doc.find("counters")->find("client.queries_submitted")->number(),
            static_cast<double>(queries.size()));
}

// DNA nodes answer n-NN by window-index lookups; the export counts those
// searches, summed over the nodes, including ones run on the search pool.
TEST(Metrics, HammingBallSearchesExportedOnDna) {
  workload::DatabaseSpec spec = obs_spec();
  spec.alphabet = seq::Alphabet::kDna;
  const auto store = workload::generate_database(spec);
  auto options = obs_options(core::TransportMode::kThreaded);
  options.runtime.search_threads = 2;
  core::Client client(options);
  client.index(store);
  core::QueryParams params;
  params.matrix = "DNA";
  params.n = 16;
  // Cap 1 at k = 8: 25 lookups, within the budget of these small shards.
  params.identity = 0.875;
  params.c_score = 0.4;
  for (std::size_t donor : {1u, 4u, 7u}) {
    EXPECT_TRUE(client.query(probe_of(store, donor), params).completed);
  }
  client.settle();

  const auto snap = client.metrics();
  const auto totals = summed_node_counters(client);
  EXPECT_GT(totals.nn_ball_searches, 0u);
  EXPECT_LE(totals.nn_ball_searches, totals.nn_cache_misses);
  EXPECT_EQ(snap.counter("node.nn_ball_searches"), totals.nn_ball_searches);
}

TEST(Metrics, ExtensionPipelineCountersAndHistograms) {
  // Long homologous sequences plus short unrelated ones: a long query's
  // top hit is certain to outscore anything a short subject can offer, so
  // the coordinator's score-bounded pruning has bins to skip.
  workload::DatabaseSpec long_spec = obs_spec();
  long_spec.families = 2;
  long_spec.background_sequences = 0;
  long_spec.min_length = 350;
  long_spec.max_length = 420;
  workload::DatabaseSpec short_spec = obs_spec();
  short_spec.families = 3;
  short_spec.members_per_family = 2;
  short_spec.background_sequences = 6;
  short_spec.min_length = 40;
  short_spec.max_length = 60;
  short_spec.seed = 78;
  seq::SequenceStore store(seq::Alphabet::kProtein);
  for (const auto& s : workload::generate_database(long_spec)) store.add(s);
  for (const auto& s : workload::generate_database(short_spec)) store.add(s);

  auto options = obs_options(core::TransportMode::kThreaded);
  options.runtime.search_threads = 2;
  core::Client client(options);
  client.index(store);

  const auto window = store.at(1).window(5, 345);
  const seq::Sequence probe(store.alphabet(), "probe",
                            std::vector<seq::Code>{window.begin(),
                                                   window.end()});
  // Permissive trigger admits the short-subject bins; top-1 makes the
  // guaranteed-hit cutoff as sharp as possible.
  core::QueryParams params;
  params.gapped_trigger = 0.1;
  params.max_hits = 1;
  const auto outcome = client.query(probe, params);
  EXPECT_TRUE(outcome.completed);
  EXPECT_FALSE(outcome.hits.empty());

  const auto snap = client.metrics();
  EXPECT_GT(snap.counter("fetch.ranges_coalesced"), 0u);
  EXPECT_GT(snap.counter("extend.anchors_pruned"), 0u);
  // The export agrees with the per-node NodeCounters it folds in.
  const auto totals = summed_node_counters(client);
  EXPECT_EQ(snap.counter("node.fetch_ranges_coalesced"),
            totals.fetch_ranges_coalesced);
  EXPECT_EQ(snap.counter("node.anchors_pruned"), totals.anchors_pruned);
  // Extension-phase histograms record wall time under the threaded
  // transport (virtual time runs extensions inline, unmeasured).
  const obs::HistogramValue* group_extend =
      snap.histogram("group.extend_seconds");
  ASSERT_NE(group_extend, nullptr);
  EXPECT_GT(group_extend->count, 0u);
  const obs::HistogramValue* coord_extend =
      snap.histogram("coord.extend_seconds");
  ASSERT_NE(coord_extend, nullptr);
  EXPECT_GT(coord_extend->count, 0u);
}

}  // namespace
}  // namespace mendel
