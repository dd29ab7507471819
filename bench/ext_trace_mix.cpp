// Extension experiment (beyond the paper's figures): a realistic mixed
// query trace.
//
// The paper justifies its query-length sweep with the NIH statistic that
// 90% of real BLAST protein queries are shorter than 1000 residues. This
// harness drives both engines with a stream whose lengths follow that
// distribution (lognormal, median ~330, p90 ~1000) and reports the
// latency distribution and effective throughput — the "operations view"
// of Figures 6a/6b.
#include "bench/bench_common.h"
#include "bench/bench_setup.h"
#include "src/common/stats.h"
#include "src/common/stopwatch.h"

int main(int argc, char** argv) {
  using namespace mendel;
  const auto args = bench::parse_args(argc, argv);

  const std::size_t db_residues = args.quick ? 150000 : 400000;
  const auto store = bench::make_database(db_residues, args.seed);
  std::printf("database: %zu sequences, %zu residues\n", store.size(),
              store.total_residues());

  core::Client client(bench::cluster_options());
  client.index(store);
  blast::BlastEngine blast_engine(&store, &score::blosum62());
  blast_engine.build();

  // Build the trace: lengths from the NIH-like distribution, content
  // sampled from the database with sequencing noise.
  Rng rng(args.seed ^ 0x7ace);
  const std::size_t trace_size = args.quick ? 12 : 30;
  std::vector<seq::Sequence> trace;
  std::vector<seq::SequenceId> eligible_cache;
  Histogram length_histogram(0, 3000, 6);
  for (std::size_t i = 0; i < trace_size; ++i) {
    const std::size_t length =
        workload::sample_trace_query_length(rng, 60, 2500);
    length_histogram.add(static_cast<double>(length));
    // Donor long enough for this length.
    std::vector<seq::SequenceId> eligible;
    for (const auto& s : store) {
      if (s.size() >= length) eligible.push_back(s.id());
    }
    if (eligible.empty()) continue;
    const auto& donor = store.at(eligible[rng.below(eligible.size())]);
    const auto offset = donor.size() == length
                            ? 0
                            : rng.below(donor.size() - length);
    const auto region = donor.window(offset, length);
    seq::Sequence raw(store.alphabet(),
                      std::string("t").append(std::to_string(i)),
                      {region.begin(), region.end()});
    trace.push_back(workload::mutate(raw, {0.05, 0.0, 0.0}, raw.name(), rng));
  }
  std::printf("trace: %zu queries, length distribution:\n%s\n", trace.size(),
              length_histogram.ascii(30).c_str());

  std::vector<double> mendel_latencies, blast_latencies;
  double mendel_virtual_total = 0, blast_wall_total = 0;
  for (const auto& query : trace) {
    const auto outcome = client.query(query, bench::bench_params());
    mendel_latencies.push_back(outcome.turnaround);
    mendel_virtual_total += outcome.turnaround;

    Stopwatch watch;
    blast_engine.search(query);
    const double wall = watch.seconds();
    blast_latencies.push_back(wall);
    blast_wall_total += wall;
  }

  TextTable table("Mixed trace (NIH-like lengths): latency and throughput");
  table.set_header({"engine", "mean (s)", "p50 (s)", "p90 (s)",
                    "queries/sec (serial stream)"});
  auto row = [&](const char* name, const std::vector<double>& samples,
                 double total) {
    RunningStats stats;
    for (double s : samples) stats.add(s);
    table.add_row({name, TextTable::num(stats.mean(), 4),
                   TextTable::num(percentile(samples, 50), 4),
                   TextTable::num(percentile(samples, 90), 4),
                   TextTable::num(static_cast<double>(samples.size()) / total,
                                  1)});
  };
  row("Mendel (simulated 50-node)", mendel_latencies, mendel_virtual_total);
  row("BLAST baseline (1 machine)", blast_latencies, blast_wall_total);
  bench::emit(table, args);
  bench::paper_shape(
      "extension beyond the paper: on a realistic length mix Mendel's "
      "latency distribution sits well below the single-machine baseline's, "
      "consistent with Figures 6a/6b");
  return 0;
}
