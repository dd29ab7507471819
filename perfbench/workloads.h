// The three workloads: seeded inputs, the load generators that drive a
// Deployment, and the kSim oracle that re-answers a sample of each run's
// queries. See README.md for why each workload exists.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cluster.h"
#include "src/mendel/params.h"
#include "src/sequence/sequence.h"

namespace perfbench {

enum class WorkloadKind { kProteinCold, kProteinHot, kDnaIngest };

std::optional<WorkloadKind> parse_workload(std::string_view name);

// One attempted query as the load generator saw it. Times are
// steady_clock seconds, the clock Client stamps injected_at with.
struct QueryRecord {
  std::uint64_t source = 0;  // planted source sequence id
  bool fresh = false;        // source was ingested during this run
  double injected_at = 0.0;  // QueryTicket::injected_at
  double turnaround = 0.0;   // QueryOutcome::turnaround
  double submit_seconds = 0.0;  // wall time inside Client::submit
  std::uint64_t query_id = 0;
  bool completed = false;
  bool found_source = false;

  double arrival() const { return injected_at + turnaround; }
};

struct Answer {
  std::vector<std::uint8_t> bytes;
  std::size_t count = 0;
};

// Counts `count` more queries that returned `bytes`.
void tally(std::vector<Answer>& answers, std::vector<std::uint8_t> bytes,
           std::size_t count = 1);

// One replayed step of the oracle, in the order the run performed it:
// either an add_sequences batch or a sampled query (by oracle key).
struct OracleStep {
  std::optional<std::size_t> batch;
  std::size_t key = 0;
  mendel::seq::Sequence query;
};

struct RunResult {
  std::vector<QueryRecord> records;  // measured queries only
  // Queries sent after before_window() ran, warm-up included: the
  // denominator of per-query counter deltas.
  std::size_t issued = 0;
  double window_start = 0.0;
  double window_end = 0.0;
  unsigned threads = 0;  // load-generator threads this run used
  double warmup_seconds = 0.0;
  std::vector<double> add_seconds;  // per add_sequences batch
  std::uint64_t residues_added = 0;
  // Encoded ranked hits of every query the oracle checks, by oracle key:
  // each distinct answer with how many queries returned exactly it.
  std::map<std::size_t, std::vector<Answer>> results;
  std::vector<OracleStep> oracle_plan;
};

struct OracleVerdict {
  std::size_t checked = 0;     // queries compared byte-for-byte
  std::size_t mismatched = 0;  // of those, how many differed
};

class Workload {
 public:
  Workload(WorkloadKind kind, std::uint64_t seed, double seconds);

  const mendel::seq::SequenceStore& store() const { return store_; }
  DeploymentConfig deployment(bool traced) const;
  // How many set-ups a --trace 0 run times; setup_s is their median.
  int setups() const;
  // Drives the indexed deployment for the configured seconds.
  // `before_window` runs once, after any warm-up and right before the
  // measured window opens.
  RunResult run(Deployment& deployment,
                const std::function<void()>& before_window) const;

  // Rebuilds the same index in an in-process kSim Client, replays the
  // run's oracle plan and compares every checked query's ranked hits
  // byte-for-byte.
  OracleVerdict check(const RunResult& result) const;

 private:
  RunResult run_closed(Deployment& deployment,
                       const std::function<void()>& before_window) const;
  RunResult run_ingest(Deployment& deployment,
                     const std::function<void()>& before_window) const;

  WorkloadKind kind_;
  std::uint64_t seed_;
  double seconds_;
  mendel::seq::SequenceStore store_;
  mendel::core::QueryParams params_;
  // Pre-generated queries (cold: the pool of distinct queries; hot: the
  // probe pool) with their planted sources.
  std::vector<mendel::seq::Sequence> queries_;
  std::vector<std::uint64_t> sources_;
  // dna-ingest: the batches add_sequences streams in, in order.
  std::vector<mendel::seq::SequenceStore> batches_;
};

// Encodes ranked hits exactly as the wire carries them (kQueryResult).
std::vector<std::uint8_t> encode_hits(
    const std::vector<mendel::align::AlignmentHit>& hits);

}  // namespace perfbench
