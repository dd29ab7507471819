#include "workloads.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <mutex>
#include <numeric>
#include <set>
#include <thread>
#include <tuple>

#include "src/common/error.h"
#include "src/common/rng.h"
#include "src/mendel/protocol.h"
#include "src/workload/generator.h"

namespace perfbench {

using namespace mendel;

namespace {

// --- protein-cold: independent users issuing fresh searches -------------
// Two clients keep the cluster near its capacity (about 45 q/s on the
// reference host; four clients add only queueing: 48 q/s at twice the
// latency), so search cost, not queueing, sets latency.
constexpr std::size_t kColdStoreResidues = 100'000;
constexpr std::array<std::size_t, 3> kColdLengths = {120, 260, 520};
constexpr workload::MutationModel kColdNoise{0.15, 0.01, 0.3};
// Distinct queries generated per second of run: far above the ~50 q/s the
// cluster reaches on the reference host (4-core x86-64, AVX2), so no query
// is ever asked twice.
constexpr double kColdPoolRate = 250.0;
constexpr double kColdWarmupSeconds = 2.0;
// The oracle replays the queries whose seeded draw picks one in this many.
constexpr std::uint64_t kColdSampleEvery = 64;

// --- protein-hot: recurring probes the NN cache absorbs -----------------
constexpr std::size_t kHotStoreResidues = 400'000;
constexpr std::size_t kHotProbes = 12;
constexpr std::size_t kHotLength = 600;
constexpr workload::MutationModel kHotNoise{0.10, 0.0, 0.3};

// --- dna-ingest: writes beside reads on a block-store-backed arena ------
constexpr std::size_t kIngestStoreResidues = 1'000'000;
constexpr std::size_t kIngestBatchSequences = 8;
constexpr std::size_t kIngestBatches = 120;
constexpr std::size_t kBurstReads = 12;
constexpr std::size_t kReadLength = 150;
constexpr workload::MutationModel kReadNoise{0.03, 0.0, 0.3};
// Per-node arena budget and spill-segment size. The budget leaves
// headroom above the arena (about 0.45 MiB per node after indexing plus
// what a run ingests): every row lives in the block store's file mapping
// and is faulted in per segment, but nothing is evicted. A budget below
// the working set makes vp-tree insertion fault-bound (over a minute to
// index 0.3M residues at 88% residency), far beyond a run's time limit.
constexpr std::size_t kIngestArenaBudget = std::size_t{2} << 20;
constexpr std::size_t kIngestSegmentBytes = std::size_t{64} << 10;

// Every run searches the same reference databases, like users of one
// deployment; the run seed drives what is asked of them (queries, probes,
// ingest batches and reads). Seeded stores made cross-seed
// spread several times the within-seed spread.
constexpr std::uint64_t kStoreSeed = 0x6d656e64656cULL;

// Independent streams derived from the run seed.
enum Stream : std::uint64_t {
  kQueryStream = 1,
  kSampleStream,
  kBatchStream,
  kClientStream = 100,
  kBurstStream = 1000,
};

std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream) {
  SplitMix64 mix(seed ^ (stream * 0x9e3779b97f4a7c15ULL));
  return mix.next();
}

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Families of homologs plus unrelated background, mean length ~700.
seq::SequenceStore make_store(seq::Alphabet alphabet, std::size_t residues,
                              std::uint64_t seed) {
  workload::DatabaseSpec spec;
  spec.alphabet = alphabet;
  const std::size_t sequences = std::max<std::size_t>(20, residues / 700);
  spec.families = sequences / 10;
  spec.members_per_family = 6;
  spec.background_sequences = sequences - spec.families * 6;
  spec.min_length = 200;
  spec.max_length = 1200;
  spec.seed = seed;
  return workload::generate_database(spec);
}

seq::Sequence window_of(const seq::Sequence& source, std::size_t start,
                        std::size_t length) {
  const auto codes = source.window(start, length);
  return seq::Sequence(source.alphabet(), source.name(),
                       std::vector<seq::Code>(codes.begin(), codes.end()));
}

core::QueryParams protein_params() {
  core::QueryParams params;
  params.n = 8;
  params.identity = 0.50;
  params.c_score = 0.50;
  params.branch_epsilon = 4.0;
  params.min_anchor_span = 12;
  return params;
}

core::QueryParams dna_params() {
  core::QueryParams params;
  // Four letters make exact 8-mer ties pervasive; 16 neighbours per
  // subquery keep the planted source among them (8 loses ~1 read in 8).
  params.n = 16;
  params.matrix = "DNA";
  params.identity = 0.60;
  params.c_score = 0.40;
  params.gapped_trigger = 1.0;
  params.branch_epsilon = 4.0;
  params.min_anchor_span = 12;
  return params;
}

// Closed-loop clients, never more than the host's cores: one ingest
// client, two clients on the protein workloads. Two hold protein-hot near
// 700 q/s on the reference host; four reached about 1000 q/s with two and
// a half times the run-to-run spread.
unsigned clients_for(WorkloadKind kind) {
  const unsigned wanted = kind == WorkloadKind::kDnaIngest ? 1 : 2;
  return std::max(1u, std::min(wanted, std::thread::hardware_concurrency()));
}

bool hits_source(const std::vector<align::AlignmentHit>& hits,
                 std::uint64_t source) {
  return std::any_of(hits.begin(), hits.end(), [&](const auto& hit) {
    return hit.subject_id == source;
  });
}

}  // namespace

std::optional<WorkloadKind> parse_workload(std::string_view name) {
  if (name == "protein-cold") return WorkloadKind::kProteinCold;
  if (name == "protein-hot") return WorkloadKind::kProteinHot;
  if (name == "dna-ingest") return WorkloadKind::kDnaIngest;
  return std::nullopt;
}

std::vector<std::uint8_t> encode_hits(
    const std::vector<align::AlignmentHit>& hits) {
  core::QueryResultPayload payload;
  payload.hits = hits;
  return core::encode_payload(payload);
}

void tally(std::vector<Answer>& answers, std::vector<std::uint8_t> bytes,
           std::size_t count) {
  for (Answer& answer : answers) {
    if (answer.bytes == bytes) {
      answer.count += count;
      return;
    }
  }
  answers.push_back({std::move(bytes), count});
}

Workload::Workload(WorkloadKind kind, std::uint64_t seed, double seconds)
    : kind_(kind),
      seed_(seed),
      seconds_(seconds),
      store_(kind == WorkloadKind::kDnaIngest ? seq::Alphabet::kDna
                                              : seq::Alphabet::kProtein) {
  Rng rng(stream_seed(seed, kQueryStream));
  switch (kind) {
    case WorkloadKind::kProteinCold: {
      store_ = make_store(seq::Alphabet::kProtein, kColdStoreResidues,
                          kStoreSeed);
      params_ = protein_params();
      // Distinct windows, each block of six covering every (length, source
      // kind) class once in seeded order: no query repeats, so the NN cache
      // has nothing to serve, and however many queries a run consumes it
      // asks for the same mix of work.
      const auto count = static_cast<std::size_t>(
          std::ceil(kColdPoolRate * (seconds + kColdWarmupSeconds)));
      const std::size_t family_sequences = store_.size() / 10 * 6;
      const std::size_t block = 2 * kColdLengths.size();
      std::set<std::tuple<seq::SequenceId, std::size_t, std::size_t>> seen;
      std::vector<std::size_t> classes(block);
      while (queries_.size() < count) {
        std::iota(classes.begin(), classes.end(), std::size_t{0});
        std::shuffle(classes.begin(), classes.end(), rng);
        for (const std::size_t c : classes) {
          const std::size_t length = kColdLengths[c % kColdLengths.size()];
          const bool family = c < kColdLengths.size();
          for (;;) {
            const auto id = static_cast<seq::SequenceId>(
                family ? rng.below(family_sequences)
                       : family_sequences +
                             rng.below(store_.size() - family_sequences));
            const seq::Sequence& source = store_.at(id);
            if (source.size() < length) continue;
            const std::size_t start = rng.below(source.size() - length + 1);
            if (!seen.emplace(id, start, length).second) continue;
            queries_.push_back(workload::mutate(
                window_of(source, start, length), kColdNoise, "q", rng));
            sources_.push_back(id);
            break;
          }
        }
      }
      break;
    }
    case WorkloadKind::kProteinHot: {
      store_ = make_store(seq::Alphabet::kProtein, kHotStoreResidues,
                          kStoreSeed);
      params_ = protein_params();
      // Alternate family members (five homologs each) with unrelated
      // background sequences, so every pool does the same mix of
      // extension work.
      const std::size_t family_sequences = store_.size() / 10 * 6;
      while (queries_.size() < kHotProbes) {
        const bool family = queries_.size() % 2 == 0;
        const auto id = static_cast<seq::SequenceId>(
            family ? rng.below(family_sequences)
                   : family_sequences +
                         rng.below(store_.size() - family_sequences));
        const seq::Sequence& source = store_.at(id);
        if (source.size() < kHotLength) continue;
        const std::size_t start = rng.below(source.size() - kHotLength + 1);
        queries_.push_back(workload::mutate(
            window_of(source, start, kHotLength), kHotNoise, "probe", rng));
        sources_.push_back(id);
      }
      break;
    }
    case WorkloadKind::kDnaIngest: {
      store_ = make_store(seq::Alphabet::kDna, kIngestStoreResidues,
                          kStoreSeed);
      params_ = dna_params();
      const auto pool = make_store(
          seq::Alphabet::kDna, kIngestBatches * kIngestBatchSequences * 700,
          stream_seed(seed, kBatchStream));
      for (std::size_t i = 0; i + kIngestBatchSequences <= pool.size();
           i += kIngestBatchSequences) {
        seq::SequenceStore batch(seq::Alphabet::kDna);
        for (std::size_t j = i; j < i + kIngestBatchSequences; ++j) {
          batch.add(pool.at(static_cast<seq::SequenceId>(j)));
        }
        batches_.push_back(std::move(batch));
      }
      break;
    }
  }
}

int Workload::setups() const {
  // Each set-up is cheap on the protein stores, so more of them steady the
  // median; the DNA index takes about 2 s.
  return kind_ == WorkloadKind::kDnaIngest ? 3 : 7;
}

DeploymentConfig Workload::deployment(bool traced) const {
  DeploymentConfig config;
  config.traced = traced;
  if (kind_ == WorkloadKind::kDnaIngest) {
    config.arena_resident_budget = kIngestArenaBudget;
    config.arena_segment_bytes = kIngestSegmentBytes;
  }
  return config;
}

RunResult Workload::run(Deployment& deployment,
                        const std::function<void()>& before_window) const {
  return kind_ == WorkloadKind::kDnaIngest
             ? run_ingest(deployment, before_window)
             : run_closed(deployment, before_window);
}

// Closed loop: every client submits a query and waits for it before the
// next. protein-hot draws seeded random probes from its pool after one
// untimed pass over it, and every answer is checked against the oracle's
// answer for its probe; protein-cold takes the next unused query after an
// untimed warm-up of the same loop, and a seeded sample is checked.
RunResult Workload::run_closed(
    Deployment& deployment, const std::function<void()>& before_window) const {
  core::Client& client = deployment.client();
  const bool hot = kind_ == WorkloadKind::kProteinHot;
  RunResult result;
  result.threads = clients_for(kind_);
  std::atomic<std::size_t> cursor{0};
  std::atomic<bool> exhausted{false};
  std::mutex mu;

  auto drive = [&](double until, bool measured) {
    std::vector<std::thread> clients;
    for (unsigned c = 0; c < result.threads; ++c) {
      clients.emplace_back([&, c] {
        Rng rng(stream_seed(seed_, kClientStream + c));
        std::vector<QueryRecord> records;
        std::map<std::size_t, std::vector<Answer>> results;
        while (now_seconds() < until) {
          const std::size_t index =
              hot ? rng.below(queries_.size()) : cursor.fetch_add(1);
          if (index >= queries_.size()) {
            exhausted = true;
            break;
          }
          QueryRecord record;
          record.source = sources_[index];
          const double before = now_seconds();
          const core::QueryTicket ticket =
              client.submit(queries_[index], params_);
          record.submit_seconds = now_seconds() - before;
          record.injected_at = ticket.injected_at;
          record.query_id = ticket.id;
          const core::QueryOutcome outcome = client.wait(ticket);
          if (!measured) continue;
          record.completed = outcome.completed;
          record.turnaround = outcome.turnaround;
          record.found_source = hits_source(outcome.hits, record.source);
          const bool checked =
              hot || stream_seed(seed_, kSampleStream + index) %
                             kColdSampleEvery == 0;
          if (checked && outcome.completed) {
            tally(results[index], encode_hits(outcome.hits));
          }
          records.push_back(record);
        }
        std::lock_guard lock(mu);
        result.records.insert(result.records.end(), records.begin(),
                              records.end());
        for (auto& [index, answers] : results) {
          for (auto& answer : answers) {
            tally(result.results[index], std::move(answer.bytes),
                  answer.count);
          }
        }
      });
    }
    for (auto& c : clients) c.join();
  };

  const double warm_start = now_seconds();
  if (hot) {
    for (const auto& probe : queries_) client.query(probe, params_);
  } else {
    drive(warm_start + kColdWarmupSeconds, /*measured=*/false);
  }
  result.warmup_seconds = now_seconds() - warm_start;

  before_window();
  result.window_start = now_seconds();
  result.window_end = result.window_start + seconds_;
  drive(result.window_end, /*measured=*/true);
  require(!exhausted, "protein-cold: query pool exhausted; raise kColdPoolRate");
  result.issued = result.records.size();
  for (const auto& [index, answers] : result.results) {
    result.oracle_plan.push_back({std::nullopt, index, queries_[index]});
  }
  return result;
}

// One closed-loop client alternating an add_sequences batch with a burst of
// reads, half from the batch just added and half from anything already
// stored. One read per burst is replayed by the oracle after the same
// batches.
RunResult Workload::run_ingest(
    Deployment& deployment, const std::function<void()>& before_window) const {
  core::Client& client = deployment.client();
  RunResult result;
  result.threads = clients_for(kind_);
  before_window();
  result.window_start = now_seconds();
  result.window_end = result.window_start + seconds_;

  const auto base_sequences = static_cast<seq::SequenceId>(store_.size());
  seq::SequenceId known = base_sequences;
  auto sequence_at = [&](seq::SequenceId id) -> const seq::Sequence& {
    if (id < base_sequences) return store_.at(id);
    const std::size_t offset = id - base_sequences;
    return batches_[offset / kIngestBatchSequences].at(
        static_cast<seq::SequenceId>(offset % kIngestBatchSequences));
  };

  for (std::size_t burst = 0; now_seconds() < result.window_end; ++burst) {
    const bool added = burst < batches_.size();
    if (added) {
      const double before = now_seconds();
      const seq::SequenceId base = client.add_sequences(batches_[burst]);
      result.add_seconds.push_back(now_seconds() - before);
      require(base == known, "dna-ingest: add_sequences assigned unexpected ids");
      known += static_cast<seq::SequenceId>(kIngestBatchSequences);
      result.residues_added += batches_[burst].total_residues();
      result.oracle_plan.push_back({burst, 0, {}});
    }
    Rng rng(stream_seed(seed_, kBurstStream + burst));
    const std::size_t sampled = rng.below(kBurstReads);
    for (std::size_t j = 0;
         j < kBurstReads && now_seconds() < result.window_end; ++j) {
      seq::SequenceId source;
      if (added && rng.chance(0.5)) {
        source = known - kIngestBatchSequences +
                 static_cast<seq::SequenceId>(rng.below(kIngestBatchSequences));
      } else {
        source = static_cast<seq::SequenceId>(rng.below(known));
      }
      const seq::Sequence& origin = sequence_at(source);
      const std::size_t start = rng.below(origin.size() - kReadLength + 1);
      const seq::Sequence read = workload::mutate(
          window_of(origin, start, kReadLength), kReadNoise, "read", rng);

      QueryRecord record;
      record.source = source;
      record.fresh = source >= base_sequences;
      const double before = now_seconds();
      const core::QueryTicket ticket = client.submit(read, params_);
      record.submit_seconds = now_seconds() - before;
      record.injected_at = ticket.injected_at;
      record.query_id = ticket.id;
      const core::QueryOutcome outcome = client.wait(ticket);
      record.completed = outcome.completed;
      record.turnaround = outcome.turnaround;
      record.found_source = hits_source(outcome.hits, source);
      result.records.push_back(record);
      if (j == sampled && outcome.completed) {
        const std::size_t key = result.records.size() - 1;
        tally(result.results[key], encode_hits(outcome.hits));
        result.oracle_plan.push_back({std::nullopt, key, read});
      }
    }
  }
  result.issued = result.records.size();
  return result;
}

OracleVerdict Workload::check(const RunResult& result) const {
  core::Client oracle(client_options(deployment(false)));
  oracle.index(store_);
  OracleVerdict verdict;
  for (const OracleStep& step : result.oracle_plan) {
    if (step.batch.has_value()) {
      oracle.add_sequences(batches_[*step.batch]);
      continue;
    }
    const auto it = result.results.find(step.key);
    if (it == result.results.end()) continue;  // never answered
    const auto expected = encode_hits(oracle.query(step.query, params_).hits);
    for (const Answer& answer : it->second) {
      verdict.checked += answer.count;
      if (answer.bytes != expected) verdict.mismatched += answer.count;
    }
  }
  return verdict;
}

}  // namespace perfbench
