// Mendel storage node: one actor playing every server-side role of the
// symmetric architecture (paper §V-B: "any node in the cluster can perform
// as a query's entry point and generates identical results").
//
// Roles, all hosted in this class:
//   * block store     — a dynamically balanced local vp-tree over the
//                       inverted-index blocks this node owns (§V-A3);
//   * sequence shard  — home-node storage of full reference sequences,
//                       serving FetchRange requests during anchor and
//                       gapped extension;
//   * searcher        — per-subquery n-NN lookups with identity and
//                       c-score filtering (§V-B);
//   * group entry     — fan-out/fan-in within its group, seed merging on
//                       (sequence, diagonal), batched range fetches, and
//                       ungapped anchor extension;
//   * coordinator     — system entry point: subquery construction, group
//                       routing via the vp-prefix tree, cross-group anchor
//                       aggregation, gapped extension, E-value ranking.
//
// The class is transport-agnostic: the same code runs under the
// deterministic SimTransport and the thread-per-node ThreadTransport. All
// mutable state is only touched from handle(), which both transports call
// from a single thread per node. The one intra-handler concurrency is the
// subquery fan-out in on_node_search: pool tasks only *read* the vp-tree
// and arena (each with a private probe metric and block-store pin set) and
// write disjoint slots of a local result vector; counters and the NN cache
// stay handler-thread-only.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <future>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include <mutex>

#include "src/cluster/topology.h"
#include "src/common/flat_key_set.h"
#include "src/common/thread_annotations.h"
#include "src/common/thread_pool.h"
#include "src/mendel/fetch_plan.h"
#include "src/mendel/protocol.h"
#include "src/net/message.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/scoring/distance.h"
#include "src/scoring/karlin.h"
#include "src/vptree/dynamic_vptree.h"
#include "src/vptree/prefix_tree.h"
#include "src/vptree/window_arena.h"
#include "src/vptree/window_index.h"

namespace mendel::core {

struct StorageNodeConfig {
  const cluster::Topology* topology = nullptr;
  const vpt::VpPrefixTree* prefix_tree = nullptr;
  const score::DistanceMatrix* distance = nullptr;
  seq::Alphabet alphabet = seq::Alphabet::kProtein;
  std::size_t bucket_capacity = 32;
  // Total residues across the indexed database; set by the client after
  // indexing (used for Karlin–Altschul E-values at the coordinator).
  std::uint64_t database_residues = 0;
  // Shared worker pool for intra-node subquery fan-out in on_node_search.
  // nullptr keeps the serial path. Either way the seed lists are merged in
  // subquery order, so replies are byte-identical for every pool size.
  ThreadPool* search_pool = nullptr;
  // Entries held by the node-local subquery NN cache (0 disables caching).
  // Query windows are stride-k k-mers, so concurrent and repeated queries
  // share windows; a hit skips the vp-tree search entirely.
  std::size_t nn_cache_capacity = 4096;
  // MENDEL_CHECKED builds audit the two-tier DHT placement of freshly
  // admitted blocks after every insert batch (senders route with the
  // shared topology, so misplacement means corrupted routing state).
  // Unit tests that address a node directly with unrouted blocks can opt
  // out; the vp-tree structural audit still runs. No effect outside
  // MENDEL_CHECKED builds.
  bool checked_placement_audit = true;
  // Shared metrics registry for pipeline-stage latency histograms. nullptr
  // (the default) disables histogram instrumentation entirely — the hot
  // paths then skip even the clock reads.
  obs::MetricsRegistry* metrics = nullptr;
  // Bound on this node's trace span buffer; spans past it are counted as
  // dropped rather than growing node memory while no collector runs.
  std::size_t trace_buffer_capacity = 1 << 16;
  // Resident-byte budget for the window arena. 0 (the default) keeps the
  // original all-resident heap arena; > 0 spills rows to a memory-mapped
  // BlockStore whose LRU-pinned hot set is bounded by this many bytes
  // (src/vptree/block_store.h). Search results are byte-identical either
  // way — only residency changes.
  std::size_t arena_resident_budget = 0;
  // Bit-pack arena rows when the alphabet fits: 2 bits for the DNA core
  // (auto-widening to 4 when an ambiguity base appears), 4 bits for any
  // alphabet with at most 16 codes. Lossless — the packed kernels decode
  // the very same codes — so this only shrinks memory, never results.
  bool arena_packing = true;
  // Spill-segment granularity for the block store; 0 keeps the default
  // (BlockStore::kDefaultSegmentBytes). Smaller segments make the LRU
  // budget meaningful for small per-node arenas (benches, tests).
  std::size_t arena_segment_bytes = 0;
  // Score-bounded pruning of coordinator-side gapped extension: bins whose
  // best possible banded score provably cannot place a hit in the final
  // top max_hits (or under the E-value cutoff) skip their fetch and DP
  // entirely. The bound is exact — ranked results are identical with the
  // switch off — which MENDEL_CHECKED builds verify by extending every bin
  // and comparing rankings. Off restores the extend-everything dataflow.
  bool prune_extensions = true;
};

// Per-node work counters (telemetry for benches and tests).
struct NodeCounters {
  std::uint64_t blocks_inserted = 0;
  std::uint64_t sequences_stored = 0;
  // Items restored from a snapshot via load(), counted separately so the
  // inserted/stored counters keep reporting only this session's work.
  std::uint64_t blocks_restored = 0;
  std::uint64_t sequences_restored = 0;
  std::uint64_t nn_searches = 0;
  // Subquery searches answered from the node-local NN cache (subset of
  // nn_searches) and the complement that ran a fresh vp-tree search.
  std::uint64_t nn_cache_hits = 0;
  std::uint64_t nn_cache_misses = 0;
  // Cache misses answered by the Hamming-ball lookup walk instead of a
  // vp-tree search (mismatch-indicator metrics only; see search_subquery).
  std::uint64_t nn_ball_searches = 0;
  std::uint64_t seeds_emitted = 0;
  std::uint64_t fetches_served = 0;
  std::uint64_t group_queries = 0;
  std::uint64_t queries_coordinated = 0;
  std::uint64_t anchors_extended = 0;
  std::uint64_t gapped_extensions = 0;
  // Extension-pipeline work avoided: kFetchRange requests saved by
  // coalescing overlapping per-seed ranges, and anchors whose bins were
  // score-bound pruned out of gapped extension.
  std::uint64_t fetch_ranges_coalesced = 0;
  std::uint64_t anchors_pruned = 0;
  // Frames rejected at the trust boundary: framing failures (truncated /
  // trailing bytes), unknown message types, and semantically poisonous
  // values (out-of-alphabet codes, inverted intervals). The node drops the
  // frame and keeps serving.
  std::uint64_t decode_errors = 0;
};

class StorageNode final : public net::Actor {
 public:
  StorageNode(net::NodeId id, StorageNodeConfig config);

  // Decodes and dispatches one frame. Malformed frames (DecodeError — bad
  // framing, unknown type, or semantic validation failure) are counted in
  // counters().decode_errors / `net.decode_errors` and dropped; any other
  // exception (CheckError, ProtocolError) still propagates because it
  // indicates an internal bug, not hostile input.
  void handle(const net::Message& message, net::Context& ctx) override;

  net::NodeId id() const { return id_; }
  // Stored blocks: one vp-tree item per distinct window plus the postings
  // of the windows that repeat.
  std::size_t block_count() const { return tree_.size() + postings_.size(); }
  // Distinct windows (vp-tree items, arena rows).
  std::size_t window_count() const { return tree_.size(); }
  std::size_t sequence_count() const { return sequences_.size(); }
  // Highest stored sequence id + 1 (0 when the shard is empty); the client
  // uses the cluster-wide max as its id watermark after load_index().
  seq::SequenceId max_sequence_id_plus_one() const;
  const NodeCounters& counters() const { return counters_; }
  // Diagnostic text of the most recently rejected frame ("" when none).
  const std::string& last_decode_error() const { return last_decode_error_; }

  // Outstanding query state machines (leak detection in tests: after every
  // query completed or was cancelled, both must be zero on every node).
  std::size_t pending_group_queries() const { return group_pending_.size(); }
  std::size_t pending_coordinator_queries() const {
    return coord_pending_.size();
  }
  std::size_t nn_cache_entries() const MENDEL_EXCLUDES(nn_cache_mu_) {
    std::lock_guard lock(nn_cache_mu_);
    return nn_cache_.size();
  }

  // Spans recorded for traced queries, awaiting a kCollectTrace broadcast.
  const obs::SpanBuffer& span_buffer() const { return span_buffer_; }

  // Arena storage telemetry: resident/packed bytes plus the block-store
  // hit/miss/eviction/fault counters (zeros for all-resident arenas).
  vpt::WindowArena::Stats arena_stats() const { return arena_.stats(); }

  // Membership view for fault tolerance: nodes marked down are excluded
  // from fan-outs and home-node selection. (The paper leaves fault
  // tolerance as future work; Mendel ships a static-membership version.)
  void set_down(net::NodeId node, bool down);
  bool is_down(net::NodeId node) const { return down_.contains(node); }

  // Updated by the client after (incremental) indexing.
  void set_database_residues(std::uint64_t residues) {
    config_.database_residues = residues;
  }
  // The E-value search-space denominator this node ranks hits with.
  std::uint64_t database_residues() const {
    return config_.database_residues;
  }

  // --- persistence (paper §VII-B future work: save pre-indexed data) ----
  void save(CodecWriter& writer) const;
  void load(CodecReader& reader);

  // --- invariant verification (src/verify, tools/mendel_verify) ---------
  // Materialized copies of every stored block: tree iteration order, each
  // window's item followed by its other postings.
  std::vector<Block> blocks() const;
  // Ascending ids of the sequences this shard stores.
  std::vector<seq::SequenceId> stored_sequence_ids() const;
  // Deep node-local audit: local vp-tree structure (balance, occupancy,
  // mu admissibility), window/posting/arena/first-block/dedup-key
  // bookkeeping, two-tier DHT placement of every stored block (tier 1:
  // the window re-hashes to this node's group; tier 2: the intra-group
  // ring owners include this node) and the repository ring homes of every
  // stored sequence. Returns human-readable violations, at most
  // `max_violations`; empty = sound.
  // Under MENDEL_CHECKED this runs automatically after rebalance and
  // load (and a delivered-blocks-only variant after every insert batch).
  std::vector<std::string> audit(std::size_t max_violations = 32) const;

 private:
  // Tests seed bookkeeping corruptions through it (storage_node_test).
  friend struct StorageNodeTestPeer;

  // Stored sequence shard entry.
  struct StoredSequence {
    std::string name;
    std::vector<seq::Code> codes;
  };

  // One stored block: its identity plus the slot of its window payload in
  // the node's SoA arena. The vp-tree holds one per distinct window (the
  // window's first admitted block); the window's other blocks are postings
  // beside the tree. 12 bytes instead of a Block with a heap-allocated
  // window, so tree rebuilds shuffle indices and bucket scans read one
  // contiguous code buffer.
  struct BlockRef {
    // Sentinel slot marking a search probe; its codes live in the node's
    // `probe_` span rather than the arena.
    static constexpr std::uint32_t kProbeSlot = 0xffffffffu;

    seq::SequenceId sequence = seq::kInvalidSequenceId;
    std::uint32_t start = 0;
    std::uint32_t slot = 0;

    std::uint64_t key() const {
      return (static_cast<std::uint64_t>(sequence) << 32) | start;
    }
  };
  // The n-NN tie order over blocks: (sequence, start), unique per node.
  struct BlockOrder {
    bool operator()(const BlockRef& a, const BlockRef& b) const {
      return a.key() < b.key();
    }
  };
  // Repeated windows' postings beyond their tree item, by arena slot.
  using Postings = vpt::PostingLists<BlockRef, BlockOrder>;

  // Metric adapter: L1 window distance between arena-resident windows,
  // with the early-abandoning variant the vp-tree uses for bucket scans
  // and vantage pruning, plus the batched leaf-scan entry point that runs
  // the SIMD kernels over whole bucket chunks. Lengths are validated once
  // at admission (arena append) and search entry, so the kernels skip the
  // per-call check.
  struct BlockRefMetric {
    // Bucket chunk handed to one distance_batch kernel call.
    static constexpr std::size_t kBatchChunk = 64;

    const score::DistanceMatrix* distance;
    const vpt::WindowArena* arena;
    const Postings* postings;
    const seq::CodeSpan* probe;
    // The running operation's pin set (one search, one insert batch):
    // spilled rows are pinned into it and read in place, without the store
    // lock. Null outside an operation (audits, the tree's idle metric):
    // spilled rows are then copied under the store lock.
    vpt::PinSet* pins = nullptr;
    // Kernel observability (kernel.batched_scans / kernel.scalar_fallbacks);
    // null on metrics-less nodes and on the tree's internal rebuild metric.
    obs::Counter* batched_scans = nullptr;
    obs::Counter* scalar_fallbacks = nullptr;

    // Pins both operands' rows as one access group of the pin set.
    void pin_operands(const BlockRef& a, const BlockRef& b) const {
      if (pins == nullptr || !arena->spilled()) return;
      std::array<std::uint32_t, 2> slots;
      std::size_t n = 0;
      if (a.slot != BlockRef::kProbeSlot) slots[n++] = a.slot;
      if (b.slot != BlockRef::kProbeSlot) slots[n++] = b.slot;
      arena->pin_rows(*pins, slots.data(), n);
    }
    // Item-wise code access to one operand, after pin_operands(). Unpacked
    // rows are handed out in place when readable (heap, or pinned); packed
    // rows decode into per-thread scratch — `side` keeps the two operands
    // of a distance call in separate buffers.
    const seq::Code* codes(const BlockRef& ref, int side) const {
      if (ref.slot == BlockRef::kProbeSlot) return probe->data();
      const bool in_place = pins != nullptr || !arena->spilled();
      if (in_place && !arena->packed()) return arena->row_data(ref.slot);
      thread_local std::vector<seq::Code> scratch[2];
      auto& buf = scratch[side];
      buf.resize(arena->window_length());
      if (in_place) {
        arena->decode_pinned(ref.slot, buf.data());
      } else {
        arena->copy_row(ref.slot, buf.data());
      }
      return buf.data();
    }
    double operator()(const BlockRef& a, const BlockRef& b) const {
      pin_operands(a, b);
      return score::window_distance_unchecked(*distance, codes(a, 0),
                                              codes(b, 1),
                                              arena->window_length());
    }
    // Total order over stored blocks for n-NN distance ties. Block identity
    // (sequence, start) is unique per node (dedup keys), so the tie class at
    // the n-th-neighbor boundary resolves identically on every tree shape —
    // required for sim/threaded transport parity on DNA, whose 4-letter
    // alphabet makes exact window-distance ties pervasive.
    bool tie_before(const BlockRef& a, const BlockRef& b) const {
      return BlockOrder{}(a, b);
    }
    // The other blocks sharing a tree item's window, in tie order: the
    // n-NN search offers each at the item's distance.
    std::span<const BlockRef> more_postings(const BlockRef& item) const {
      return postings->extras(item.slot);
    }
    double bounded(const BlockRef& a, const BlockRef& b,
                   double bound) const {
      pin_operands(a, b);
      return score::window_distance_bounded_unchecked(
          *distance, codes(a, 0), codes(b, 1), arena->window_length(), bound);
    }
    // Batched bucket scan against the search probe: same item-wise
    // contract as bounded(). Falls back to the item-at-a-time path when
    // the matrix has no quantized twin, the arena is too large for 32-bit
    // gather offsets, spilled rows have no pin set, or the target is not
    // the probe (the tree never passes one).
    void bounded_batch(const BlockRef& a, const BlockRef* items,
                       std::size_t count, double bound, double* out) const {
      const score::QuantizedDistance* q = distance->quantized();
      const std::size_t len = arena->window_length();
      const bool gatherable =
          arena->size() * arena->stride() <
          static_cast<std::size_t>(std::numeric_limits<std::int32_t>::max()) -
              vpt::WindowArena::kGuardTail;
      const bool readable = pins != nullptr || !arena->spilled();
      if (q == nullptr || !gatherable || !readable ||
          a.slot != BlockRef::kProbeSlot) {
        if (q == nullptr && scalar_fallbacks != nullptr) {
          scalar_fallbacks->add();
        }
        for (std::size_t j = 0; j < count; ++j) {
          out[j] = bounded(a, items[j], bound);
        }
        return;
      }
      const seq::Code* probe_codes = probe->data();
      const std::int64_t qthresh = q->threshold(bound);
      const auto& kernels = score::qkernels();
      std::array<std::uint32_t, kBatchChunk> slots;
      std::array<std::int64_t, kBatchChunk> qdists;
      for (std::size_t offset = 0; offset < count;) {
        std::size_t run = std::min(count - offset, kBatchChunk);
        bool arena_only = true;
        for (std::size_t j = 0; j < run && arena_only; ++j) {
          arena_only = items[offset + j].slot != BlockRef::kProbeSlot;
        }
        if (!arena_only) {
          // A probe sentinel never lives in tree buckets, but the metric
          // contract doesn't depend on that: route odd chunks item-wise.
          for (std::size_t j = 0; j < run; ++j) {
            out[offset + j] = bounded(a, items[offset + j], bound);
          }
          offset += run;
          continue;
        }
        for (std::size_t j = 0; j < run; ++j) {
          slots[j] = items[offset + j].slot;
        }
        // Spilled arenas: pin the chunk's rows into the operation's pin set
        // so the gather kernels never touch an evicted (PROT_NONE) segment;
        // a chunk spanning more segments than the budget is scanned in
        // pieces. Packed arenas route to the fused-decode kernel.
        if (pins != nullptr) run = arena->pin_rows(*pins, slots.data(), run);
        if (arena->packed()) {
          kernels.distance_batch_packed(*q, probe_codes, arena->base(),
                                        arena->stride(), arena->packed_bits(),
                                        slots.data(), run, len, qthresh,
                                        qdists.data());
        } else {
          kernels.distance_batch(*q, probe_codes, arena->base(),
                                 arena->stride(), slots.data(), run, len,
                                 qthresh, qdists.data());
        }
        for (std::size_t j = 0; j < run; ++j) {
          out[offset + j] = q->to_double(qdists[j]);
        }
        if (batched_scans != nullptr) batched_scans->add();
        offset += run;
      }
    }
  };

  // A fetched subject range held while a pending state machine completes.
  struct FetchedRange {
    std::uint32_t sequence = 0;
    std::uint32_t start = 0;
    std::uint32_t sequence_length = 0;
    std::string name;
    std::vector<seq::Code> codes;
  };

  // Seeds merged on one (sequence, diagonal) run, pre-extension.
  struct MergedSeed {
    std::uint32_t sequence = 0;
    std::uint32_t q_begin = 0;
    std::uint32_t q_end = 0;
    std::uint32_t s_begin = 0;
  };

  // ---- group entry pending state ----
  struct PendingGroupQuery {
    net::NodeId coordinator = 0;
    QueryParams params;
    std::vector<seq::Code> query;
    std::size_t awaiting_nodes = 0;
    std::vector<Seed> seeds;
    // fetch stage: one coalesced fetch per plan entry (token = plan index),
    // each serving every member seed whose margin-padded window it covers.
    std::vector<MergedSeed> merged;
    std::vector<CoalescedRange> fetch_plan;
    std::vector<std::optional<FetchedRange>> fetched;
    std::size_t awaiting_fetches = 0;
    // Streaming extension: ungapped X-drop runs as each fetch result
    // arrives (pool task under the threaded transport, inline under the
    // simulator), writing disjoint per-seed slots; the reply assembles
    // them in merged-seed order so results are arrival-order independent.
    std::vector<std::optional<Anchor>> anchor_slots;
    std::vector<std::future<void>> extend_tasks;
    // observability: trace context for downstream spans (parent = this
    // entry's group.broadcast span) and the fan-in wait origin.
    obs::TraceContext trace;
    double created = 0.0;
  };

  // ---- coordinator pending state ----
  struct SequenceBin {
    std::uint32_t sequence = 0;
    std::vector<Anchor> anchors;
    // Score-bounded pruning decision (made pre-fetch, deterministic): a
    // pruned bin provably cannot place a hit in the final ranking, so its
    // fetch and banded DP are skipped. MENDEL_CHECKED builds still extend
    // pruned bins and assert the two rankings match.
    bool pruned = false;
    // Streaming per-bin extension outcome, written by at most one task.
    std::vector<align::AlignmentHit> hits;
    std::uint32_t dp_runs = 0;
  };
  struct PendingQuery {
    net::NodeId client = 0;
    QueryParams params;
    std::vector<seq::Code> query;
    std::size_t awaiting_groups = 0;
    // Streaming fan-in: group results bin by sequence as they arrive
    // instead of accumulating one flat anchor list for an end-of-fan-in
    // pass. Per-sequence diagonal merging at the last arrival is
    // byte-identical to the old global merge (merging never crosses
    // sequences).
    std::map<std::uint32_t, std::vector<Anchor>> binned;
    std::size_t raw_anchors = 0;  // pre-merge arrivals (telemetry)
    // gapped stage
    std::vector<SequenceBin> bins;
    std::vector<std::optional<FetchedRange>> fetched;
    std::size_t awaiting_fetches = 0;
    std::vector<std::future<void>> extend_tasks;
    // observability: trace context for downstream spans (parent = this
    // coordinator's coord.route span) and the fan-in wait origin.
    obs::TraceContext trace;
    double created = 0.0;
  };

  // Handlers, one per message type.
  // handle() minus the bad-frame guard: decodes, validates, and routes.
  void dispatch(const net::Message& message, net::Context& ctx);
  void on_store_sequence(const net::Message& message);
  void on_insert_blocks(const net::Message& message);
  void on_fetch_range(const net::Message& message, net::Context& ctx);
  void on_query_request(const net::Message& message, net::Context& ctx);
  void on_group_query(const net::Message& message, net::Context& ctx);
  void on_node_search(const net::Message& message, net::Context& ctx);
  void on_node_search_result(const net::Message& message, net::Context& ctx);
  void on_fetch_range_result(const net::Message& message, net::Context& ctx);
  void on_group_result(const net::Message& message, net::Context& ctx);
  void on_rebalance(net::Context& ctx);
  void on_collect_trace(const net::Message& message, net::Context& ctx);

  // Records one span for a traced query and returns its id so callers can
  // parent downstream work on it; no-op (returns 0) when `trace` is off.
  std::uint64_t record_span(const char* name, std::uint64_t query_id,
                            const obs::TraceContext& trace, double start,
                            std::uint64_t duration_ns, std::uint64_t value);

  // Stage transitions.
  void group_entry_merge_and_fetch(std::uint64_t query_id,
                                   PendingGroupQuery& pending,
                                   net::Context& ctx);
  void group_entry_finish(std::uint64_t query_id, PendingGroupQuery& pending,
                          net::Context& ctx);
  void coordinator_bin_and_fetch(std::uint64_t query_id,
                                 PendingQuery& pending, net::Context& ctx);
  void coordinator_finish(std::uint64_t query_id, PendingQuery& pending,
                          net::Context& ctx);

  // Streaming extension bodies, scheduled per fetch arrival. Pure compute:
  // they read the pending entry's immutable stage inputs and write only
  // their own disjoint slots (anchor_slots members / one SequenceBin), so
  // they are safe on pool threads while the handler thread keeps
  // dispatching; `wall_timing` routes the phase histogram (off under the
  // simulator, where wall time is meaningless and nondeterministic).
  void group_entry_extend_range(PendingGroupQuery& pending,
                                std::size_t range_idx, bool wall_timing);
  void coordinator_extend_bin(PendingQuery& pending, std::size_t bin_idx,
                              bool wall_timing);
  // Runs `body` inline when `ctx` is virtual-time or no pool is configured;
  // otherwise submits it to the pool and parks the future in `tasks`.
  void schedule_extension(std::vector<std::future<void>>& tasks,
                          net::Context& ctx, std::function<void()> body);
  // Joins outstanding streaming-extension tasks (reply assembly and
  // kCancelQuery teardown: a pending entry must never be erased while a
  // pool task can still touch it).
  static void drain_tasks(std::vector<std::future<void>>& tasks);

  // First alive home node of a sequence key.
  net::NodeId pick_sequence_home(std::uint64_t key) const;
  std::vector<net::NodeId> alive_group_members(std::uint32_t group) const;

  // Admits one block unless already stored (dedup against block_keys_;
  // false for a re-delivery). A block whose window the node holds becomes
  // a posting of that window; any other appends its window to the arena
  // through `append` (returning the new slot) and joins `fresh` as a new
  // tree item.
  template <typename Append>
  bool admit_block(BlockRef ref, seq::CodeSpan window, Append&& append,
                   std::vector<BlockRef>& fresh);
  // admit_block over a batch; returns the new tree items and adds the
  // admitted block count to `admitted`.
  std::vector<BlockRef> admit_blocks(const std::vector<Block>& blocks,
                                     std::size_t& admitted);
  using Tree = vpt::DynamicVpTree<BlockRef, BlockRefMetric>;
  // An empty vp-tree whose metric reads this node's arena and postings.
  Tree fresh_tree();
  // Every stored block: each tree item followed by its window's postings.
  template <typename Fn>
  void for_each_block(Fn&& fn) const {
    tree_.for_each([&](const BlockRef& item) {
      fn(item);
      for (const BlockRef& posting : postings_.extras(item.slot)) {
        fn(posting);
      }
    });
  }
  // insert_batch() of freshly admitted refs, reading the arena through one
  // operation-scoped pin set.
  void insert_refs(std::vector<BlockRef> refs);

  // Checks the two-tier placement of one stored block whose window holds
  // `window` (see audit()).
  void audit_placement(const BlockRef& ref, seq::CodeSpan window,
                       std::vector<std::string>& out) const;
  // Checks the distinct-window bookkeeping: one tree item, arena row and
  // window-index entry per window (and, on Hamming nodes, a first-block
  // entry naming the tree item); sorted posting runs filed under their
  // window; and tree items plus postings equal to the dedup key set.
  // False when a violation (or the cap) means audit() must stop here.
  bool audit_windows(std::vector<std::string>& out,
                     std::size_t max_violations) const;
  // Checks the arena's block store: residency invariants, and no pin left
  // behind by a finished operation (see audit()).
  void audit_store(std::vector<std::string>& out) const;
#ifdef MENDEL_CHECKED
  // MENDEL_CHECKED hooks: throw CheckError on the first violation.
  void checked_audit(const char* where) const;
  // Insert-time variant: audits only the blocks of the delivered batch,
  // because a mid-rebalance node may legitimately still hold stale blocks
  // while the eviction wave drains; the delivered ones were routed with
  // the current topology and must already be placed correctly.
  void checked_audit_insert(const std::vector<Block>& delivered) const;
#endif
  // Reconstitutes the wire-format Block of a stored ref (codec paths).
  Block materialize(const BlockRef& ref) const;

  // One n-NN result: a stored block and its window distance to the probe.
  struct NearBlock {
    double distance = 0.0;
    BlockRef block;
  };
  // One subquery's filtered n-NN search. Thread-safe with respect to other
  // searches (the tree and window index are only read; the probe rides in
  // a per-call metric, not in the shared probe_ slot). Emitted seeds carry
  // query_offset = 0 so the result is cacheable across subqueries and
  // queries that share the window. `by_ball` reports whether the
  // Hamming-ball walk answered it rather than the vp-tree.
  std::vector<Seed> search_subquery(const vpt::Window& window,
                                    const QueryParams& params,
                                    const score::ScoringMatrix& matrix,
                                    bool& by_ball) const;
  // The unique n nearest blocks within `cap` under (distance, sequence,
  // start), found by looking up the probe's Hamming neighbourhood layer by
  // layer — radius 0, 1, ... — in the window index, and stopping after the
  // first complete layer that brings the count to n. nullopt when the next
  // layer would take more lookups than the node holds distinct windows:
  // the vp-tree is then the cheaper engine. Mismatch-indicator nodes only.
  std::optional<std::vector<NearBlock>> hamming_ball_nearest(
      seq::CodeSpan probe, std::size_t n, double cap,
      vpt::PinSet& pins) const;
  // Cache key: window codes + every parameter that shapes the seed list.
  static std::string nn_cache_key(const vpt::Window& window,
                                  const QueryParams& params);
  void invalidate_nn_cache() MENDEL_EXCLUDES(nn_cache_mu_) {
    std::lock_guard lock(nn_cache_mu_);
    nn_cache_.clear();
  }

  net::NodeId id_;
  StorageNodeConfig config_;
  double max_residue_distance_ = 0.0;  // cached distance->max_entry()
  // SoA payload store (one row per distinct window), the window -> row
  // lookup, repeated windows' postings and the current probe window; all
  // must outlive (and are declared before) the tree whose metric points at
  // them.
  vpt::WindowArena arena_;
  vpt::WindowIndex windows_;
  Postings postings_;
  // Mismatch-indicator (Hamming) nodes answer n-NN through the window
  // index; only they keep each arena slot's first admitted block (its
  // vp-tree item, as BlockRef::key()), which the lookups cannot reach
  // through the tree.
  bool hamming_ball_ = false;
  std::vector<std::uint64_t> first_blocks_;
  seq::CodeSpan probe_;
  Tree tree_;
  // Identities of stored blocks (BlockRef::key()) so re-deliveries during
  // replication and rebalance stay idempotent.
  FlatKeySet block_keys_;
  std::unordered_map<std::uint32_t, StoredSequence> sequences_;
  std::set<net::NodeId> down_;
  NodeCounters counters_;
  std::string last_decode_error_;

  std::map<std::uint64_t, PendingGroupQuery> group_pending_;
  std::map<std::uint64_t, PendingQuery> coord_pending_;

  // Node-local subquery NN cache: key = window codes + search params,
  // value = the filtered seed list with query_offset zeroed. Mutated only
  // from the handler thread (lookups before the pool fan-out, insertions
  // after it joins); the mutex — uncontended on that path — makes the
  // telemetry reads other threads perform (nn_cache_entries) well-defined
  // and lets Clang's thread-safety analysis verify every access.
  // Invalidated whenever the local block set changes (insert, rebalance,
  // load).
  mutable std::mutex nn_cache_mu_;
  std::unordered_map<std::string, std::vector<Seed>> nn_cache_
      MENDEL_GUARDED_BY(nn_cache_mu_);

  // Observability: span storage for traced queries and cached histogram
  // handles (null when config_.metrics is null — instrumentation then
  // costs a single pointer test per site).
  obs::SpanBuffer span_buffer_;
  // Dispatch-time histogram sampling (handler thread only): every
  // kHandlerSample-th message pays the two clock reads.
  static constexpr std::uint64_t kHandlerSample = 16;
  std::uint64_t handler_ticks_ = 0;
  obs::LatencyHistogram* h_handler_ = nullptr;
  obs::LatencyHistogram* h_search_ = nullptr;
  obs::LatencyHistogram* h_subquery_ = nullptr;
  obs::LatencyHistogram* h_group_fanin_ = nullptr;
  obs::LatencyHistogram* h_coord_fanin_ = nullptr;
  // Extension-phase compute latency (per coalesced range / per bin chain);
  // recorded from pool threads, which the histograms' relaxed atomics allow.
  obs::LatencyHistogram* h_group_extend_ = nullptr;
  obs::LatencyHistogram* h_coord_extend_ = nullptr;
  // Kernel path visibility: which SIMD level this process dispatches to
  // and how often searches take the batched vs scalar-fallback path.
  obs::Counter* c_batched_scans_ = nullptr;
  obs::Counter* c_scalar_fallbacks_ = nullptr;
  // Extension-pipeline savings (mirrors of the NodeCounters fields so the
  // cluster-wide registry aggregates them).
  obs::Counter* c_ranges_coalesced_ = nullptr;
  obs::Counter* c_anchors_pruned_ = nullptr;
  // Frames rejected by the bad-frame guard (mirror of
  // counters_.decode_errors for the cluster-wide registry).
  obs::Counter* c_decode_errors_ = nullptr;
};

}  // namespace mendel::core
