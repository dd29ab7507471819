#include "src/mendel/storage_node.h"

#include <algorithm>
#include <cmath>
#include <tuple>

#include "src/align/banded.h"
#include "src/align/ungapped.h"
#include "src/common/check.h"
#include "src/common/error.h"
#include "src/common/simd.h"
#include "src/common/stopwatch.h"
#include "src/mendel/anchors.h"
#include "src/scoring/matrix.h"

namespace mendel::core {

namespace {

// Virtual-clock deltas (Context::now() differences) converted to span
// nanoseconds; deterministic under the simulator because both endpoints
// come from the virtual clock.
std::uint64_t delta_ns(double begin, double end) {
  const double seconds = end - begin;
  return seconds <= 0.0 ? 0
                        : static_cast<std::uint64_t>(seconds * 1e9 + 0.5);
}

// Resolves a scoring matrix named by wire-carried query params. An unknown
// name is a bad frame (any peer can put any string there), so the
// InvalidArgument from matrix_by_name is re-raised as DecodeError for the
// bad-frame guard.
const score::ScoringMatrix& matrix_from_wire(const std::string& name) {
  try {
    return score::matrix_by_name(name);
  } catch (const InvalidArgument& e) {
    throw DecodeError(std::string("params: ") + e.what());
  }
}

// Calls visit() once for every window at Hamming distance exactly `r` from
// the probe `variant` holds on entry, substituting codes [0, codes) at
// positions `from` onwards. Substitutions happen in place in `variant`,
// which holds the variant during visit() and the probe again on return.
template <typename Visit>
void for_each_variant(seq::Code* variant, std::size_t length,
                      std::size_t from, std::size_t r, seq::Code codes,
                      Visit& visit) {
  if (r == 0) {
    visit();
    return;
  }
  for (std::size_t pos = from; pos + r <= length; ++pos) {
    const seq::Code original = variant[pos];
    for (seq::Code c = 0; c < codes; ++c) {
      if (c == original) continue;
      variant[pos] = c;
      for_each_variant(variant, length, pos + 1, r - 1, codes, visit);
    }
    variant[pos] = original;
  }
}

}  // namespace

StorageNode::StorageNode(net::NodeId id, StorageNodeConfig config)
    : id_(id),
      config_(config),
      tree_(fresh_tree()),
      span_buffer_(config.trace_buffer_capacity) {
  require(config_.topology != nullptr, "StorageNode: null topology");
  require(config_.prefix_tree != nullptr, "StorageNode: null prefix tree");
  require(config_.distance != nullptr, "StorageNode: null distance matrix");
  max_residue_distance_ = config_.distance->max_entry();
  // Arena encoding and storage are fixed before the first admitted block.
  // DNA starts 2-bit (its unambiguous core) and widens automatically when
  // an N appears; any other alphabet with <= 16 codes packs at 4 bits;
  // wider alphabets (protein's 24 codes) stay byte-per-residue.
  {
    vpt::WindowArena::Config acfg;
    if (config_.arena_packing) {
      const std::size_t core = seq::core_cardinality(config_.alphabet);
      const std::size_t full = seq::cardinality(config_.alphabet);
      if (core <= 4 && full <= 16) {
        acfg.packed_bits = 2;
      } else if (full <= 16) {
        acfg.packed_bits = 4;
      }
    }
    acfg.resident_budget = config_.arena_resident_budget;
    if (config_.arena_segment_bytes > 0) {
      acfg.segment_bytes = config_.arena_segment_bytes;
    }
    arena_.configure(acfg);
  }
  // A mismatch-indicator metric over every code the node can store makes
  // window distance a mismatch count, so n-NN can walk the probe's Hamming
  // neighbourhood through the window index (search_subquery).
  const score::QuantizedDistance* quantized = config_.distance->quantized();
  hamming_ball_ = quantized != nullptr && quantized->indicator() &&
                  config_.distance->alphabet() == config_.alphabet;
  if (config_.metrics != nullptr) {
    // Handles resolved once; the per-message path never touches the
    // registry's name table.
    h_handler_ = &config_.metrics->histogram("node.handler_seconds");
    h_search_ = &config_.metrics->histogram("node.search_seconds");
    h_subquery_ = &config_.metrics->histogram("node.subquery_seconds");
    h_group_fanin_ = &config_.metrics->histogram("group.fanin_wait_seconds");
    h_coord_fanin_ = &config_.metrics->histogram("coord.fanin_wait_seconds");
    h_group_extend_ = &config_.metrics->histogram("group.extend_seconds");
    h_coord_extend_ = &config_.metrics->histogram("coord.extend_seconds");
    c_batched_scans_ = &config_.metrics->counter("kernel.batched_scans");
    c_scalar_fallbacks_ = &config_.metrics->counter("kernel.scalar_fallbacks");
    c_ranges_coalesced_ = &config_.metrics->counter("fetch.ranges_coalesced");
    c_anchors_pruned_ = &config_.metrics->counter("extend.anchors_pruned");
    c_decode_errors_ = &config_.metrics->counter("net.decode_errors");
    // Process-wide dispatch level; every node in a process reports the
    // same value, which is exactly the property worth asserting on.
    config_.metrics->gauge("kernel.simd_level")
        .set(static_cast<std::int64_t>(simd::active_level()));
  }
}

std::uint64_t StorageNode::record_span(const char* name,
                                       std::uint64_t query_id,
                                       const obs::TraceContext& trace,
                                       double start,
                                       std::uint64_t duration_ns,
                                       std::uint64_t value) {
  if (!trace.on()) return 0;
  obs::SpanRecord span;
  span.name = name;
  span.node = id_;
  span.query_id = query_id;
  span.span_id = span_buffer_.next_span_id(id_);
  span.parent_span = trace.parent_span;
  span.start = start;
  span.duration_ns = duration_ns;
  span.value = value;
  const std::uint64_t span_id = span.span_id;
  span_buffer_.add(std::move(span));
  return span_id;
}

StorageNode::Tree StorageNode::fresh_tree() {
  return Tree(BlockRefMetric{config_.distance, &arena_, &postings_, &probe_},
              vpt::DynamicVpTreeOptions{config_.bucket_capacity, true, 2.0,
                                        0x6e6f6465ULL + id_});
}

template <typename Append>
bool StorageNode::admit_block(BlockRef ref, seq::CodeSpan window,
                              Append&& append, std::vector<BlockRef>& fresh) {
  if (!block_keys_.insert(ref.key())) return false;
  bool new_window = false;
  std::tie(ref.slot, new_window) = windows_.find_or_add(window, arena_, append);
  if (new_window) {
    if (hamming_ball_) first_blocks_.push_back(ref.key());
    fresh.push_back(ref);
  } else {
    postings_.add(ref.slot, ref);
  }
  return true;
}

std::vector<StorageNode::BlockRef> StorageNode::admit_blocks(
    const std::vector<Block>& blocks, std::size_t& admitted) {
  // Window-index lookups miss the cache on large shards; start each a few
  // blocks ahead so the misses overlap.
  constexpr std::size_t kLookAhead = 8;
  std::vector<BlockRef> fresh;
  fresh.reserve(blocks.size());
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    if (i + kLookAhead < blocks.size()) {
      windows_.prefetch(blocks[i + kLookAhead].window);
    }
    const Block& block = blocks[i];
    const seq::CodeSpan window(block.window);
    admitted += admit_block({block.sequence, block.start, 0}, window,
                            [&] { return arena_.append(window); }, fresh);
  }
  return fresh;
}

void StorageNode::insert_refs(std::vector<BlockRef> refs) {
  // The tree's metric reads the arena through one pin set for the whole
  // batch, its leaf overflow and every subtree rebuild it triggers.
  auto pins = arena_.pin_set();
  BlockRefMetric& metric = tree_.metric();
  metric.pins = &pins;
  try {
    tree_.insert_batch(std::move(refs));
  } catch (...) {
    metric.pins = nullptr;
    throw;
  }
  metric.pins = nullptr;
}

Block StorageNode::materialize(const BlockRef& ref) const {
  MENDEL_DCHECK(ref.slot < arena_.size(),
                "node " << id_ << ": block (seq " << ref.sequence
                        << ", start " << ref.start << ") references arena "
                        << "slot " << ref.slot << " past the arena end "
                        << arena_.size());
  Block block;
  block.sequence = ref.sequence;
  block.start = ref.start;
  block.window.resize(arena_.window_length());
  arena_.copy_row(ref.slot, block.window.data());
  return block;
}

void StorageNode::set_down(net::NodeId node, bool down) {
  if (down) {
    down_.insert(node);
  } else {
    down_.erase(node);
  }
}

seq::SequenceId StorageNode::max_sequence_id_plus_one() const {
  seq::SequenceId watermark = 0;
  for (const auto& [sid, stored] : sequences_) {
    watermark = std::max(watermark, sid + 1);
  }
  return watermark;
}

std::vector<net::NodeId> StorageNode::alive_group_members(
    std::uint32_t group) const {
  std::vector<net::NodeId> alive;
  for (net::NodeId node : config_.topology->group_nodes(group)) {
    if (!is_down(node)) alive.push_back(node);
  }
  return alive;
}

net::NodeId StorageNode::pick_sequence_home(std::uint64_t key) const {
  for (net::NodeId node : config_.topology->sequence_homes(key)) {
    if (!is_down(node)) return node;
  }
  return net::kClientNode;  // sentinel: no alive home
}

void StorageNode::handle(const net::Message& message, net::Context& ctx) {
  // Sampled 1-in-16: a query dispatches on the order of a thousand messages
  // (per-subquery fetches), so two clock reads on every one is measurable
  // against the observability overhead budget. Uniform sampling keeps the
  // distribution shape; a null histogram makes ScopedTimer skip the clock.
  const bool time_dispatch =
      h_handler_ != nullptr && (handler_ticks_++ % kHandlerSample) == 0;
  const obs::ScopedTimer dispatch_timer(time_dispatch ? h_handler_ : nullptr);
  try {
    dispatch(message, ctx);
  } catch (const DecodeError& e) {
    // Bad frame off the wire: reject, count, keep serving. Everything else
    // (CheckError, ProtocolError, bad_alloc) propagates — those mean an
    // internal bug or resource exhaustion, not hostile input.
    ++counters_.decode_errors;
    if (c_decode_errors_ != nullptr) c_decode_errors_->add(1);
    last_decode_error_ = net::describe(message) + ": " + e.what();
  }
}

void StorageNode::dispatch(const net::Message& message, net::Context& ctx) {
  switch (message.type) {
    case kStoreSequence:
      on_store_sequence(message);
      return;
    case kInsertBlocks:
      on_insert_blocks(message);
      return;
    case kFetchRange:
      on_fetch_range(message, ctx);
      return;
    case kQueryRequest:
      on_query_request(message, ctx);
      return;
    case kGroupQuery:
      on_group_query(message, ctx);
      return;
    case kNodeSearch:
      on_node_search(message, ctx);
      return;
    case kNodeSearchResult:
      on_node_search_result(message, ctx);
      return;
    case kFetchRangeResult:
      on_fetch_range_result(message, ctx);
      return;
    case kGroupResult:
      on_group_result(message, ctx);
      return;
    case kCancelQuery:
      // Join streaming-extension tasks before tearing the entry down: a
      // pool task holds a reference into the pending state and must never
      // outlive it (fault path: a home node dies mid-fetch, the client's
      // stall detector broadcasts the cancel while extensions for already-
      // arrived ranges are still in flight).
      if (auto git = group_pending_.find(message.request_id);
          git != group_pending_.end()) {
        drain_tasks(git->second.extend_tasks);
        group_pending_.erase(git);
      }
      if (auto cit = coord_pending_.find(message.request_id);
          cit != coord_pending_.end()) {
        drain_tasks(cit->second.extend_tasks);
        coord_pending_.erase(cit);
      }
      return;
    case kRebalance:
      on_rebalance(ctx);
      return;
    case kCollectTrace:
      on_collect_trace(message, ctx);
      return;
    case kSetNodeDown: {
      const auto payload =
          decode_payload<SetNodeDownPayload>(message.payload);
      set_down(payload.node, payload.down);
      return;
    }
    case kSetResidues:
      set_database_residues(
          decode_payload<SetResiduesPayload>(message.payload).residues);
      return;
    case kBarrier: {
      // Flush marker (socket deployments): ack so the sender can prove its
      // earlier messages over the same FIFO connection were handled.
      if (!message.payload.empty()) {
        throw DecodeError("barrier: unexpected payload");
      }
      ctx.send(message.from, kBarrierAck, message.request_id, {});
      return;
    }
    default:
      // Unknown type is a bad frame, not an internal bug: a hostile or
      // version-skewed peer can send any type value, so this must land in
      // the counted-drop path rather than tearing the node down.
      throw DecodeError("StorageNode " + std::to_string(id_) +
                        ": unknown message type " +
                        std::to_string(message.type));
  }
}

// --- indexing -----------------------------------------------------------

void StorageNode::on_store_sequence(const net::Message& message) {
  auto payload = decode_payload<StoreSequencePayload>(message.payload);
  // Stored codes later index distance LUTs (fetch ranges feed extension),
  // so out-of-alphabet codes must never be admitted.
  validate_codes(payload.codes, seq::cardinality(config_.alphabet),
                 "store_sequence");
  StoredSequence stored;
  stored.name = std::move(payload.name);
  stored.codes = std::move(payload.codes);
  sequences_[payload.sequence] = std::move(stored);
  ++counters_.sequences_stored;
}

void StorageNode::on_insert_blocks(const net::Message& message) {
  auto payload = decode_payload<InsertBlocksPayload>(message.payload);
  // Ingress validation ahead of admit_blocks: arena append treats a length
  // mismatch or empty window as caller error (InvalidArgument), and packed
  // arenas must never see out-of-alphabet codes.
  const std::size_t cardinality = seq::cardinality(config_.alphabet);
  const std::size_t expect = arena_.window_length() != 0
                                 ? arena_.window_length()
                                 : (payload.blocks.empty()
                                        ? 0
                                        : payload.blocks.front().window.size());
  for (const Block& block : payload.blocks) {
    if (block.window.empty() || block.window.size() != expect) {
      throw DecodeError("insert_blocks: block (seq " +
                        std::to_string(block.sequence) + ", start " +
                        std::to_string(block.start) + ") window length " +
                        std::to_string(block.window.size()) +
                        " != expected " + std::to_string(expect));
    }
    validate_codes(block.window, cardinality, "insert_blocks");
  }
  // Deduplicate: replication and rebalance may redeliver blocks this node
  // already stores.
  std::size_t admitted = 0;
  auto fresh = admit_blocks(payload.blocks, admitted);
  counters_.blocks_inserted += admitted;
  if (admitted == 0) return;
  // The block set changed — even when every new block only adds a posting
  // to a stored window, it can displace a cached neighbor on the tie
  // order — so cached seed lists may be stale.
  invalidate_nn_cache();
  if (!fresh.empty()) insert_refs(std::move(fresh));
#ifdef MENDEL_CHECKED
  checked_audit_insert(payload.blocks);
#endif
}

// --- sequence repository --------------------------------------------------

void StorageNode::on_fetch_range(const net::Message& message,
                                 net::Context& ctx) {
  auto request = decode_payload<FetchRangePayload>(message.payload);
  ++counters_.fetches_served;

  FetchRangeResultPayload reply;
  reply.purpose = request.purpose;
  reply.token = request.token;
  reply.sequence = request.sequence;

  auto it = sequences_.find(request.sequence);
  if (it != sequences_.end()) {
    const auto& codes = it->second.codes;
    const auto start =
        std::min<std::uint32_t>(request.start,
                                static_cast<std::uint32_t>(codes.size()));
    const auto end = std::min<std::uint32_t>(
        request.start + request.length,
        static_cast<std::uint32_t>(codes.size()));
    reply.start = start;
    reply.sequence_length = static_cast<std::uint32_t>(codes.size());
    reply.sequence_name = it->second.name;
    reply.codes.assign(codes.begin() + start, codes.begin() + end);
  }
  record_span("node.fetch", message.request_id, request.trace, ctx.now(), 0,
              reply.codes.size());
  ctx.send(message.from, kFetchRangeResult, message.request_id,
           encode_payload(reply));
}

// --- observability -------------------------------------------------------

void StorageNode::on_collect_trace(const net::Message& message,
                                   net::Context& ctx) {
  TraceReportPayload report;
  report.spans = span_buffer_.take(message.request_id);
  ctx.send(message.from, kTraceReport, message.request_id,
           encode_payload(report));
}

// --- coordinator: query entry ----------------------------------------------

void StorageNode::on_query_request(const net::Message& message,
                                   net::Context& ctx) {
  auto request = decode_payload<QueryRequestPayload>(message.payload);
  // The query's codes index distance LUTs on every node downstream and the
  // matrix name is resolved again at extension time: reject both here, at
  // the dataflow's entry, so no later stage can trip on them.
  validate_codes(request.query, seq::cardinality(config_.alphabet),
                 "query_request");
  matrix_from_wire(request.params.matrix);
  ++counters_.queries_coordinated;

  const std::size_t block_len = config_.prefix_tree->window_length();
  const std::uint64_t query_id = message.request_id;

  PendingQuery pending;
  pending.client = message.from;
  pending.params = request.params;
  pending.query = request.query;

  if (request.query.size() < block_len || request.params.k == 0) {
    QueryResultPayload empty;
    ctx.send(message.from, kQueryResult, query_id, encode_payload(empty));
    return;
  }

  // Stride-k sliding window over the query (paper §V-B: "steps over the
  // query sequence in larger intervals of size k ... to reduce the
  // amplification of the subqueries"), plus a final window flush against
  // the tail so the query's end is always covered.
  std::vector<Subquery> subqueries;
  const std::size_t last_offset = request.query.size() - block_len;
  for (std::size_t offset = 0;; offset += request.params.k) {
    if (offset > last_offset) break;
    Subquery sub;
    sub.query_offset = static_cast<std::uint32_t>(offset);
    sub.window.assign(request.query.begin() + static_cast<std::ptrdiff_t>(offset),
                      request.query.begin() +
                          static_cast<std::ptrdiff_t>(offset + block_len));
    subqueries.push_back(std::move(sub));
    if (offset == last_offset) break;
    if (offset + request.params.k > last_offset) {
      // Tail flush: one final window ending exactly at the query's end.
      Subquery tail;
      tail.query_offset = static_cast<std::uint32_t>(last_offset);
      tail.window.assign(
          request.query.begin() + static_cast<std::ptrdiff_t>(last_offset),
          request.query.end());
      subqueries.push_back(std::move(tail));
      break;
    }
  }

  // Tier-1 routing: vp-prefix multi-hash each subquery to its group(s).
  std::map<std::uint32_t, std::vector<Subquery>> per_group;
  for (const Subquery& sub : subqueries) {
    const auto prefixes = config_.prefix_tree->hash_multi(
        sub.window, request.params.branch_epsilon);
    std::set<std::uint32_t> groups;
    for (std::uint64_t prefix : prefixes) {
      groups.insert(config_.topology->group_for_prefix(prefix));
    }
    for (std::uint32_t group : groups) per_group[group].push_back(sub);
  }

  // The routing span parents every downstream group's work; the pending
  // trace context carries it to the coordinator's own later stages.
  const std::uint64_t route_span =
      record_span("coord.route", query_id, request.trace, ctx.now(), 0,
                  subqueries.size());
  pending.trace = request.trace.child(route_span);
  pending.created = ctx.now();

  // Dispatch one GroupQuery per selected group to an alive entry node.
  // The params+trace+query prefix is serialized once; only each group's
  // subquery set differs per message.
  const auto prefix =
      encode_group_query_prefix(request.params, pending.trace, request.query);
  std::size_t dispatched = 0;
  for (auto& [group, subs] : per_group) {
    const auto alive = alive_group_members(group);
    if (alive.empty()) continue;
    const net::NodeId entry =
        alive[(query_id + group) % alive.size()];
    ctx.send(entry, kGroupQuery, query_id, encode_group_query(prefix, subs));
    ++dispatched;
  }

  if (dispatched == 0) {
    QueryResultPayload empty;
    ctx.send(message.from, kQueryResult, query_id, encode_payload(empty));
    return;
  }
  pending.awaiting_groups = dispatched;
  coord_pending_[query_id] = std::move(pending);
}

// --- group entry -------------------------------------------------------------

void StorageNode::on_group_query(const net::Message& message,
                                 net::Context& ctx) {
  auto request = decode_payload<GroupQueryPayload>(message.payload);
  // A group query can arrive from any peer, not only our own coordinator:
  // re-validate the query (extension scores it against fetched subjects)
  // and every subquery window (forwarded verbatim into node searches).
  {
    const std::size_t cardinality = seq::cardinality(config_.alphabet);
    validate_codes(request.query, cardinality, "group_query");
    matrix_from_wire(request.params.matrix);
    for (const Subquery& sub : request.subqueries) {
      validate_codes(sub.window, cardinality, "group_query subquery");
      const std::uint64_t end =
          static_cast<std::uint64_t>(sub.query_offset) + sub.window.size();
      if (end > request.query.size()) {
        throw DecodeError("group_query: subquery at offset " +
                          std::to_string(sub.query_offset) + " (window " +
                          std::to_string(sub.window.size()) +
                          ") overruns query length " +
                          std::to_string(request.query.size()));
      }
    }
  }
  ++counters_.group_queries;
  const std::uint64_t query_id = message.request_id;
  const std::uint32_t group = config_.topology->address(id_).group;

  PendingGroupQuery pending;
  pending.coordinator = message.from;
  pending.params = request.params;
  pending.query = request.query;

  // Flat-hash dispersal means any node of the group may hold relevant
  // blocks: replicate the search to every alive member (paper §V-B).
  const auto members = alive_group_members(group);
  const std::uint64_t broadcast_span =
      record_span("group.broadcast", query_id, request.trace, ctx.now(), 0,
                  members.size());
  pending.trace = request.trace.child(broadcast_span);
  pending.created = ctx.now();
  NodeSearchPayload search;
  search.params = request.params;
  search.trace = pending.trace;
  search.subqueries = std::move(request.subqueries);
  const auto encoded = encode_payload(search);
  for (net::NodeId member : members) {
    ctx.send(member, kNodeSearch, query_id, encoded);
  }
  pending.awaiting_nodes = members.size();
  if (members.empty()) {
    GroupResultPayload empty;
    ctx.send(message.from, kGroupResult, query_id, encode_payload(empty));
    return;
  }
  group_pending_[query_id] = std::move(pending);
}

// --- searcher ------------------------------------------------------------------

std::string StorageNode::nn_cache_key(const vpt::Window& window,
                                      const QueryParams& params) {
  // Window codes first, then the raw bytes of every knob that shapes the
  // seed list (n-NN count, filters, matrix). Equality on the full key makes
  // collisions impossible; windows are fixed-length so the layout is
  // unambiguous.
  std::string key;
  key.reserve(window.size() + sizeof(std::uint32_t) + 2 * sizeof(double) +
              params.matrix.size() + 1);
  key.append(reinterpret_cast<const char*>(window.data()), window.size());
  key.append(reinterpret_cast<const char*>(&params.n), sizeof(params.n));
  key.append(reinterpret_cast<const char*>(&params.identity),
             sizeof(params.identity));
  key.append(reinterpret_cast<const char*>(&params.c_score),
             sizeof(params.c_score));
  key.append(params.matrix);
  return key;
}

std::optional<std::vector<StorageNode::NearBlock>>
StorageNode::hamming_ball_nearest(seq::CodeSpan probe, std::size_t n,
                                  double cap, vpt::PinSet& pins) const {
  std::vector<NearBlock> found;
  if (n == 0) return found;
  const std::size_t k = probe.size();
  // Substitutes range over the codes a stored row can hold: a 2-bit arena
  // holds no ambiguity code, so its variants need none either.
  const std::size_t cardinality = seq::cardinality(config_.alphabet);
  const auto codes = static_cast<seq::Code>(
      arena_.packed()
          ? std::min(cardinality, std::size_t{1} << arena_.packed_bits())
          : cardinality);
  const auto windows = static_cast<double>(tree_.size());
  std::vector<seq::Code> variant(probe.begin(), probe.end());
  double layer = 1.0;    // lookups in layer r: C(k, r) (codes - 1)^r
  double lookups = 0.0;  // through layer r
  for (std::size_t r = 0; r <= k && static_cast<double>(r) <= cap; ++r) {
    if (r > 0) {
      layer = layer * static_cast<double>(k - r + 1) /
              static_cast<double>(r) * static_cast<double>(codes - 1);
    }
    lookups += layer;
    if (lookups > windows) return std::nullopt;
    const auto distance = static_cast<double>(r);
    auto visit = [&] {
      const std::uint32_t slot =
          windows_.find({variant.data(), k}, arena_, pins);
      if (slot == vpt::WindowIndex::kNoSlot) return;
      const std::uint64_t first = first_blocks_[slot];
      found.push_back({distance,
                       {static_cast<seq::SequenceId>(first >> 32),
                        static_cast<std::uint32_t>(first), slot}});
      // A run is sorted, so its first n postings hold every other block of
      // the window that can make the n nearest.
      const auto more = postings_.extras(slot);
      for (const BlockRef& posting : more.first(std::min(more.size(), n))) {
        found.push_back({distance, posting});
      }
    };
    for_each_variant(variant.data(), k, 0, r, codes, visit);
    if (found.size() >= n) break;
  }
  const std::size_t keep = std::min(n, found.size());
  std::partial_sort(found.begin(), found.begin() + keep, found.end(),
                    [](const NearBlock& a, const NearBlock& b) {
                      if (a.distance != b.distance) {
                        return a.distance < b.distance;
                      }
                      return BlockOrder{}(a.block, b.block);
                    });
  found.resize(keep);
  return found;
}

std::vector<Seed> StorageNode::search_subquery(
    const vpt::Window& window, const QueryParams& params,
    const score::ScoringMatrix& matrix, bool& by_ball) const {
  by_ball = false;
  std::vector<Seed> seeds;
  if (tree_.empty()) return seeds;
  // The probe rides in a per-call metric so concurrent subquery searches
  // never share mutable state; the tree itself is only read.
  const seq::CodeSpan probe_span(window);
  // One pin set for the whole search: each spilled segment it reads is
  // pinned once and read in place until the search returns.
  auto pins = arena_.pin_set();
  const BlockRefMetric metric{config_.distance, &arena_, &postings_,
                              &probe_span, &pins, c_batched_scans_,
                              c_scalar_fallbacks_};
  const BlockRef probe_ref{0, 0, BlockRef::kProbeSlot};
  // Exact radius cap from the identity filter: a candidate passing
  // identity >= i differs in at most (1-i)*k positions, each costing at
  // most max_entry — anything farther is filtered later anyway, so the
  // n-NN search can discard it up front.
  const double cap = (1.0 - params.identity) *
                     static_cast<double>(window.size()) *
                     max_residue_distance_;
  auto tree_nearest = [&] {
    std::vector<NearBlock> out;
    for (const auto& neighbor :
         tree_.nearest_with(metric, probe_ref, params.n, cap)) {
      out.push_back({neighbor.distance, *neighbor.item});
    }
    return out;
  };
  // Engine choice: Hamming nodes look the probe's neighbourhood up in the
  // window index while that costs fewer lookups than the node holds
  // windows; everything else, and a NaN cap (which the tree reads as no
  // cap), searches the vp-tree.
  std::optional<std::vector<NearBlock>> ball;
  if (hamming_ball_ && !std::isnan(cap)) {
    ball = hamming_ball_nearest(probe_span, params.n, cap, pins);
  }
  by_ball = ball.has_value();
#ifdef MENDEL_CHECKED
  if (by_ball) {
    const auto tree = tree_nearest();
    const bool same = std::equal(
        ball->begin(), ball->end(), tree.begin(), tree.end(),
        [](const NearBlock& a, const NearBlock& b) {
          return a.distance == b.distance && a.block.key() == b.block.key() &&
                 a.block.slot == b.block.slot;
        });
    MENDEL_CHECK(same, "node " << id_ << ": Hamming-ball n-NN ("
                               << ball->size()
                               << " blocks) differs from the vp-tree's ("
                               << tree.size() << " blocks), n "
                               << params.n << ", cap " << cap);
  }
#endif
  const std::vector<NearBlock> nearest =
      by_ball ? std::move(*ball) : tree_nearest();
  std::vector<seq::Code> decoded(arena_.window_length());
  for (const NearBlock& near : nearest) {
    const BlockRef& block = near.block;
    arena_.copy_row(pins, block.slot, decoded.data());
    const seq::CodeSpan arena_window{decoded.data(), decoded.size()};
    const double identity = score::percent_identity(window, arena_window);
    if (identity < params.identity) continue;
    const double c = score::consecutivity_score(window, arena_window, matrix);
    if (c < params.c_score) continue;
    Seed seed;
    seed.sequence = block.sequence;
    seed.subject_start = block.start;
    seed.query_offset = 0;  // caller rebinds to the subquery's offset
    seed.length = static_cast<std::uint32_t>(arena_window.size());
    seed.identity = identity;
    seed.c_score = c;
    seeds.push_back(seed);
  }
  return seeds;
}

void StorageNode::on_node_search(const net::Message& message,
                                 net::Context& ctx) {
  auto request = decode_payload<NodeSearchPayload>(message.payload);
  const auto& matrix = matrix_from_wire(request.params.matrix);
  const std::size_t count = request.subqueries.size();
  // Window codes feed unchecked distance kernels (LUT rows sized to the
  // alphabet); lengths are checked against the arena inside the cache loop
  // below, codes here.
  for (const Subquery& sub : request.subqueries) {
    validate_codes(sub.window, seq::cardinality(config_.alphabet),
                   "node_search subquery");
  }
  // Span duration is wall time under the socket transport only; under
  // virtual time a measured duration would differ run to run and break
  // trace byte-stability.
  const bool measure_span = request.trace.on() && !ctx.virtual_time();
  Stopwatch search_watch;
  const obs::ScopedTimer search_timer(h_search_);

  // Phase 1 (handler thread): resolve each subquery against the NN cache.
  // Only misses pay for a vp-tree search.
  std::vector<const std::vector<Seed>*> cached(count, nullptr);
  std::vector<std::string> keys(count);
  std::vector<std::size_t> misses;
  const bool cache_enabled = config_.nn_cache_capacity > 0;
  {
    // The handler thread is the cache's only mutator, so the pointers
    // captured here stay valid past the lock: nothing erases or rehashes
    // the map until the phase-3 insertion below, which runs after the last
    // cached[] read.
    std::lock_guard cache_lock(nn_cache_mu_);
    for (std::size_t i = 0; i < count; ++i) {
      const Subquery& sub = request.subqueries[i];
      ++counters_.nn_searches;
      if (tree_.empty()) continue;
      // Lengths are checked once here; the metric then runs unchecked
      // kernels for every distance evaluation of the search. A mismatch is
      // a bad frame (any peer can send any window), not an invariant.
      if (sub.window.size() != arena_.window_length()) {
        throw DecodeError(
            "node_search: subquery " + std::to_string(i) +
            " window length " + std::to_string(sub.window.size()) +
            " != arena window length " +
            std::to_string(arena_.window_length()));
      }
      if (cache_enabled) {
        keys[i] = nn_cache_key(sub.window, request.params);
        auto it = nn_cache_.find(keys[i]);
        if (it != nn_cache_.end()) {
          ++counters_.nn_cache_hits;
          cached[i] = &it->second;
          continue;
        }
        ++counters_.nn_cache_misses;
      }
      misses.push_back(i);
    }
  }

  // Phase 2: fan the cache misses across the shared pool (serial without
  // one). Each task writes its own slot of `fresh`; the join publishes the
  // writes back to the handler thread.
  std::vector<std::vector<Seed>> fresh(count);
  std::vector<std::uint8_t> by_ball(count, 0);
  auto search_one = [&](std::size_t j) {
    const obs::ScopedTimer subquery_timer(h_subquery_);
    const std::size_t i = misses[j];
    bool ball = false;
    fresh[i] = search_subquery(request.subqueries[i].window, request.params,
                               matrix, ball);
    by_ball[i] = ball ? 1 : 0;
  };
  if (config_.search_pool != nullptr && misses.size() > 1) {
    config_.search_pool->parallel_for(misses.size(), search_one);
  } else {
    for (std::size_t j = 0; j < misses.size(); ++j) search_one(j);
  }
  for (std::size_t i : misses) counters_.nn_ball_searches += by_ball[i];

  // Phase 3 (handler thread): emit every subquery's seeds in subquery
  // order — byte-identical to the serial path regardless of pool size or
  // hit/miss pattern — then admit the fresh results into the cache.
  NodeSearchResultPayload reply;
  for (std::size_t i = 0; i < count; ++i) {
    const std::vector<Seed>* seeds = cached[i] != nullptr ? cached[i]
                                                          : &fresh[i];
    const std::uint32_t offset = request.subqueries[i].query_offset;
    for (Seed seed : *seeds) {
      seed.query_offset = offset;
      reply.seeds.push_back(seed);
    }
  }
  if (cache_enabled) {
    std::lock_guard cache_lock(nn_cache_mu_);
    for (std::size_t i : misses) {
      if (nn_cache_.size() >= config_.nn_cache_capacity) {
        // Wholesale eviction: simple, rare, and never serves stale seeds.
        nn_cache_.clear();
      }
      nn_cache_[std::move(keys[i])] = std::move(fresh[i]);
    }
  }
  counters_.seeds_emitted += reply.seeds.size();
  record_span("node.search", message.request_id, request.trace, ctx.now(),
              measure_span ? delta_ns(0.0, search_watch.seconds()) : 0,
              count);
  ctx.send(message.from, kNodeSearchResult, message.request_id,
           encode_payload(reply));
}

// --- group entry: fan-in, merge, fetch, extend ------------------------------

void StorageNode::on_node_search_result(const net::Message& message,
                                        net::Context& ctx) {
  auto it = group_pending_.find(message.request_id);
  if (it == group_pending_.end()) return;  // stale / cancelled
  PendingGroupQuery& pending = it->second;

  auto payload = decode_payload<NodeSearchResultPayload>(message.payload);
  // A forged or duplicated result frame must not underflow the fan-in
  // counter or feed seeds whose windows overrun the query into the merge
  // arithmetic (merged ranges drive fetch lengths and extension spans).
  if (pending.awaiting_nodes == 0) {
    throw DecodeError("node_search_result: group query " +
                      std::to_string(message.request_id) +
                      " has no outstanding node searches (duplicate or "
                      "forged result from node " +
                      std::to_string(message.from) + ")");
  }
  for (const Seed& seed : payload.seeds) {
    validate_seed(seed);
    const std::uint64_t q_end =
        static_cast<std::uint64_t>(seed.query_offset) + seed.length;
    if (q_end > pending.query.size()) {
      throw DecodeError("node_search_result: seed window [" +
                        std::to_string(seed.query_offset) + ", " +
                        std::to_string(q_end) + ") overruns query length " +
                        std::to_string(pending.query.size()));
    }
  }
  pending.seeds.insert(pending.seeds.end(), payload.seeds.begin(),
                       payload.seeds.end());
  if (--pending.awaiting_nodes > 0) return;
  if (h_group_fanin_ != nullptr) {
    // Broadcast → last search result; virtual seconds under the simulator.
    h_group_fanin_->record_seconds(ctx.now() - pending.created);
  }
  group_entry_merge_and_fetch(message.request_id, pending, ctx);
}

void StorageNode::group_entry_merge_and_fetch(std::uint64_t query_id,
                                              PendingGroupQuery& pending,
                                              net::Context& ctx) {
  if (pending.seeds.empty()) {
    GroupResultPayload empty;
    ctx.send(pending.coordinator, kGroupResult, query_id,
             encode_payload(empty));
    group_pending_.erase(query_id);
    return;
  }

  // Merge seeds on the same (sequence, diagonal) into runs (paper §V-B:
  // binning by sequence id, combining overlapping anchors on the same
  // diagonal).
  std::sort(pending.seeds.begin(), pending.seeds.end(),
            [](const Seed& a, const Seed& b) {
              if (a.sequence != b.sequence) return a.sequence < b.sequence;
              if (a.diagonal() != b.diagonal())
                return a.diagonal() < b.diagonal();
              return a.query_offset < b.query_offset;
            });
  std::vector<MergedSeed> merged;
  for (const Seed& seed : pending.seeds) {
    const bool extends_last =
        !merged.empty() && merged.back().sequence == seed.sequence &&
        static_cast<std::ptrdiff_t>(merged.back().s_begin) -
                static_cast<std::ptrdiff_t>(merged.back().q_begin) ==
            seed.diagonal() &&
        seed.query_offset <= merged.back().q_end;
    if (extends_last) {
      merged.back().q_end = std::max(merged.back().q_end,
                                     seed.query_offset + seed.length);
    } else {
      MergedSeed m;
      m.sequence = seed.sequence;
      m.q_begin = seed.query_offset;
      m.q_end = seed.query_offset + seed.length;
      m.s_begin = seed.subject_start;
      merged.push_back(m);
    }
  }
  // Optional noise gate: drop isolated short runs before paying for their
  // fetch + extension (params.min_anchor_span, 0 = keep everything).
  if (pending.params.min_anchor_span > 0) {
    std::erase_if(merged, [&](const MergedSeed& m) {
      return m.q_end - m.q_begin < pending.params.min_anchor_span;
    });
    if (merged.empty()) {
      GroupResultPayload empty;
      ctx.send(pending.coordinator, kGroupResult, query_id,
               encode_payload(empty));
      group_pending_.erase(query_id);
      return;
    }
  }
  pending.merged = std::move(merged);

  const std::uint64_t merge_span =
      record_span("group.merge", query_id, pending.trace, ctx.now(), 0,
                  pending.merged.size());
  const obs::TraceContext fetch_trace = pending.trace.child(merge_span);

  // Coalesced range fetches: anchors of one sequence cluster on nearby
  // diagonals, so their margin-padded windows overlap heavily; union them
  // into one kFetchRange per covering range (token = plan index) and issue
  // everything up front. Extension runs per arrival (on_fetch_range_result)
  // instead of behind the last fetch, overlapping fetch latency with
  // compute.
  const std::uint32_t margin = pending.params.extension_margin;
  std::vector<RangeRequest> requests(pending.merged.size());
  for (std::size_t i = 0; i < pending.merged.size(); ++i) {
    const MergedSeed& m = pending.merged[i];
    RangeRequest& req = requests[i];
    req.sequence = m.sequence;
    req.start = m.s_begin > margin ? m.s_begin - margin : 0;
    req.length = (m.s_begin - req.start) + (m.q_end - m.q_begin) + margin;
  }
  pending.fetch_plan = coalesce_ranges(requests);
  pending.fetched.assign(pending.fetch_plan.size(), std::nullopt);
  pending.anchor_slots.assign(pending.merged.size(), std::nullopt);

  std::size_t sent = 0;
  std::size_t member_requests = 0;
  for (std::size_t i = 0; i < pending.fetch_plan.size(); ++i) {
    const CoalescedRange& range = pending.fetch_plan[i];
    const net::NodeId home =
        pick_sequence_home(sequence_placement_key(range.sequence));
    if (home == net::kClientNode) continue;  // no alive replica: skip range
    FetchRangePayload fetch;
    fetch.purpose = static_cast<std::uint8_t>(FetchPurpose::kGroupExtension);
    fetch.token = static_cast<std::uint32_t>(i);
    fetch.trace = fetch_trace;
    fetch.sequence = range.sequence;
    fetch.start = range.start;
    fetch.length = range.length;
    ctx.send(home, kFetchRange, query_id, encode_payload(fetch));
    ++sent;
    member_requests += range.members.size();
  }
  if (sent == 0) {
    GroupResultPayload empty;
    ctx.send(pending.coordinator, kGroupResult, query_id,
             encode_payload(empty));
    group_pending_.erase(query_id);
    return;
  }
  const std::uint64_t saved =
      static_cast<std::uint64_t>(member_requests - sent);
  counters_.fetch_ranges_coalesced += saved;
  if (c_ranges_coalesced_ != nullptr) c_ranges_coalesced_->add(saved);
  pending.awaiting_fetches = sent;
}

void StorageNode::group_entry_extend_range(PendingGroupQuery& pending,
                                           std::size_t range_idx,
                                           bool wall_timing) {
  if (!pending.fetched[range_idx].has_value()) return;
  const FetchedRange& range = *pending.fetched[range_idx];
  if (range.codes.empty()) return;
  const auto& matrix = score::matrix_by_name(pending.params.matrix);
  const std::uint32_t margin = pending.params.extension_margin;
  std::optional<Stopwatch> watch;
  if (wall_timing && h_group_extend_ != nullptr) watch.emplace();
  const std::uint64_t data_begin = range.start;
  const std::uint64_t data_end = range.start + range.codes.size();
  // A reply shorter than requested means the home clamped at the end of
  // the sequence, so data_end is the subject's exact length.
  const std::uint32_t subject_len =
      range.codes.size() < pending.fetch_plan[range_idx].length
          ? static_cast<std::uint32_t>(data_end)
          : 0;
  for (std::uint32_t member : pending.fetch_plan[range_idx].members) {
    const MergedSeed& m = pending.merged[member];
    // Re-derive the member's own margin-padded window and clamp the
    // coalesced buffer to it: extension must see exactly the bytes a
    // dedicated per-seed fetch would have returned, so coalescing can
    // never perturb where X-drop terminates (anchors stay byte-identical
    // to the one-fetch-per-seed dataflow).
    const std::uint32_t span = m.q_end - m.q_begin;
    const std::uint32_t w_start = m.s_begin > margin ? m.s_begin - margin : 0;
    const std::uint64_t w_end =
        static_cast<std::uint64_t>(w_start) + (m.s_begin - w_start) + span +
        margin;
    const std::uint64_t view_begin = std::max<std::uint64_t>(w_start,
                                                             data_begin);
    const std::uint64_t view_end = std::min(w_end, data_end);
    if (view_begin >= view_end) continue;
    if (m.s_begin < view_begin) continue;  // defensive: clamp mismatch
    const std::size_t s_local = m.s_begin - view_begin;
    if (s_local + span > view_end - view_begin) continue;
    const seq::CodeSpan subject(
        range.codes.data() + (view_begin - data_begin),
        static_cast<std::size_t>(view_end - view_begin));

    const align::Hsp hsp =
        align::extend_ungapped(pending.query, subject, m.q_begin, s_local,
                               span, matrix, {pending.params.x_drop});
    Anchor anchor;
    anchor.sequence = m.sequence;
    anchor.q_begin = static_cast<std::uint32_t>(hsp.q_begin);
    anchor.q_end = static_cast<std::uint32_t>(hsp.q_end);
    anchor.s_begin = static_cast<std::uint32_t>(hsp.s_begin + view_begin);
    anchor.s_end = static_cast<std::uint32_t>(hsp.s_end + view_begin);
    anchor.score = hsp.score;
    anchor.cert = hsp.score;  // actually scored, never an estimate
    anchor.subject_len = subject_len;
    pending.anchor_slots[member] = anchor;
  }
  if (watch.has_value()) h_group_extend_->record_seconds(watch->seconds());
}

void StorageNode::group_entry_finish(std::uint64_t query_id,
                                     PendingGroupQuery& pending,
                                     net::Context& ctx) {
  drain_tasks(pending.extend_tasks);
  // Assemble in merged-seed order: slot writes are disjoint and the order
  // below is index order, so the reply is independent of fetch arrival
  // order and of how extension work was scheduled.
  std::vector<Anchor> anchors;
  anchors.reserve(pending.anchor_slots.size());
  for (const std::optional<Anchor>& slot : pending.anchor_slots) {
    if (slot.has_value()) anchors.push_back(*slot);
  }
  counters_.anchors_extended += anchors.size();

  GroupResultPayload reply;
  reply.anchors = merge_anchors(std::move(anchors));
  record_span("group.extend", query_id, pending.trace, ctx.now(), 0,
              reply.anchors.size());
  ctx.send(pending.coordinator, kGroupResult, query_id,
           encode_payload(reply));
  group_pending_.erase(query_id);
}

void StorageNode::schedule_extension(std::vector<std::future<void>>& tasks,
                                     net::Context& ctx,
                                     std::function<void()> body) {
  // Under the simulator extension runs inline: pool compute would escape
  // the virtual clock (charged CPU must stay on the handler). Without a
  // pool there is nowhere else to run it anyway.
  if (config_.search_pool == nullptr || ctx.virtual_time()) {
    body();
    return;
  }
  tasks.push_back(config_.search_pool->submit(std::move(body)));
}

void StorageNode::drain_tasks(std::vector<std::future<void>>& tasks) {
  for (std::future<void>& task : tasks) {
    if (task.valid()) task.get();
  }
  tasks.clear();
}

// --- coordinator: fan-in, gapped extension, ranking ---------------------------

void StorageNode::on_group_result(const net::Message& message,
                                  net::Context& ctx) {
  auto it = coord_pending_.find(message.request_id);
  if (it == coord_pending_.end()) return;
  PendingQuery& pending = it->second;

  auto payload = decode_payload<GroupResultPayload>(message.payload);
  // Forged/duplicate frames must not underflow the fan-in counter, and
  // anchor intervals feed unsigned span arithmetic (length(), pruning
  // ceilings, banded DP bands) — reject inverted or query-overrunning ones.
  if (pending.awaiting_groups == 0) {
    throw DecodeError("group_result: query " +
                      std::to_string(message.request_id) +
                      " has no outstanding group queries (duplicate or "
                      "forged result from node " +
                      std::to_string(message.from) + ")");
  }
  for (const Anchor& anchor : payload.anchors) {
    validate_anchor(anchor);
    if (anchor.q_end > pending.query.size()) {
      throw DecodeError("group_result: anchor q interval [" +
                        std::to_string(anchor.q_begin) + ", " +
                        std::to_string(anchor.q_end) +
                        ") overruns query length " +
                        std::to_string(pending.query.size()));
    }
  }
  // Streaming fan-in: bin by sequence as results arrive instead of piling
  // anchors into one flat list for an end-of-fan-in pass; the last arrival
  // then only pays per-sequence diagonal merging.
  for (const Anchor& anchor : payload.anchors) {
    pending.binned[anchor.sequence].push_back(anchor);
  }
  pending.raw_anchors += payload.anchors.size();
  if (--pending.awaiting_groups > 0) return;
  if (h_coord_fanin_ != nullptr) {
    // Route → last group result; virtual seconds under the simulator.
    h_coord_fanin_->record_seconds(ctx.now() - pending.created);
  }
  coordinator_bin_and_fetch(message.request_id, pending, ctx);
}

void StorageNode::coordinator_bin_and_fetch(std::uint64_t query_id,
                                            PendingQuery& pending,
                                            net::Context& ctx) {
  // Second aggregation stage (paper §V-B): combine overlapping anchors on
  // the same diagonal across groups. Anchors were already binned by
  // sequence as the group results streamed in; merging never crosses
  // sequences, so per-bin merges reproduce the old global pass exactly.
  std::vector<SequenceBin> all_bins;
  all_bins.reserve(pending.binned.size());
  std::size_t total_merged = 0;
  for (auto& [sid, anchors] : pending.binned) {
    SequenceBin bin;
    bin.sequence = sid;
    bin.anchors = merge_anchors(std::move(anchors));
    total_merged += bin.anchors.size();
    all_bins.push_back(std::move(bin));
  }
  pending.binned.clear();

  // The fan-in span covers route → last group result. The duration comes
  // from clock deltas, so it is virtual (and deterministic) under the
  // simulator and wall time under the socket transport.
  const std::uint64_t fanin_span = record_span(
      "coord.fanin", query_id, pending.trace, pending.created,
      delta_ns(pending.created, ctx.now()), total_merged);
  const obs::TraceContext fetch_trace = pending.trace.child(fanin_span);

  // Keep only bins with at least one anchor above the gapped trigger S.
  pending.bins.clear();
  for (auto& bin : all_bins) {
    const bool qualifies = std::any_of(
        bin.anchors.begin(), bin.anchors.end(), [&](const Anchor& a) {
          return a.normalized_score() > pending.params.gapped_trigger;
        });
    if (!qualifies) continue;
    // Best-first so the strongest anchor's gapped alignment is accepted
    // before weaker overlapping anchors can shadow it in the dedup pass.
    // The order is total, so results are independent of message arrival
    // order (symmetric-architecture guarantee: every entry point generates
    // identical results).
    std::sort(bin.anchors.begin(), bin.anchors.end(),
              [](const Anchor& a, const Anchor& b) {
                if (a.score != b.score) return a.score > b.score;
                if (a.s_begin != b.s_begin) return a.s_begin < b.s_begin;
                if (a.q_begin != b.q_begin) return a.q_begin < b.q_begin;
                return a.q_end < b.q_end;
              });
    pending.bins.push_back(std::move(bin));
  }

  if (pending.bins.empty()) {
    QueryResultPayload empty;
    ctx.send(pending.client, kQueryResult, query_id, encode_payload(empty));
    coord_pending_.erase(query_id);
    return;
  }

  // Per-bin fetch windows and homes, needed by both the pruning bound and
  // the sends below.
  struct BinFetch {
    net::NodeId home = net::kClientNode;
    std::uint32_t start = 0;
    std::uint32_t length = 0;
  };
  const std::uint32_t margin =
      pending.params.extension_margin + pending.params.band;
  std::vector<BinFetch> plan(pending.bins.size());
  for (std::size_t i = 0; i < pending.bins.size(); ++i) {
    const SequenceBin& bin = pending.bins[i];
    BinFetch& f = plan[i];
    f.home = pick_sequence_home(sequence_placement_key(bin.sequence));
    std::uint32_t lo = bin.anchors.front().s_begin;
    std::uint32_t hi = 0;
    for (const Anchor& a : bin.anchors) {
      lo = std::min(lo, a.s_begin);
      hi = std::max(hi, a.s_end);
    }
    f.start = lo > margin ? lo - margin : 0;
    f.length = (lo - f.start) + (hi - lo) + 2 * margin;
  }

  // ---- score-bounded pruning (exact — see docs/architecture.md) --------
  //
  // Upper bound U_i on any banded score bin i can produce: every aligned
  // pair consumes one query row and one subject column, and the window
  // holds at most L_i columns (the planned fetch, clipped at the end of
  // the subject when its length is known), so the score is at most the
  // sum of the min(L_i, qlen) largest positive per-row matrix maxima —
  // gap costs only subtract. A lower bound on every possible hit's
  // E-value follows. Guaranteed hit: the
  // bin's first attempted anchor always runs its DP against a window that
  // contains its certified ungapped run, so the bin is certain to place a
  // hit at E-value <= e(cert) when e(cert) passes the E-value filter. The
  // cutoff C is the max_hits-th smallest such guarantee; a bin whose
  // E-value lower bound is strictly above both C and the filter can only
  // produce hits that rank past the top max_hits, so skipping its fetch
  // and DP cannot change the reply.
  if (config_.prune_extensions) {
    const auto& matrix = score::matrix_by_name(pending.params.matrix);
    const auto karlin = score::gapped_params(matrix);
    const std::uint64_t db_residues =
        config_.database_residues > 0 ? config_.database_residues : 1;
    const std::size_t qlen = pending.query.size();
    const std::size_t codes = seq::cardinality(config_.alphabet);
    // Positive per-query-row matrix maxima, largest first, with prefix
    // sums: an alignment against an L-column window pairs at most
    // min(L, qlen) distinct query rows, so prefix[min(L, qlen)] bounds any
    // achievable banded score (gap costs only subtract).
    std::vector<int> row_maxima;
    row_maxima.reserve(pending.query.size());
    for (seq::Code code : pending.query) {
      int row_max = 0;
      for (std::size_t d = 0; d < codes; ++d) {
        row_max = std::max(row_max,
                           matrix.score(code, static_cast<seq::Code>(d)));
      }
      if (row_max > 0) row_maxima.push_back(row_max);
    }
    std::sort(row_maxima.begin(), row_maxima.end(), std::greater<>());
    std::vector<double> prefix(row_maxima.size() + 1, 0.0);
    for (std::size_t i = 0; i < row_maxima.size(); ++i) {
      prefix[i + 1] = prefix[i] + row_maxima[i];
    }

    std::vector<double> guarantees;
    std::vector<double> floor_evalue(pending.bins.size(), 0.0);
    for (std::size_t i = 0; i < pending.bins.size(); ++i) {
      const SequenceBin& bin = pending.bins[i];
      // Subject columns a gapped alignment could use: the planned window,
      // clipped at the end of the sequence when a group entry learned its
      // length from a clamped fetch.
      std::uint64_t columns = plan[i].length;
      for (const Anchor& anchor : bin.anchors) {
        if (anchor.subject_len == 0) continue;
        const std::uint64_t usable =
            anchor.subject_len > plan[i].start
                ? anchor.subject_len - plan[i].start
                : 0;
        columns = std::min(columns, usable);
        break;
      }
      const double best_possible =
          prefix[std::min<std::size_t>(columns, row_maxima.size())];
      floor_evalue[i] =
          score::evalue(karlin, best_possible, qlen, db_residues);
      if (plan[i].home == net::kClientNode) continue;  // no fetch: no hit
      if (pending.params.max_gapped_per_bin == 0) continue;  // no DP runs
      // First attempted anchor = first above the trigger in best-first
      // order; its certified run bounds what its DP is sure to achieve.
      const auto first = std::find_if(
          bin.anchors.begin(), bin.anchors.end(), [&](const Anchor& a) {
            return a.normalized_score() > pending.params.gapped_trigger;
          });
      if (first == bin.anchors.end() || first->cert <= 0) continue;
      const double guaranteed =
          score::evalue(karlin, first->cert, qlen, db_residues);
      if (guaranteed > pending.params.evalue) continue;
      guarantees.push_back(guaranteed);
    }
    double cutoff = std::numeric_limits<double>::infinity();
    const std::size_t k = pending.params.max_hits;
    if (k == 0) {
      cutoff = -std::numeric_limits<double>::infinity();
    } else if (guarantees.size() >= k) {
      std::nth_element(guarantees.begin(),
                       guarantees.begin() + static_cast<std::ptrdiff_t>(k) -
                           1,
                       guarantees.end());
      cutoff = guarantees[k - 1];
    }
    std::size_t pruned_bins = 0;
    std::uint64_t pruned_anchors = 0;
    for (std::size_t i = 0; i < pending.bins.size(); ++i) {
      // Strict >: a pruned hit tying the cutoff exactly could still win a
      // subject-id tiebreak against the guaranteed hit. Support bins never
      // self-prune (their floor is at most their own guarantee).
      if (floor_evalue[i] > pending.params.evalue ||
          floor_evalue[i] > cutoff) {
        pending.bins[i].pruned = true;
        ++pruned_bins;
        pruned_anchors += pending.bins[i].anchors.size();
      }
    }
    if (pruned_bins > 0) {
      counters_.anchors_pruned += pruned_anchors;
      if (c_anchors_pruned_ != nullptr) c_anchors_pruned_->add(pruned_anchors);
    }
    record_span("coord.prune", query_id, pending.trace, ctx.now(), 0,
                pruned_bins);
  }
#ifdef MENDEL_CHECKED
  // Prune audit: still fetch and extend pruned bins, then assert in
  // coordinator_finish that dropping their hits leaves the ranking
  // untouched — the exactness proof, executed.
  const bool audit_pruned = config_.prune_extensions;
#else
  const bool audit_pruned = false;
#endif

  pending.fetched.assign(pending.bins.size(), std::nullopt);
  std::size_t sent = 0;
  for (std::size_t i = 0; i < pending.bins.size(); ++i) {
    const SequenceBin& bin = pending.bins[i];
    if (bin.pruned && !audit_pruned) continue;
    if (plan[i].home == net::kClientNode) continue;
    FetchRangePayload fetch;
    fetch.purpose = static_cast<std::uint8_t>(FetchPurpose::kGappedExtension);
    fetch.token = static_cast<std::uint32_t>(i);
    fetch.trace = fetch_trace;
    fetch.sequence = bin.sequence;
    fetch.start = plan[i].start;
    fetch.length = plan[i].length;
    ctx.send(plan[i].home, kFetchRange, query_id, encode_payload(fetch));
    ++sent;
  }
  if (sent == 0) {
    QueryResultPayload empty;
    ctx.send(pending.client, kQueryResult, query_id, encode_payload(empty));
    coord_pending_.erase(query_id);
    return;
  }
  pending.awaiting_fetches = sent;
}

void StorageNode::coordinator_extend_bin(PendingQuery& pending,
                                         std::size_t bin_idx,
                                         bool wall_timing) {
  if (!pending.fetched[bin_idx].has_value()) return;
  const FetchedRange& range = *pending.fetched[bin_idx];
  if (range.codes.empty()) return;
  SequenceBin& bin = pending.bins[bin_idx];
  const auto& matrix = score::matrix_by_name(pending.params.matrix);
  const auto karlin = score::gapped_params(matrix);
  const std::uint64_t db_residues =
      config_.database_residues > 0 ? config_.database_residues : 1;
  std::optional<Stopwatch> watch;
  if (wall_timing && h_coord_extend_ != nullptr) watch.emplace();

  {
    std::vector<align::GappedAlignment> accepted;
    std::uint32_t attempts = 0;
    for (const Anchor& anchor : bin.anchors) {
      if (anchor.normalized_score() <= pending.params.gapped_trigger) {
        continue;
      }
      if (attempts >= pending.params.max_gapped_per_bin) break;
      // Anchors are processed best-first; skip any anchor already covered
      // by an accepted gapped alignment *before* paying for its DP —
      // nearby-diagonal anchors overwhelmingly converge to one alignment.
      bool covered = false;
      for (const auto& existing : accepted) {
        const bool q_overlap = anchor.q_begin <
                                   static_cast<std::uint32_t>(
                                       existing.hsp.q_end) &&
                               static_cast<std::uint32_t>(
                                   existing.hsp.q_begin) < anchor.q_end;
        const bool s_overlap = anchor.s_begin <
                                   static_cast<std::uint32_t>(
                                       existing.hsp.s_end) &&
                               static_cast<std::uint32_t>(
                                   existing.hsp.s_begin) < anchor.s_end;
        if (q_overlap && s_overlap) {
          covered = true;
          break;
        }
      }
      if (covered) continue;

      ++attempts;
      ++bin.dp_runs;
      const std::ptrdiff_t local_diag =
          anchor.diagonal() - static_cast<std::ptrdiff_t>(range.start);
      align::GappedAlignment gapped = align::banded_local_align(
          pending.query, range.codes, matrix, matrix.default_gaps(),
          {local_diag, pending.params.band});
      if (gapped.hsp.score <= 0) continue;
      // Back to absolute subject coordinates.
      gapped.hsp.s_begin += range.start;
      gapped.hsp.s_end += range.start;

      // Deduplicate against the accepted alignments (the pre-check used
      // the anchor's span; the gapped result can drift).
      bool duplicate = false;
      for (const auto& existing : accepted) {
        const bool q_overlap =
            gapped.hsp.q_begin < existing.hsp.q_end &&
            existing.hsp.q_begin < gapped.hsp.q_end;
        const bool s_overlap =
            gapped.hsp.s_begin < existing.hsp.s_end &&
            existing.hsp.s_begin < gapped.hsp.s_end;
        if (q_overlap && s_overlap) {
          duplicate = true;
          break;
        }
      }
      if (duplicate) continue;

      const double e = score::evalue(karlin, gapped.hsp.score,
                                     pending.query.size(), db_residues);
      if (e > pending.params.evalue) {
        accepted.push_back(gapped);  // still shadows duplicates
        continue;
      }

      align::AlignmentHit hit;
      hit.subject_id = bin.sequence;
      hit.subject_name = range.name;
      hit.alignment = gapped;
      hit.bit_score = score::bit_score(karlin, gapped.hsp.score);
      hit.evalue = e;
      if (pending.params.include_subject_segment) {
        const std::size_t local_begin = gapped.hsp.s_begin - range.start;
        hit.subject_segment.assign(
            range.codes.begin() + static_cast<std::ptrdiff_t>(local_begin),
            range.codes.begin() +
                static_cast<std::ptrdiff_t>(local_begin +
                                            gapped.hsp.s_len()));
      }
      bin.hits.push_back(std::move(hit));
      accepted.push_back(gapped);
    }
  }
  if (watch.has_value()) h_coord_extend_->record_seconds(watch->seconds());
}

namespace {

// Ranked-hit ordering of the final reply (ties broken by subject id; hits
// of one subject keep their bin emission order under std::sort's
// implementation-determinism because assembly feeds bins in index order).
void rank_hits(std::vector<align::AlignmentHit>& hits,
               std::uint32_t max_hits) {
  std::sort(hits.begin(), hits.end(),
            [](const align::AlignmentHit& a, const align::AlignmentHit& b) {
              if (a.evalue != b.evalue) return a.evalue < b.evalue;
              return a.subject_id < b.subject_id;
            });
  if (hits.size() > max_hits) hits.resize(max_hits);
}

}  // namespace

void StorageNode::coordinator_finish(std::uint64_t query_id,
                                     PendingQuery& pending,
                                     net::Context& ctx) {
  drain_tasks(pending.extend_tasks);

  QueryResultPayload reply;
  for (const SequenceBin& bin : pending.bins) {
    counters_.gapped_extensions += bin.dp_runs;
    if (bin.pruned) continue;
    reply.hits.insert(reply.hits.end(), bin.hits.begin(), bin.hits.end());
  }
  rank_hits(reply.hits, pending.params.max_hits);

#ifdef MENDEL_CHECKED
  if (config_.prune_extensions) {
    // Prune audit: pruned bins were fetched and extended too (see
    // coordinator_bin_and_fetch); their hits must not change the ranking.
    std::vector<align::AlignmentHit> full;
    for (const SequenceBin& bin : pending.bins) {
      full.insert(full.end(), bin.hits.begin(), bin.hits.end());
    }
    rank_hits(full, pending.params.max_hits);
    MENDEL_CHECK(full.size() == reply.hits.size(),
                 "node " << id_ << ": query " << query_id
                         << " prune audit: pruned ranking has "
                         << reply.hits.size() << " hits, full ranking "
                         << full.size());
    for (std::size_t i = 0; i < full.size(); ++i) {
      const align::AlignmentHit& a = full[i];
      const align::AlignmentHit& b = reply.hits[i];
      MENDEL_CHECK(a.subject_id == b.subject_id && a.evalue == b.evalue &&
                       a.alignment.hsp.score == b.alignment.hsp.score &&
                       a.alignment.hsp.q_begin == b.alignment.hsp.q_begin &&
                       a.alignment.hsp.s_begin == b.alignment.hsp.s_begin,
                   "node " << id_ << ": query " << query_id
                           << " prune audit: rank " << i
                           << " differs (full subject " << a.subject_id
                           << " evalue " << a.evalue << " vs pruned subject "
                           << b.subject_id << " evalue " << b.evalue << ")");
    }
  }
#endif

  record_span("coord.finish", query_id, pending.trace, ctx.now(), 0,
              reply.hits.size());
  ctx.send(pending.client, kQueryResult, query_id, encode_payload(reply));
  coord_pending_.erase(query_id);
}

// --- fetch fan-in shared by both roles --------------------------------------

void StorageNode::on_fetch_range_result(const net::Message& message,
                                        net::Context& ctx) {
  auto payload = decode_payload<FetchRangeResultPayload>(message.payload);
  if (payload.purpose >
      static_cast<std::uint8_t>(FetchPurpose::kGappedExtension)) {
    throw DecodeError("fetch_range_result: unknown purpose " +
                      std::to_string(payload.purpose));
  }
  // Fetched subject codes are scored against the query through unchecked
  // LUT kernels (ungapped X-drop and banded DP).
  validate_codes(payload.codes, seq::cardinality(config_.alphabet),
                 "fetch_range_result");
  FetchedRange range;
  range.sequence = payload.sequence;
  range.start = payload.start;
  range.sequence_length = payload.sequence_length;
  range.name = std::move(payload.sequence_name);
  range.codes = std::move(payload.codes);

  if (payload.purpose ==
      static_cast<std::uint8_t>(FetchPurpose::kGroupExtension)) {
    auto it = group_pending_.find(message.request_id);
    if (it == group_pending_.end()) return;
    PendingGroupQuery& pending = it->second;
    if (pending.awaiting_fetches == 0) {
      throw DecodeError("fetch_range_result: group query " +
                        std::to_string(message.request_id) +
                        " has no outstanding fetches (duplicate or forged "
                        "result from node " +
                        std::to_string(message.from) + ")");
    }
    if (payload.token < pending.fetched.size()) {
      pending.fetched[payload.token] = std::move(range);
      // Streaming extension: ungapped X-drop for this range's member seeds
      // runs now — on the daemon's search pool when it has one, inline under
      // the simulator — instead of queueing behind the last fetch. The
      // pending entry is a stable map node and is only torn down after
      // drain_tasks (reply assembly or cancel), so the captured reference
      // outlives the task.
      const std::size_t range_idx = payload.token;
      const bool wall = !ctx.virtual_time();
      schedule_extension(pending.extend_tasks, ctx,
                         [this, &pending, range_idx, wall] {
                           group_entry_extend_range(pending, range_idx, wall);
                         });
    }
    if (--pending.awaiting_fetches == 0) {
      group_entry_finish(message.request_id, pending, ctx);
    }
    return;
  }

  auto it = coord_pending_.find(message.request_id);
  if (it == coord_pending_.end()) return;
  PendingQuery& pending = it->second;
  if (pending.awaiting_fetches == 0) {
    throw DecodeError("fetch_range_result: query " +
                      std::to_string(message.request_id) +
                      " has no outstanding fetches (duplicate or forged "
                      "result from node " +
                      std::to_string(message.from) + ")");
  }
  if (payload.token < pending.fetched.size()) {
    pending.fetched[payload.token] = std::move(range);
    // Same streaming scheme as the group entry: the bin's banded DP chain
    // starts at arrival, and coordinator_finish only assembles.
    const std::size_t bin_idx = payload.token;
    const bool wall = !ctx.virtual_time();
    schedule_extension(pending.extend_tasks, ctx,
                       [this, &pending, bin_idx, wall] {
                         coordinator_extend_bin(pending, bin_idx, wall);
                       });
  }
  if (--pending.awaiting_fetches == 0) {
    coordinator_finish(message.request_id, pending, ctx);
  }
}

// --- elasticity ---------------------------------------------------------------

void StorageNode::on_rebalance(net::Context& ctx) {
  const std::uint32_t group = config_.topology->address(id_).group;
  // Ownership may move blocks either way; drop every cached seed list.
  invalidate_nn_cache();

  // Blocks: ship everything whose owner set no longer includes this node,
  // then compact the survivors into a fresh arena + tree (slots are
  // append-only, so eviction is a rebuild). Ownership is per block, so one
  // window's postings may split across owners.
  std::vector<Block> kept;
  std::map<net::NodeId, InsertBlocksPayload> outgoing;
  {
    // Pins drop before arena_.clear(), which needs an unpinned store.
    auto pins = arena_.pin_set();
    std::vector<seq::Code> window(arena_.window_length());
    std::uint32_t decoded = BlockRef::kProbeSlot;
    for_each_block([&](const BlockRef& ref) {
      if (ref.slot != decoded) {
        arena_.copy_row(pins, ref.slot, window.data());
        decoded = ref.slot;
      }
      Block block{ref.sequence, ref.start, window};
      const auto owners = config_.topology->nodes_for_key(
          group, block_placement_key(block));
      if (std::find(owners.begin(), owners.end(), id_) != owners.end()) {
        kept.push_back(std::move(block));
        return;
      }
      for (net::NodeId owner : owners) {
        outgoing[owner].blocks.push_back(block);
      }
    });
  }
  if (!outgoing.empty()) {
    block_keys_.clear();
    arena_.clear();
    windows_.clear();
    postings_.clear();
    first_blocks_.clear();
    tree_ = fresh_tree();
    std::size_t admitted = 0;
    auto fresh = admit_blocks(kept, admitted);
    if (!fresh.empty()) insert_refs(std::move(fresh));
  }
  for (auto& [owner, payload] : outgoing) {
    ctx.send(owner, kInsertBlocks, 0, encode_payload(payload));
  }

  // Sequence shard: same treatment against the global repository ring.
  std::vector<std::uint32_t> evicted;
  for (const auto& [sid, stored] : sequences_) {
    const auto homes =
        config_.topology->sequence_homes(sequence_placement_key(sid));
    if (std::find(homes.begin(), homes.end(), id_) != homes.end()) continue;
    StoreSequencePayload payload;
    payload.sequence = sid;
    payload.name = stored.name;
    payload.alphabet = static_cast<std::uint8_t>(config_.alphabet);
    payload.codes = stored.codes;
    for (net::NodeId home : homes) {
      ctx.send(home, kStoreSequence, 0, encode_payload(payload));
    }
    evicted.push_back(sid);
  }
  for (std::uint32_t sid : evicted) sequences_.erase(sid);
#ifdef MENDEL_CHECKED
  checked_audit("rebalance");
#endif
}

// --- persistence ------------------------------------------------------------

void StorageNode::save(CodecWriter& writer) const {
  writer.str("mendel-node-v2");
  writer.u32(id_);
  // v2 dumps arena rows in their stored (possibly bit-packed) form — no
  // inflate/deflate round trip — preceded by the geometry needed to decode
  // them: block identities in (sequence, start) order, then one contiguous
  // blob of row_bytes()-sized payloads, one per block (stride padding is
  // not persisted). The canonical order makes the bytes independent of
  // admission order and of which block stands for a repeated window.
  std::vector<BlockRef> refs;
  refs.reserve(block_count());
  for_each_block([&refs](const BlockRef& ref) { refs.push_back(ref); });
  std::sort(refs.begin(), refs.end(), BlockOrder{});
  writer.u32(static_cast<std::uint32_t>(arena_.window_length()));
  writer.u8(static_cast<std::uint8_t>(arena_.packed_bits()));
  writer.u32(static_cast<std::uint32_t>(refs.size()));
  for (const BlockRef& ref : refs) {
    writer.u32(ref.sequence);
    writer.u32(ref.start);
  }
  const std::size_t row_bytes = arena_.row_bytes();
  writer.u64(static_cast<std::uint64_t>(refs.size()) * row_bytes);
  std::vector<std::uint8_t> row(arena_.stride());
  for (const BlockRef& ref : refs) {
    arena_.copy_row_bytes(ref.slot, row.data());
    writer.raw(std::span<const std::uint8_t>(row.data(), row_bytes));
  }
  writer.u32(static_cast<std::uint32_t>(sequences_.size()));
  // Deterministic order for byte-stable snapshots.
  std::vector<std::uint32_t> ids;
  ids.reserve(sequences_.size());
  for (const auto& [sid, stored] : sequences_) ids.push_back(sid);
  std::sort(ids.begin(), ids.end());
  for (std::uint32_t sid : ids) {
    const auto& stored = sequences_.at(sid);
    writer.u32(sid);
    writer.str(stored.name);
    writer.bytes(std::span<const std::uint8_t>(stored.codes.data(),
                                               stored.codes.size()));
  }
}

void StorageNode::load(CodecReader& reader) {
  const std::string magic = reader.str();
  require(magic == "mendel-node-v2",
          "StorageNode::load: unsupported node snapshot magic '" + magic +
              "' (re-index and save with this version)");
  const std::uint32_t saved_id = reader.u32();
  require(saved_id == id_, "StorageNode::load: snapshot is for node " +
                               std::to_string(saved_id));
  const std::size_t window_len = reader.u32();
  const unsigned bits = reader.u8();
  require(bits == 0 || bits == 2 || bits == 4,
          "StorageNode::load: bad packed row width " + std::to_string(bits));
  const std::uint32_t block_count = reader.u32();
  // window_length 0 is how an empty arena saves itself; with blocks
  // present it would make append_row below reject caller error.
  if (window_len == 0 && block_count != 0) {
    throw DecodeError("StorageNode::load: zero window length with " +
                      std::to_string(block_count) + " blocks");
  }
  // Snapshot bytes come off disk: bound every count by the bytes that must
  // back it before sizing containers (a corrupt count must not become a
  // multi-GB allocation).
  if (block_count > reader.remaining() / 8) {
    throw DecodeError("StorageNode::load: block count " +
                      std::to_string(block_count) +
                      " exceeds the remaining bytes");
  }
  std::vector<std::pair<std::uint32_t, std::uint32_t>> idents(block_count);
  for (auto& [sequence, start] : idents) {
    sequence = reader.u32();
    start = reader.u32();
  }
  const std::size_t row_bytes =
      vpt::WindowArena::payload_bytes(window_len, bits);
  const std::uint64_t blob = reader.u64();
  require(blob == static_cast<std::uint64_t>(block_count) * row_bytes,
          "StorageNode::load: row blob length mismatch");
  if (blob > reader.remaining()) {
    throw DecodeError("StorageNode::load: row blob overruns the buffer");
  }
  // Rows go straight from the snapshot into the arena, once per distinct
  // window; when the stored width matches the arena's encoding this is a
  // verbatim copy, otherwise append_row transcodes (e.g. a 4-bit snapshot
  // loaded into a fresh 2-bit arena widens it on the first ambiguity
  // code). Any block order loads; save writes (sequence, start) order.
  std::vector<BlockRef> fresh;
  std::size_t admitted = 0;
  std::vector<seq::Code> window(window_len);
  for (const auto& [sequence, start] : idents) {
    const auto row = reader.raw(row_bytes);
    vpt::WindowArena::decode_row(row.data(), window.data(), window_len, bits);
    admitted += admit_block(
        {sequence, start, 0}, window,
        [&] {
          return arena_.append_row(row.data(), row_bytes, window_len, bits);
        },
        fresh);
  }
  // Restored items count separately from this session's insertions (the
  // inserted/stored counters track work done since startup).
  counters_.blocks_restored += admitted;
  if (admitted > 0) invalidate_nn_cache();
  if (!fresh.empty()) insert_refs(std::move(fresh));
  const std::uint32_t count = reader.u32();
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint32_t sid = reader.u32();
    StoredSequence stored;
    stored.name = reader.str();
    stored.codes = reader.bytes();
    sequences_[sid] = std::move(stored);
    ++counters_.sequences_restored;
  }
#ifdef MENDEL_CHECKED
  checked_audit("load");
#endif
}

// --- invariant verification -------------------------------------------------

std::vector<Block> StorageNode::blocks() const {
  std::vector<Block> out;
  out.reserve(block_count());
  for_each_block([&](const BlockRef& ref) { out.push_back(materialize(ref)); });
  return out;
}

std::vector<seq::SequenceId> StorageNode::stored_sequence_ids() const {
  std::vector<seq::SequenceId> ids;
  ids.reserve(sequences_.size());
  for (const auto& [sid, stored] : sequences_) ids.push_back(sid);
  std::sort(ids.begin(), ids.end());
  return ids;
}

void StorageNode::audit_placement(const BlockRef& ref, seq::CodeSpan window,
                                  std::vector<std::string>& out) const {
  const std::string ident = "node " + std::to_string(id_) + ": block (seq " +
                            std::to_string(ref.sequence) + ", start " +
                            std::to_string(ref.start) + ")";
  // Tier 1: the window must re-hash to the group this node belongs to.
  const std::uint32_t own_group = config_.topology->address(id_).group;
  const std::uint64_t prefix = config_.prefix_tree->hash(window);
  const std::uint32_t group = config_.topology->group_for_prefix(prefix);
  if (group != own_group) {
    out.push_back(ident + " hashes to prefix " + std::to_string(prefix) +
                  " = group " + std::to_string(group) +
                  " but is stored in group " + std::to_string(own_group));
    return;  // tier 2 is meaningless against the wrong group ring
  }
  // Tier 2: the intra-group consistent-hash owners must include this node.
  const auto owners = config_.topology->nodes_for_key(
      group, block_placement_key(ref.sequence, ref.start, window));
  if (std::find(owners.begin(), owners.end(), id_) == owners.end()) {
    out.push_back(ident + " is not among the " +
                  std::to_string(owners.size()) +
                  " ring owner(s) of its placement key");
  }
}

void StorageNode::audit_store(std::vector<std::string>& out) const {
  const std::string me = "node " + std::to_string(id_);
  // Spilled arenas: the block store's residency invariants (pinned blocks
  // resident, accounting consistent, resident set within budget + pins).
  std::string store_why;
  if (!arena_.store_audit(&store_why)) {
    out.push_back(me + ": block store residency audit failed: " + store_why);
  }
  // Pins are operation-scoped: none may outlive the search or tree call
  // that took it.
  if (const std::size_t pinned = arena_.stats().pinned_segments; pinned > 0) {
    out.push_back(me + ": " + std::to_string(pinned) +
                  " block store segment(s) still pinned between operations");
  }
}

bool StorageNode::audit_windows(std::vector<std::string>& out,
                                std::size_t max_violations) const {
  const std::string me = "node " + std::to_string(id_);
  auto ident = [](const BlockRef& ref) {
    return "block (seq " + std::to_string(ref.sequence) + ", start " +
           std::to_string(ref.start) + ")";
  };
  // One tree item and one arena row per distinct window, each row findable
  // through the window index.
  if (tree_.size() != arena_.size() || windows_.size() != arena_.size()) {
    out.push_back(me + ": vp-tree holds " + std::to_string(tree_.size()) +
                  " windows, the window arena " +
                  std::to_string(arena_.size()) + " and the window index " +
                  std::to_string(windows_.size()));
  }
  // Hamming nodes map every arena slot to its tree item (its first block).
  const std::size_t firsts = hamming_ball_ ? arena_.size() : 0;
  if (first_blocks_.size() != firsts) {
    out.push_back(me + ": the first-block table holds " +
                  std::to_string(first_blocks_.size()) + " entries for " +
                  std::to_string(firsts) + " windows");
  }
  // The postings — tree items plus the repeated windows' runs — are
  // exactly the stored blocks.
  if (block_count() != block_keys_.size()) {
    out.push_back(me + ": holds " + std::to_string(block_count()) +
                  " block postings but the dedup key set holds " +
                  std::to_string(block_keys_.size()));
  }
  std::vector<bool> item_at(arena_.size(), false);
  std::vector<seq::Code> window(arena_.window_length());
  bool rows_ok = true;
  tree_.for_each([&](const BlockRef& item) {
    if (out.size() >= max_violations || !rows_ok) return;
    if (item.slot >= arena_.size()) {
      out.push_back(me + ": " + ident(item) + " references arena slot " +
                    std::to_string(item.slot) + " past the arena end");
      rows_ok = false;  // the row checks below would read out of bounds
      return;
    }
    if (item_at[item.slot]) {
      out.push_back(me + ": arena slot " + std::to_string(item.slot) +
                    " stands for more than one vp-tree item");
    }
    item_at[item.slot] = true;
    if (item.slot < first_blocks_.size() &&
        first_blocks_[item.slot] != item.key()) {
      out.push_back(me + ": the first-block table does not map arena slot " +
                    std::to_string(item.slot) + " to its vp-tree item " +
                    ident(item));
    }
    arena_.copy_row(item.slot, window.data());
    if (windows_.find(window, arena_) != item.slot) {
      out.push_back(me + ": the window index does not map " + ident(item) +
                    "'s window to its arena slot " +
                    std::to_string(item.slot));
    }
    if (!block_keys_.contains(item.key())) {
      out.push_back(me + ": " + ident(item) +
                    " is missing from the dedup key set");
    }
  });
  if (!rows_ok) return false;
  postings_.for_each_run([&](std::uint32_t slot,
                             std::span<const BlockRef> run) {
    if (out.size() >= max_violations) return;
    if (slot >= item_at.size() || !item_at[slot]) {
      out.push_back(me + ": postings of arena slot " + std::to_string(slot) +
                    " have no vp-tree item");
    }
    for (std::size_t i = 0; i < run.size(); ++i) {
      const BlockRef& posting = run[i];
      if (posting.slot != slot) {
        out.push_back(me + ": " + ident(posting) +
                      " is filed under arena slot " + std::to_string(slot) +
                      " but references slot " + std::to_string(posting.slot));
      }
      // Sorted runs let the n-NN search stop at the first rejected posting.
      if (i > 0 && !BlockOrder{}(run[i - 1], posting)) {
        out.push_back(me + ": postings of arena slot " +
                      std::to_string(slot) + " are out of (sequence, start) "
                      "order at " + ident(posting));
      }
      if (!block_keys_.contains(posting.key())) {
        out.push_back(me + ": " + ident(posting) +
                      " is missing from the dedup key set");
      }
    }
  });
  return out.size() < max_violations;
}

std::vector<std::string> StorageNode::audit(std::size_t max_violations) const {
  std::vector<std::string> out;
  const std::string me = "node " + std::to_string(id_);

  // Local vp-tree structure (balance, occupancy, mu admissibility).
  for (auto& violation : tree_.validate(max_violations)) {
    out.push_back(me + " vp-tree: " + std::move(violation));
  }

  // SIMD layout contract: the batched kernels gather straight off the
  // arena buffer, so base alignment and row padding are load-bearing.
  if (!arena_.layout_ok()) {
    out.push_back(me + ": window arena violates the SIMD layout contract "
                       "(base alignment / row stride padding)");
  }

  // Content half of that contract: every stored row must decode and
  // re-encode to the same bytes (zero stride padding, no stray high bits in
  // packed rows) — the packed kernels and the scalar oracle only agree on
  // well-formed rows.
  for (std::uint32_t slot = 0; slot < arena_.size(); ++slot) {
    if (out.size() >= max_violations) return out;
    if (!arena_.row_roundtrip_ok(slot)) {
      out.push_back(me + ": arena slot " + std::to_string(slot) +
                    " fails the packed-row round trip (stray bits or "
                    "nonzero padding)");
    }
  }

  audit_store(out);

  if (!audit_windows(out, max_violations)) return out;

  // Two-tier DHT placement of every stored block. hash() needs a routing
  // tree whose window length matches the stored payloads, so check that
  // compatibility first instead of letting it throw mid-audit.
  if (!tree_.empty()) {
    if (!config_.prefix_tree->built()) {
      out.push_back(me + ": stores blocks but the routing prefix tree is "
                         "not built");
      return out;
    }
    if (arena_.window_length() != config_.prefix_tree->window_length()) {
      out.push_back(
          me + ": arena window length " +
          std::to_string(arena_.window_length()) +
          " != routing prefix tree window length " +
          std::to_string(config_.prefix_tree->window_length()));
      return out;
    }
  }
  std::vector<seq::Code> window(arena_.window_length());
  tree_.for_each([&](const BlockRef& item) {
    if (out.size() >= max_violations) return;
    arena_.copy_row(item.slot, window.data());
    audit_placement(item, window, out);
    for (const BlockRef& posting : postings_.extras(item.slot)) {
      if (out.size() >= max_violations) return;
      audit_placement(posting, window, out);
    }
  });
  if (out.size() >= max_violations) return out;

  // Sequence shard: every stored sequence's repository-ring homes must
  // include this node.
  for (const auto& [sid, stored] : sequences_) {
    if (out.size() >= max_violations) return out;
    const auto homes =
        config_.topology->sequence_homes(sequence_placement_key(sid));
    if (std::find(homes.begin(), homes.end(), id_) == homes.end()) {
      out.push_back(me + ": sequence " + std::to_string(sid) + " ('" +
                    stored.name + "') is stored off its home ring");
    }
  }
  return out;
}

#ifdef MENDEL_CHECKED
void StorageNode::checked_audit(const char* where) const {
  const auto violations = audit();
  MENDEL_CHECK(violations.empty(),
               "node " << id_ << " failed the invariant audit after " << where
                       << " (" << violations.size()
                       << " violation(s)), first: " << violations.front());
}

void StorageNode::checked_audit_insert(
    const std::vector<Block>& delivered) const {
  std::vector<std::string> out;
  for (auto& violation : tree_.validate()) {
    out.push_back("node " + std::to_string(id_) + " vp-tree: " +
                  std::move(violation));
  }
  audit_store(out);
  if (config_.checked_placement_audit) {
    for (const Block& block : delivered) {
      if (out.size() >= 32) break;
      audit_placement({block.sequence, block.start, 0}, block.window, out);
    }
  }
  MENDEL_CHECK(out.empty(),
               "node " << id_ << " failed the invariant audit after insert ("
                       << out.size() << " violation(s)), first: "
                       << out.front());
}
#endif

}  // namespace mendel::core
