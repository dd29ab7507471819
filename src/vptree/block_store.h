// Memory-mapped segment store backing out-of-core WindowArenas.
//
// A BlockStore is a flat byte array addressed exactly like the arena's heap
// buffer (row j lives at data() + j * stride), but only a bounded "hot set"
// of fixed-size segments is resident at any time. The full contents live in
// an unlinked temporary file; segments are mapped into a single contiguous
// PROT_NONE virtual reservation with MAP_FIXED, so data() never moves and
// slot * stride addressing stays valid across faults and evictions.
//
// Residency protocol:
//   * pin_segment() faults a segment in (if needed) and marks it
//     unevictable; readers only dereference data() inside pinned
//     segments, so they cannot fault — or worse, hit a PROT_NONE hole —
//     mid-read.
//   * A PinSet scopes pins to one operation (one n-NN search, one tree
//     insert or rebuild): it pins each segment the operation touches once,
//     on first touch, and drops every pin when it ends. Between those
//     points the operation reads pinned bytes straight from the mapping
//     without the store lock. A set never holds more segments than the
//     budget; once full, it releases the pins the current access group
//     does not need.
//   * read()/write() fault segments in transparently and copy under the
//     store lock, for callers without a pin set.
//   * When residency would exceed the byte budget, the least-recently-used
//     unpinned segment is evicted: its pages are replaced by a PROT_NONE
//     anonymous mapping (the file keeps the bytes; MAP_SHARED writeback
//     makes eviction lossless). If every resident segment is pinned the
//     store runs over budget rather than stalling — audits allow
//     resident <= budget + pinned.
//
// The reservation base is page-aligned, which satisfies (and exceeds) the
// arena's 32-byte base-alignment contract; ftruncate() zero-fills new file
// extents, which preserves the zeroed-padding/guard-tail contract without
// explicit memsets. Capacity is always rounded up to a whole segment so the
// guard tail past the last row is mappable and pinnable.
//
// All state transitions happen under one mutex; concurrent searcher threads
// may pin/read simultaneously. Pinned segment memory may be read without
// the lock — eviction never selects a pinned segment.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace mendel::vpt {

struct BlockStoreStats {
  // Per pin or locked read/write, per segment: a PinSet asks once per
  // segment per operation, however often the operation reads it.
  std::uint64_t hits = 0;       // requests served by a resident segment
  std::uint64_t misses = 0;     // requests that found the segment evicted
  std::uint64_t evictions = 0;  // segments dropped to respect the budget
  std::uint64_t faults = 0;     // file segments mapped in (initial or re-fault)
};

class BlockStore {
 public:
  static constexpr std::size_t kDefaultSegmentBytes = 256 * 1024;
  // Floor on the hot set: item-wise distance calls hold decoded copies of
  // at most two rows plus bookkeeping, but keeping a handful of segments
  // resident avoids pathological thrash when the configured budget is
  // smaller than a single working set.
  static constexpr std::size_t kMinResidentSegments = 8;

  // True when the platform has the mmap machinery this store needs;
  // callers fall back to all-resident heap storage when false.
  static bool supported();

  // budget_bytes: target resident size (clamped up to kMinResidentSegments
  // whole segments). segment_bytes is rounded up to a power of two no
  // smaller than the page size, so segment lookups are shifts.
  explicit BlockStore(std::size_t budget_bytes,
                      std::size_t segment_bytes = kDefaultSegmentBytes);
  ~BlockStore();
  BlockStore(const BlockStore&) = delete;
  BlockStore& operator=(const BlockStore&) = delete;

  // Stable base of the reservation; byte i of the store is data() + i.
  std::uint8_t* data() const { return base_; }

  std::size_t segment_bytes() const { return segment_bytes_; }
  std::size_t capacity() const;
  std::size_t budget_bytes() const { return budget_segments_ * segment_bytes_; }
  std::size_t budget_segments() const { return budget_segments_; }
  std::size_t resident_bytes() const;

  // Grows the backing file (zero-filled) so bytes [0, bytes) are
  // addressable. Rounded up to a whole segment. Never shrinks.
  void ensure_capacity(std::size_t bytes);

  // Drops all contents back to zero bytes (the capacity and mappings are
  // kept). Requires no segment be pinned.
  void reset();

  std::size_t segment_of(std::size_t offset) const {
    return offset / segment_bytes_;
  }
  std::size_t segment_count() const;

  // Faults the segment in if needed and makes it unevictable until the
  // matching unpin_segment(). Pins nest.
  void pin_segment(std::size_t seg);
  void unpin_segment(std::size_t seg);
  // Batched forms under one lock. pin_segments is all-or-nothing: if a
  // fault-in throws, the segments it already pinned are unpinned again.
  void pin_segments(const std::uint32_t* segs, std::size_t count);
  void unpin_segments(const std::uint32_t* segs, std::size_t count);
  // Outstanding pins on one segment (0 when out of range).
  std::uint32_t pin_count(std::size_t seg) const;
  // Segments with at least one outstanding pin.
  std::size_t pinned_segments() const;

  // Copy in/out with transparent fault-in; the copy runs under the store
  // lock so the bytes cannot be evicted mid-copy.
  void read(std::size_t offset, void* dst, std::size_t n);
  void write(std::size_t offset, const void* src, std::size_t n);

  BlockStoreStats stats() const;

  // Residency invariants: the resident-segment account matches the mapping
  // flags, no pinned segment is evicted, and residency only exceeds the
  // budget by pinned segments. Appends a reason to *why on failure.
  bool audit(std::string* why) const;

 private:
  struct Segment {
    std::uint32_t pin_count = 0;
    bool resident = false;
    std::uint64_t last_use = 0;
  };

  void fault_in_locked(std::size_t seg);
  void evict_locked(std::size_t seg);
  void make_room_locked();
  void trim_locked();
  void ensure_resident_locked(std::size_t seg);
  void unpin_locked(std::size_t seg);

  std::size_t segment_bytes_ = 0;
  std::size_t budget_segments_ = 0;
  int fd_ = -1;
  std::uint8_t* base_ = nullptr;
  std::size_t reserved_ = 0;

  mutable std::mutex mu_;
  std::size_t capacity_ = 0;  // bytes backed by the file (segment multiple)
  std::vector<Segment> segments_;
  std::size_t resident_segments_ = 0;
  std::uint64_t tick_ = 0;
  BlockStoreStats stats_;
};

// Operation-scoped pins over one BlockStore. An operation groups its reads
// (one kernel chunk, one item-wise distance): begin_group(), add() the
// byte ranges the group reads, commit(), then read them through data()
// until a later commit() or release(). Each segment is pinned once, on the
// first group that touches it, and stays pinned across later groups until
// the set would exceed the store's budget; commit() then releases every
// pin the current group does not need. Destruction releases everything,
// also when the operation unwinds with an exception.
//
// A set belongs to one thread. A null store makes every call a no-op
// (heap-resident arenas), so callers need no mode branches.
class PinSet {
 public:
  explicit PinSet(BlockStore* store);
  ~PinSet() { release(); }
  PinSet(const PinSet&) = delete;
  PinSet& operator=(const PinSet&) = delete;

  void begin_group() {
    commit();
    ++group_;
    group_segments_ = 0;
  }
  // Adds the segments overlapping [offset, offset + n) (n > 0) to the
  // current group. Returns false, adding nothing, when the group would
  // then span more segments than the budget allows.
  bool add(std::size_t offset, std::size_t n) {
    if (store_ == nullptr) return true;
    const std::size_t first = offset >> shift_;
    const std::size_t last = (offset + n - 1) >> shift_;
    if (last >= stamp_.size()) stamp_.resize(last + 1, 0);
    std::size_t fresh = 0;
    for (std::size_t s = first; s <= last; ++s) fresh += stamp_[s] != group_;
    if (fresh == 0) return true;
    if (group_segments_ + fresh > cap_) return false;
    for (std::size_t s = first; s <= last; ++s) {
      if (stamp_[s] == group_) continue;
      if (stamp_[s] == 0) pending_.push_back(static_cast<std::uint32_t>(s));
      stamp_[s] = group_;
    }
    group_segments_ += fresh;
    return true;
  }
  // Pins the group's newly added segments under one store lock.
  void commit() {
    if (!pending_.empty()) pin_pending();
  }
  // Drops every pin the set holds.
  void release();

  // Segments currently pinned by this set.
  std::size_t size() const { return held_.size(); }
  // Bytes [0, held_prefix_bytes()) lie in segments this set holds. A group
  // that only reads inside them may skip begin_group/add/commit: it needs
  // no new pin, so no commit can release one it reads.
  std::size_t held_prefix_bytes() const { return held_prefix_ << shift_; }
  // The most segments the set will ever hold (the store's budget).
  std::size_t capacity() const { return cap_; }

 private:
  void pin_pending();

  BlockStore* store_ = nullptr;
  unsigned shift_ = 0;    // log2(segment bytes)
  std::size_t cap_ = 0;   // store budget in segments
  // Per segment: the group that last touched it, or 0 when not held.
  std::vector<std::uint64_t> stamp_;
  std::vector<std::uint32_t> held_;     // pinned segments
  std::vector<std::uint32_t> pending_;  // added, pinned at commit()
  std::uint64_t group_ = 1;
  std::size_t group_segments_ = 0;
  std::size_t held_prefix_ = 0;  // segments [0, held_prefix_) are all held
};

}  // namespace mendel::vpt
