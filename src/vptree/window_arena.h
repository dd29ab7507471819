// Structure-of-arrays storage for fixed-length residue windows.
//
// Every inverted-index block a storage node holds has the same window
// length (the cluster-wide block length k), so the node keeps all window
// payloads in one contiguous row buffer and the vp-tree stores 4-byte
// slot indices instead of per-block heap vectors. Leaf bucket scans then
// walk sequential memory — the hot path the paper's n-NN searches spend
// their time in — instead of chasing a pointer per candidate.
//
// Two orthogonal axes extend the original all-resident byte-per-code
// arena:
//
//   Encoding. Rows are either plain codes (one byte per residue) or
//   bit-packed at 2 bits (DNA core: A C G T) or 4 bits (any alphabet with
//   <= 16 codes, e.g. reduced-alphabet protein). Packing is lossless, so
//   decode feeds the very same codes into the same LUT sums and results
//   stay bit-identical; the batched kernels fuse the unpack into the scan
//   (QKernelTable::distance_batch_packed). The arena starts at the
//   configured width and *widens automatically* (full repack) the first
//   time a code does not fit — e.g. a 2-bit DNA arena that meets an
//   ambiguity base N (code 4) repacks itself to 4 bits.
//
//   Storage. Rows live either in one heap buffer (default: zero overhead
//   versus the original arena) or in a memory-mapped BlockStore with an
//   LRU-pinned resident set bounded by a byte budget. In spill mode raw
//   pointers are only safe for *pinned* ranges: a search or tree
//   operation pins the rows it reads into one operation-scoped PinSet
//   (pin_rows) and reads them in place (row_data); callers without a pin
//   set copy through copy_row()/copy_row_bytes(), which fault
//   transparently under the store lock.
//
// Layout contract for the batched SIMD leaf scans (src/scoring/quantized):
//   * the buffer base is 32-byte aligned (heap: aligned new; spill: page
//     alignment);
//   * each slot row starts at slot * stride(); unpacked stride is
//     window_length() rounded up to kRowAlignment, packed stride is the
//     payload rounded up to kPackedRowAlignment (2) so short DNA windows
//     actually shrink 4x instead of re-padding to 8 bytes;
//   * a zeroed kGuardTail-byte tail follows the last row, so a 4-byte
//     gather at the final word of the final row stays in bounds;
//   * padding bytes — row padding up to stride() and unused high bits in
//     the last packed byte — are always zero. row_roundtrip_ok() checks
//     this per row for audits.
// StorageNode::audit() asserts the alignment half of this contract.
//
// kRowAlignment stays 8 for unpacked rows, not the 32-byte vector width:
// the batched kernels address rows through *indexed gathers*
// (slot * stride), which need rows not to straddle the buffer, not to
// start 32-byte aligned — and padding k=8 windows to 32 bytes would
// quadruple the resident set of the very scans this layout exists to
// speed up.
//
// Slots are append-only and stable; compaction (after rebalance evicts
// blocks) is a rebuild into a fresh arena.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <vector>

#include "src/common/error.h"
#include "src/sequence/sequence.h"
#include "src/vptree/block_store.h"

namespace mendel::vpt {

class WindowArena {
 public:
  static constexpr std::size_t kRowAlignment = 8;
  static constexpr std::size_t kPackedRowAlignment = 2;
  static constexpr std::size_t kBaseAlignment = 32;
  static constexpr std::size_t kGuardTail = 32;
  // Windows longer than this fall back to unpacked storage (decode scratch
  // buffers are bounded by it; cluster block lengths are tiny in practice).
  static constexpr std::size_t kMaxPackedWindow = 4096;
  // Bytes the vector kernels may read past a row's stride: they gather
  // 4-byte words, and the last word may start at the final row byte.
  static constexpr std::size_t kGatherOverread = 3;

  struct Config {
    // 0 = one byte per code; 2 or 4 = bit-packed rows (auto-widening).
    unsigned packed_bits = 0;
    // 0 = all-resident heap buffer; > 0 = mmap BlockStore with this
    // resident-byte budget. Falls back to heap storage where the platform
    // lacks mmap (BlockStore::supported()).
    std::size_t resident_budget = 0;
    std::size_t segment_bytes = BlockStore::kDefaultSegmentBytes;
  };

  struct Stats {
    std::size_t resident_bytes = 0;   // bytes of row storage currently in RAM
    std::size_t packed_bytes = 0;     // bytes of bit-packed rows (0 unpacked)
    std::size_t pinned_segments = 0;  // store segments pinned right now
    BlockStoreStats store;            // zeros in heap mode
  };

  WindowArena() = default;

  // Picks encoding and storage; must run before the first append.
  void configure(const Config& cfg) {
    require(count_ == 0, "WindowArena: configure on a non-empty arena");
    require(cfg.packed_bits == 0 || cfg.packed_bits == 2 || cfg.packed_bits == 4,
            "WindowArena: packed_bits must be 0, 2 or 4");
    packed_bits_ = cfg.packed_bits;
    buffer_.reset();
    capacity_ = 0;
    window_length_ = 0;
    stride_ = 0;
    row_bytes_ = 0;
    if (cfg.resident_budget > 0 && BlockStore::supported()) {
      store_ = std::make_unique<BlockStore>(cfg.resident_budget,
                                            cfg.segment_bytes);
    } else {
      store_.reset();
    }
  }

  // Window length is fixed by the first appended window; every later
  // append must match. 0 means "no windows yet".
  std::size_t window_length() const { return window_length_; }
  // Bytes between consecutive slot rows.
  std::size_t stride() const { return stride_; }
  // Meaningful payload bytes per row (<= stride(); the rest is zero pad).
  std::size_t row_bytes() const { return row_bytes_; }
  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  // 0 when rows are plain codes; 2 or 4 when bit-packed.
  unsigned packed_bits() const { return packed_bits_; }
  bool packed() const { return packed_bits_ != 0; }
  bool spilled() const { return store_ != nullptr; }

  // Appends a window and returns its slot index. Widens the packed
  // encoding first if any code does not fit the current width.
  std::uint32_t append(seq::CodeSpan window) {
    require(!window.empty(), "WindowArena: empty window");
    if (window_length_ == 0) {
      window_length_ = window.size();
      if (packed_bits_ != 0 && window_length_ > kMaxPackedWindow) {
        packed_bits_ = 0;
      }
      set_geometry();
    } else {
      require(window.size() == window_length_,
              "WindowArena: window length mismatch");
    }
    while (packed_bits_ != 0 && !fits(window)) widen();
    if (count_ == capacity_) grow();
    const auto slot = static_cast<std::uint32_t>(count_++);
    if (store_ != nullptr) {
      row_scratch_.assign(stride_, 0);
      encode_row(row_scratch_.data(), window);
      store_->write(static_cast<std::size_t>(slot) * stride_,
                    row_scratch_.data(), stride_);
    } else {
      encode_row(buffer_.get() + static_cast<std::size_t>(slot) * stride_,
                 window);
    }
    return slot;
  }

  // Snapshot-load fast path: appends a row from its serialized payload
  // (row_len bytes of `bits`-packed codes). When the encodings match the
  // bytes go in verbatim; otherwise the row is decoded and re-appended,
  // letting the arena widen or re-pack as configured.
  std::uint32_t append_row(const std::uint8_t* row, std::size_t row_len,
                           std::size_t window_len, unsigned bits) {
    require(window_len > 0 && row_len >= payload_bytes(window_len, bits),
            "WindowArena: short packed row");
    if (window_length_ != 0 && bits == packed_bits_ &&
        window_len == window_length_) {
      if (count_ == capacity_) grow();
      const auto slot = static_cast<std::uint32_t>(count_++);
      row_scratch_.assign(stride_, 0);
      std::memcpy(row_scratch_.data(), row, row_bytes_);
      if (store_ != nullptr) {
        store_->write(static_cast<std::size_t>(slot) * stride_,
                      row_scratch_.data(), stride_);
      } else {
        std::memcpy(buffer_.get() + static_cast<std::size_t>(slot) * stride_,
                    row_scratch_.data(), stride_);
      }
      return slot;
    }
    std::vector<seq::Code> decoded(window_len);
    decode_payload(row, decoded.data(), window_len, bits);
    return append({decoded.data(), decoded.size()});
  }

  // Decodes row `slot` into out[0 .. window_length()). Valid in every
  // mode and safe under concurrent searches (spill reads copy under the
  // store lock).
  void copy_row(std::uint32_t slot, seq::Code* out) const {
    const std::uint8_t* row = raw_row(slot);
    decode_payload(row, out, window_length_, packed_bits_);
  }

  // Copies the raw stored row — payload plus zero padding, stride() bytes
  // — for snapshots and round-trip audits.
  void copy_row_bytes(std::uint32_t slot, std::uint8_t* out) const {
    const std::uint8_t* row = raw_row(slot);
    std::memcpy(out, row, stride_);
  }

  // Buffer base for the batched kernels (slot row j = base() + j *
  // stride()); null while empty in heap mode. In spill mode only pinned
  // ranges may be dereferenced.
  const seq::Code* base() const {
    if (store_ != nullptr) return store_->data();
    return buffer_.get();
  }

  // An operation-scoped pin set over this arena's block store (a no-op set
  // in heap mode): one search or one tree-maintenance call pins through it
  // and reads rows with row_data() / copy_row(pins, ...).
  PinSet pin_set() const { return PinSet(store_.get()); }

  // Pins rows slots[0 .. count) — each with the gather kernels' overread —
  // as one access group of `pins`. Returns how many leading rows
  // row_data() may now read: all of them in heap mode; in spill mode as
  // many as fit the store budget, at least one when count > 0.
  std::size_t pin_rows(PinSet& pins, const std::uint32_t* slots,
                       std::size_t count) const {
    if (store_ == nullptr) return count;
    const std::size_t extent = stride_ + kGatherOverread;
    // Fast path: every row already lies in the set's held prefix (the
    // steady state once a search has touched an arena within its budget):
    // one compare per row, no bookkeeping.
    const std::size_t held = pins.held_prefix_bytes();
    if (held >= extent) {
      const std::size_t covered = (held - extent) / stride_ + 1;
      std::size_t j = 0;
      while (j < count && slots[j] < covered) ++j;
      if (j == count) return count;
    }
    pins.begin_group();
    std::size_t fit = 0;
    while (fit < count &&
           pins.add(static_cast<std::size_t>(slots[fit]) * stride_, extent)) {
      ++fit;
    }
    pins.commit();
    require(fit > 0 || count == 0, "WindowArena: row wider than pin budget");
    return fit;
  }

  // Stored bytes of row `slot` (stride() bytes). Heap mode: always valid.
  // Spill mode: valid only while the row is pinned (pin_rows).
  const std::uint8_t* row_data(std::uint32_t slot) const {
    return base() + static_cast<std::size_t>(slot) * stride_;
  }

  // Decodes a row row_data() may read (see there).
  void decode_pinned(std::uint32_t slot, seq::Code* out) const {
    decode_payload(row_data(slot), out, window_length_, packed_bits_);
  }

  // copy_row without the store lock: pins the row as one access group of
  // `pins`, then decodes it in place.
  void copy_row(PinSet& pins, std::uint32_t slot, seq::Code* out) const {
    pin_rows(pins, &slot, 1);
    decode_pinned(slot, out);
  }

  // True when row `slot` holds exactly `window`. Heap rows compare in
  // place; spilled rows are copied under the store lock.
  bool row_equals(std::uint32_t slot, seq::CodeSpan window) const {
    if (window.size() != window_length_) return false;
    if (store_ == nullptr && packed_bits_ == 0) {
      return std::memcmp(row_data(slot), window.data(), window.size()) == 0;
    }
    thread_local std::vector<seq::Code> codes;
    codes.resize(window_length_);
    copy_row(slot, codes.data());
    return std::memcmp(codes.data(), window.data(), window.size()) == 0;
  }

  // row_equals without the store lock: pins the row into `pins` and
  // compares it in place, packed rows code by code.
  bool row_equals(PinSet& pins, std::uint32_t slot,
                  seq::CodeSpan window) const {
    if (window.size() != window_length_) return false;
    pin_rows(pins, &slot, 1);
    const std::uint8_t* row = row_data(slot);
    if (packed_bits_ == 0) {
      return std::memcmp(row, window.data(), window.size()) == 0;
    }
    const unsigned mask = (1u << packed_bits_) - 1;
    for (std::size_t i = 0; i < window.size(); ++i) {
      const std::size_t bit = i * packed_bits_;
      if (((row[bit >> 3] >> (bit & 7)) & mask) != window[i]) return false;
    }
    return true;
  }

  // Layout-contract check for audits: base alignment and row padding
  // geometry (content-level padding is row_roundtrip_ok()).
  bool layout_ok() const {
    if (store_ == nullptr && buffer_ == nullptr) return count_ == 0;
    const bool aligned =
        reinterpret_cast<std::uintptr_t>(base()) % kBaseAlignment == 0;
    const std::size_t align =
        packed_bits_ != 0 ? kPackedRowAlignment : kRowAlignment;
    return aligned && stride_ % align == 0 && stride_ >= row_bytes_ &&
           row_bytes_ == payload_bytes(window_length_, packed_bits_);
  }

  // Content half of the layout contract: decoding the row and re-encoding
  // it reproduces the stored bytes exactly — catching stray high bits in
  // packed bytes and nonzero padding that would desynchronize packed
  // kernels from the scalar oracle.
  bool row_roundtrip_ok(std::uint32_t slot) const {
    if (slot >= count_) return false;
    std::vector<std::uint8_t> raw(stride_);
    copy_row_bytes(slot, raw.data());
    std::vector<seq::Code> codes(window_length_);
    decode_payload(raw.data(), codes.data(), window_length_, packed_bits_);
    std::vector<std::uint8_t> reenc(stride_, 0);
    encode_row(reenc.data(), {codes.data(), codes.size()});
    return std::memcmp(raw.data(), reenc.data(), stride_) == 0;
  }

  // Store residency invariants (always true in heap mode).
  bool store_audit(std::string* why) const {
    return store_ == nullptr || store_->audit(why);
  }

  Stats stats() const {
    Stats s;
    if (store_ != nullptr) {
      s.resident_bytes = store_->resident_bytes();
      s.store = store_->stats();
      s.pinned_segments = store_->pinned_segments();
    } else if (buffer_ != nullptr) {
      s.resident_bytes = capacity_ * stride_ + kGuardTail;
    }
    if (packed_bits_ != 0) s.packed_bytes = count_ * stride_;
    return s;
  }

  // Drops all windows; the geometry (window length, encoding, stride)
  // stays fixed so in-flight searches keep a consistent view across a
  // rebuild. Storage is retained — rebuilds refill to a similar size —
  // and re-zeroed so the padding/guard contract holds for the next epoch.
  void clear() {
    if (store_ != nullptr) {
      store_->reset();
    } else if (buffer_ != nullptr && count_ > 0) {
      std::memset(buffer_.get(), 0, capacity_ * stride_ + kGuardTail);
    }
    count_ = 0;
  }

  // Bytes a `bits`-packed row of `len` residues occupies before padding.
  static constexpr std::size_t payload_bytes(std::size_t len, unsigned bits) {
    return bits == 0 ? len : (len * bits + 7) / 8;
  }

  // Stateless row codec for snapshot tooling (src/verify) — the same
  // transform the arena applies internally. decode_row reads a serialized
  // payload row; encode_row_to writes one (zeroing payload_bytes first).
  static void decode_row(const std::uint8_t* src, seq::Code* out,
                         std::size_t len, unsigned bits) {
    decode_payload(src, out, len, bits);
  }
  static void encode_row_to(std::uint8_t* dst, seq::CodeSpan window,
                            unsigned bits) {
    if (bits == 0) {
      std::memcpy(dst, window.data(), window.size());
      return;
    }
    std::memset(dst, 0, payload_bytes(window.size(), bits));
    for (std::size_t i = 0; i < window.size(); ++i) {
      const std::size_t bit = i * bits;
      dst[bit >> 3] = static_cast<std::uint8_t>(
          dst[bit >> 3] | (window[i] << (bit & 7)));
    }
  }

 private:
  struct AlignedDelete {
    void operator()(std::uint8_t* p) const {
      ::operator delete[](p, std::align_val_t{kBaseAlignment});
    }
  };
  using Buffer = std::unique_ptr<std::uint8_t[], AlignedDelete>;

  static constexpr std::size_t round_up(std::size_t v, std::size_t align) {
    return (v + align - 1) / align * align;
  }

  void set_geometry() {
    row_bytes_ = payload_bytes(window_length_, packed_bits_);
    stride_ = round_up(row_bytes_,
                       packed_bits_ != 0 ? kPackedRowAlignment : kRowAlignment);
  }

  bool fits(seq::CodeSpan window) const {
    const seq::Code limit = static_cast<seq::Code>(1u << packed_bits_);
    for (const seq::Code c : window) {
      if (c >= limit) return false;
    }
    return true;
  }

  void encode_row(std::uint8_t* dst, seq::CodeSpan window) const {
    encode_row_to(dst, window, packed_bits_);
  }

  static void decode_payload(const std::uint8_t* src, seq::Code* out,
                             std::size_t len, unsigned bits) {
    if (bits == 0) {
      std::memcpy(out, src, len);
      return;
    }
    const std::uint8_t mask = static_cast<std::uint8_t>((1u << bits) - 1);
    for (std::size_t i = 0; i < len; ++i) {
      const std::size_t bit = i * bits;
      out[i] = static_cast<seq::Code>((src[bit >> 3] >> (bit & 7)) & mask);
    }
  }

  // Raw row pointer for copy-out. Heap mode: direct. Spill mode: copy
  // into the mutable scratch via the locked store read (the returned
  // pointer aliases thread-local scratch, so callers memcpy immediately).
  const std::uint8_t* raw_row(std::uint32_t slot) const {
    require(slot < count_, "WindowArena: slot out of range");
    if (store_ == nullptr) {
      return buffer_.get() + static_cast<std::size_t>(slot) * stride_;
    }
    thread_local std::vector<std::uint8_t> scratch;
    scratch.resize(stride_);
    store_->read(static_cast<std::size_t>(slot) * stride_, scratch.data(),
                 stride_);
    return scratch.data();
  }

  // Repacks every row one width up (2 -> 4 -> unpacked). Heap mode copies
  // into a fresh buffer; spill mode relocates rows back-to-front in place
  // (new offsets are >= old offsets, so unprocessed rows are never
  // clobbered).
  void widen() {
    const unsigned old_bits = packed_bits_;
    const std::size_t old_stride = stride_;
    packed_bits_ = old_bits == 2 ? 4 : 0;
    set_geometry();
    if (count_ == 0) {
      if (store_ == nullptr) {
        buffer_.reset();
        capacity_ = 0;
      } else {
        store_->ensure_capacity(capacity_ * stride_ + kGuardTail);
      }
      return;
    }
    std::vector<seq::Code> codes(window_length_);
    if (store_ == nullptr) {
      const std::size_t bytes = capacity_ * stride_ + kGuardTail;
      auto* raw = static_cast<std::uint8_t*>(
          ::operator new[](bytes, std::align_val_t{kBaseAlignment}));
      std::memset(raw, 0, bytes);
      for (std::size_t j = 0; j < count_; ++j) {
        decode_payload(buffer_.get() + j * old_stride, codes.data(),
                       window_length_, old_bits);
        encode_row(raw + j * stride_, {codes.data(), codes.size()});
      }
      buffer_.reset(raw);
    } else {
      store_->ensure_capacity(capacity_ * stride_ + kGuardTail);
      std::vector<std::uint8_t> row(stride_, 0);
      std::vector<std::uint8_t> old_row(old_stride);
      for (std::size_t j = count_; j-- > 0;) {
        store_->read(j * old_stride, old_row.data(), old_stride);
        decode_payload(old_row.data(), codes.data(), window_length_, old_bits);
        std::fill(row.begin(), row.end(), 0);
        encode_row(row.data(), {codes.data(), codes.size()});
        store_->write(j * stride_, row.data(), stride_);
      }
    }
  }

  // Geometric growth (slot indices are stable; heap addresses are not —
  // the tree only ever stores slots. Spill addresses *are* stable: growth
  // just extends the backing file).
  void grow() {
    const std::size_t next = capacity_ == 0 ? 1024 : capacity_ * 2;
    if (store_ != nullptr) {
      store_->ensure_capacity(next * stride_ + kGuardTail);
      capacity_ = next;
      return;
    }
    const std::size_t bytes = next * stride_ + kGuardTail;
    auto* raw = static_cast<std::uint8_t*>(
        ::operator new[](bytes, std::align_val_t{kBaseAlignment}));
    std::memset(raw, 0, bytes);
    if (count_ > 0) std::memcpy(raw, buffer_.get(), count_ * stride_);
    buffer_.reset(raw);
    capacity_ = next;
  }

  std::size_t window_length_ = 0;
  std::size_t stride_ = 0;
  std::size_t row_bytes_ = 0;
  std::size_t count_ = 0;
  std::size_t capacity_ = 0;
  unsigned packed_bits_ = 0;
  Buffer buffer_;
  std::unique_ptr<BlockStore> store_;
  std::vector<std::uint8_t> row_scratch_;
};

}  // namespace mendel::vpt
