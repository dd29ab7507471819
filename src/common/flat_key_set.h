// Open-addressing set of 64-bit keys.
//
// One flat array of keys with linear probing: 8 bytes per slot at a load
// factor kept between 3/8 and 3/4, against the 40-48 bytes per key of a
// node-based std::unordered_set. Storage nodes keep one key per stored
// block, so at millions of blocks this is the difference that shows in
// resident memory. There is no erase — callers that drop keys rebuild with
// clear() — so probing needs no tombstones.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace mendel {

class FlatKeySet {
 public:
  // True when `key` was not yet present.
  bool insert(std::uint64_t key) {
    if (key == kEmpty) {
      if (has_empty_key_) return false;
      has_empty_key_ = true;
      ++size_;
      return true;
    }
    if ((size_ + 1) * 4 > slots_.size() * 3) grow();
    std::uint64_t& slot = find_slot(key);
    if (slot == key) return false;
    slot = key;
    ++size_;
    return true;
  }

  bool contains(std::uint64_t key) const {
    if (key == kEmpty) return has_empty_key_;
    if (slots_.empty()) return false;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = mix(key) & mask;; i = (i + 1) & mask) {
      if (slots_[i] == key) return true;
      if (slots_[i] == kEmpty) return false;
    }
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  // Drops every key; the table keeps its capacity for the refill.
  void clear() {
    std::fill(slots_.begin(), slots_.end(), kEmpty);
    has_empty_key_ = false;
    size_ = 0;
  }

 private:
  // Marks a free slot; the key with this value is tracked out of band.
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

  // SplitMix64 finalizer: (sequence << 32 | start) keys differ mostly in
  // their low bits, which the mask alone would cluster.
  static std::size_t mix(std::uint64_t z) {
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<std::size_t>(z ^ (z >> 31));
  }

  // The slot holding `key`, or the free slot where it belongs.
  std::uint64_t& find_slot(std::uint64_t key) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = mix(key) & mask;
    while (slots_[i] != key && slots_[i] != kEmpty) i = (i + 1) & mask;
    return slots_[i];
  }

  void grow() {
    std::vector<std::uint64_t> old(slots_.empty() ? 16 : slots_.size() * 2,
                                   kEmpty);
    old.swap(slots_);
    for (const std::uint64_t key : old) {
      if (key != kEmpty) find_slot(key) = key;
    }
  }

  std::vector<std::uint64_t> slots_;  // power-of-two length
  std::size_t size_ = 0;
  bool has_empty_key_ = false;
};

}  // namespace mendel
