// Distinct-window bookkeeping for a node-local vp-tree.
//
// Small-alphabet workloads repeat windows heavily: DNA at k = 8 has only
// 4^8 = 65,536 possible windows, so a shard of 200k stride-1 blocks holds a
// few tens of thousands of distinct ones. A storage node therefore indexes
// each distinct window once — one arena row, one vp-tree item — and keeps
// the other blocks that share it beside the tree. Two structures do that:
//
//   WindowIndex    window codes -> arena slot, so admission finds a
//                  window's row before appending a duplicate (and a
//                  Hamming-metric search finds a probe's neighbours by
//                  looking up its mismatch variants);
//   PostingLists   slot -> the window's blocks beyond its first (the tree
//                  item), one contiguous run per repeated window, kept in
//                  ascending tie order so an n-NN heap can stop offering
//                  a run at its first rejected posting.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <utility>
#include <vector>

#include "src/sequence/sequence.h"
#include "src/vptree/window_arena.h"

namespace mendel::vpt {

// Open-addressing map from window codes to the arena slot holding them.
// Each 8-byte entry stores the slot and a 32-bit tag of the window hash;
// only a tag match reads the arena row to confirm. The table keeps no
// copy of the windows — the arena is the one store of their codes.
class WindowIndex {
 public:
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  // The slot of `window` in `arena`, adding it through `append()` (which
  // must append `window` to the arena and return its slot) when absent.
  // Returns {slot, true} when the window was new.
  template <typename Append>
  std::pair<std::uint32_t, bool> find_or_add(seq::CodeSpan window,
                                             const WindowArena& arena,
                                             Append&& append) {
    if ((size_ + 1) * 4 > entries_.size() * 3) grow();
    const std::uint32_t tag = tag_of(window);
    const std::size_t mask = entries_.size() - 1;
    std::size_t i = tag & mask;
    for (; entries_[i].slot != kNoSlot; i = (i + 1) & mask) {
      if (entries_[i].tag == tag &&
          arena.row_equals(entries_[i].slot, window)) {
        return {entries_[i].slot, false};
      }
    }
    const std::uint32_t slot = append();
    entries_[i] = {slot, tag};
    ++size_;
    return {slot, true};
  }

  // Starts loading the entry where a lookup of `window` begins, so a batch
  // can overlap the cache miss with earlier admissions.
  void prefetch(seq::CodeSpan window) const {
    if (entries_.empty()) return;
    __builtin_prefetch(&entries_[tag_of(window) & (entries_.size() - 1)]);
  }

  // The slot of `window`, or kNoSlot.
  std::uint32_t find(seq::CodeSpan window, const WindowArena& arena) const {
    return find_if(window, [&](std::uint32_t slot) {
      return arena.row_equals(slot, window);
    });
  }

  // find() inside a search: tag matches are confirmed through the search's
  // pin set, so spilled rows are read in place instead of copied under the
  // store lock.
  std::uint32_t find(seq::CodeSpan window, const WindowArena& arena,
                     PinSet& pins) const {
    return find_if(window, [&](std::uint32_t slot) {
      return arena.row_equals(pins, slot, window);
    });
  }

  std::size_t size() const { return size_; }

  void clear() {
    std::fill(entries_.begin(), entries_.end(), Entry{});
    size_ = 0;
  }

 private:
  struct Entry {
    std::uint32_t slot = kNoSlot;
    std::uint32_t tag = 0;
  };

  // 64-bit multiply-mix over 8-byte words (one word for the usual k = 8),
  // folded to 32 bits; the low bits pick the home entry, so growth rehashes
  // from the stored tags without touching the arena.
  static std::uint32_t tag_of(seq::CodeSpan window) {
    std::uint64_t h = 0x9e3779b97f4a7c15ULL ^ window.size();
    auto mix = [&h](std::uint64_t word) {
      h ^= word;
      h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
      h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
      h ^= h >> 31;
    };
    const std::size_t n = window.size();
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
      std::uint64_t word = 0;
      std::memcpy(&word, window.data() + i, 8);
      mix(word);
    }
    if (i < n) {
      std::uint64_t word = 0;
      for (std::size_t j = i; j < n; ++j) {
        word |= static_cast<std::uint64_t>(window[j]) << (8 * (j - i));
      }
      mix(word);
    }
    return static_cast<std::uint32_t>(h ^ (h >> 32));
  }

  // The slot of the entry whose tag matches `window`'s and whose row
  // `same(slot)` confirms, or kNoSlot.
  template <typename Same>
  std::uint32_t find_if(seq::CodeSpan window, Same&& same) const {
    if (entries_.empty()) return kNoSlot;
    const std::uint32_t tag = tag_of(window);
    const std::size_t mask = entries_.size() - 1;
    for (std::size_t i = tag & mask; entries_[i].slot != kNoSlot;
         i = (i + 1) & mask) {
      if (entries_[i].tag == tag && same(entries_[i].slot)) {
        return entries_[i].slot;
      }
    }
    return kNoSlot;
  }

  void grow() {
    std::vector<Entry> old(entries_.empty() ? 64 : entries_.size() * 2);
    old.swap(entries_);
    const std::size_t mask = entries_.size() - 1;
    for (const Entry& e : old) {
      if (e.slot == kNoSlot) continue;
      std::size_t i = e.tag & mask;
      while (entries_[i].slot != kNoSlot) i = (i + 1) & mask;
      entries_[i] = e;
    }
  }

  std::vector<Entry> entries_;
  std::size_t size_ = 0;
};

// The postings of repeated windows, keyed by arena slot: every block of a
// window except the tree item that stands for it. All runs share one pool;
// a run that fills moves to the pool's end at twice its capacity (or grows
// in place when it already ends the pool), and the pool compacts when the
// holes those moves leave outweigh the live runs. Each run stays sorted
// under `Before` (the n-NN tie order).
template <typename T, typename Before>
class PostingLists {
 public:
  // Postings of `slot` beyond its tree item, ascending; empty when the
  // window is stored once.
  std::span<const T> extras(std::uint32_t slot) const {
    if (slot >= run_of_.size() || run_of_[slot] == kNoRun) return {};
    const Run& run = runs_[run_of_[slot]];
    return {pool_.data() + run.offset, run.size};
  }

  // Adds one posting to `slot`'s run, keeping it sorted.
  void add(std::uint32_t slot, const T& posting) {
    if (slot >= run_of_.size()) run_of_.resize(slot + 1, kNoRun);
    if (run_of_[slot] == kNoRun) {
      run_of_[slot] = static_cast<std::uint32_t>(runs_.size());
      runs_.push_back({static_cast<std::uint32_t>(pool_.size()), 0,
                       kFirstCapacity});
      pool_.resize(pool_.size() + kFirstCapacity);
    }
    Run& run = runs_[run_of_[slot]];
    if (run.size == run.capacity) widen(run);
    T* items = pool_.data() + run.offset;
    std::uint32_t at = run.size;
    for (; at > 0 && Before{}(posting, items[at - 1]); --at) {
      items[at] = items[at - 1];
    }
    items[at] = posting;
    ++run.size;
    ++count_;
  }

  // Postings held across all runs.
  std::size_t size() const { return count_; }

  template <typename Fn>
  void for_each_run(Fn&& fn) const {
    for (std::uint32_t slot = 0; slot < run_of_.size(); ++slot) {
      if (run_of_[slot] != kNoRun) fn(slot, extras(slot));
    }
  }

  void clear() {
    run_of_.clear();
    runs_.clear();
    pool_.clear();
    holes_ = 0;
    count_ = 0;
  }

 private:
  static constexpr std::uint32_t kNoRun = 0xffffffffu;
  static constexpr std::uint32_t kFirstCapacity = 2;

  struct Run {
    std::uint32_t offset = 0;
    std::uint32_t size = 0;
    std::uint32_t capacity = 0;
  };

  void widen(Run& run) {
    const std::uint32_t grown = run.capacity * 2;
    if (run.offset + run.capacity == pool_.size()) {
      pool_.resize(pool_.size() + (grown - run.capacity));
    } else {
      const auto offset = static_cast<std::uint32_t>(pool_.size());
      pool_.resize(pool_.size() + grown);
      std::copy_n(pool_.begin() + run.offset, run.size,
                  pool_.begin() + offset);
      holes_ += run.capacity;
      run.offset = offset;
    }
    run.capacity = grown;
    if (holes_ * 2 > pool_.size()) compact();
  }

  // Re-packs every run back to back at its current capacity.
  void compact() {
    std::vector<T> packed;
    packed.reserve(pool_.size() - holes_);
    for (Run& run : runs_) {
      const auto offset = static_cast<std::uint32_t>(packed.size());
      packed.insert(packed.end(), pool_.begin() + run.offset,
                    pool_.begin() + run.offset + run.capacity);
      run.offset = offset;
    }
    pool_ = std::move(packed);
    holes_ = 0;
  }

  std::vector<std::uint32_t> run_of_;  // per arena slot; kNoRun = no extras
  std::vector<Run> runs_;
  std::vector<T> pool_;
  std::size_t holes_ = 0;  // pool entries no run owns
  std::size_t count_ = 0;
};

}  // namespace mendel::vpt
