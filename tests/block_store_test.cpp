// Unit tests for the mmap-backed BlockStore: residency accounting, LRU
// eviction losslessness, pinning, budget floors, the audit invariants the
// storage-node audits build on, and operation-scoped pin sets.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/common/error.h"
#include "src/common/rng.h"
#include "src/vptree/block_store.h"
#include "src/vptree/window_arena.h"

namespace mendel {
namespace {

using vpt::BlockStore;
using vpt::PinSet;
using vpt::WindowArena;

// All tests run with 1-page segments so a few KB exercises many segments.
constexpr std::size_t kSeg = 4096;

std::vector<std::uint8_t> pattern(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> bytes(n);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.below(256));
  return bytes;
}

TEST(BlockStore, WriteReadRoundTripAcrossSegments) {
  if (!BlockStore::supported()) GTEST_SKIP() << "no mmap on this host";
  BlockStore store(4 * kSeg, kSeg);
  const std::size_t bytes = 20 * kSeg + 123;
  store.ensure_capacity(bytes);
  const auto data = pattern(bytes, 0xB10C0001);
  // Unaligned chunked writes crossing segment boundaries.
  for (std::size_t off = 0; off < bytes;) {
    const std::size_t n = std::min<std::size_t>(bytes - off, 700);
    store.write(off, data.data() + off, n);
    off += n;
  }
  std::vector<std::uint8_t> back(bytes);
  store.read(0, back.data(), bytes);
  EXPECT_EQ(back, data);
  std::string why;
  EXPECT_TRUE(store.audit(&why)) << why;
}

TEST(BlockStore, EvictionIsLosslessAndRespectsBudget) {
  if (!BlockStore::supported()) GTEST_SKIP() << "no mmap on this host";
  // Budget smaller than the data: the store must evict (write-back) and
  // re-fault without losing a byte. The budget floor is
  // kMinResidentSegments whole segments.
  BlockStore store(kSeg, kSeg);
  EXPECT_EQ(store.budget_bytes(), BlockStore::kMinResidentSegments * kSeg);
  const std::size_t segments = 64;
  store.ensure_capacity(segments * kSeg);
  const auto data = pattern(segments * kSeg, 0xB10C0002);
  store.write(0, data.data(), data.size());

  const auto mid = store.stats();
  EXPECT_GT(mid.evictions, 0u);
  EXPECT_LE(store.resident_bytes(), store.budget_bytes());

  std::vector<std::uint8_t> back(data.size());
  store.read(0, back.data(), back.size());
  EXPECT_EQ(back, data);

  const auto after = store.stats();
  EXPECT_GT(after.misses, 0u);   // evicted segments had to come back
  EXPECT_GT(after.faults, mid.faults);
  std::string why;
  EXPECT_TRUE(store.audit(&why)) << why;
}

TEST(BlockStore, PinnedSegmentsSurviveEvictionPressure) {
  if (!BlockStore::supported()) GTEST_SKIP() << "no mmap on this host";
  BlockStore store(kSeg, kSeg);
  const std::size_t segments = 48;
  store.ensure_capacity(segments * kSeg);
  const auto data = pattern(segments * kSeg, 0xB10C0003);
  store.write(0, data.data(), data.size());

  // Pin the first two segments, then sweep the rest to force eviction
  // pressure; the pinned bytes must stay readable through data() the
  // whole time (the kernels' access pattern).
  store.pin_segment(0);
  store.pin_segment(1);
  for (std::size_t s = 2; s < segments; ++s) {
    std::uint8_t byte = 0;
    store.read(s * kSeg, &byte, 1);
  }
  EXPECT_EQ(std::memcmp(store.data(), data.data(), 2 * kSeg), 0);
  std::string why;
  EXPECT_TRUE(store.audit(&why)) << why;
  store.unpin_segment(0);
  store.unpin_segment(1);
  EXPECT_TRUE(store.audit(&why)) << why;
}

TEST(BlockStore, PinsNestAndKeepResidencyOverBudgetLegal) {
  if (!BlockStore::supported()) GTEST_SKIP() << "no mmap on this host";
  BlockStore store(kSeg, kSeg);
  const std::size_t segments = BlockStore::kMinResidentSegments + 4;
  store.ensure_capacity(segments * kSeg);
  // Pin everything (nested twice): residency exceeds the budget, which
  // the audit allows exactly because the excess is pinned.
  for (std::size_t s = 0; s < segments; ++s) {
    store.pin_segment(s);
    store.pin_segment(s);
  }
  EXPECT_EQ(store.resident_bytes(), segments * kSeg);
  std::string why;
  EXPECT_TRUE(store.audit(&why)) << why;
  for (std::size_t s = 0; s < segments; ++s) store.unpin_segment(s);
  // Still fully pinned once: nothing may be evicted yet.
  std::uint8_t byte = 0;
  store.read((segments - 1) * kSeg, &byte, 1);
  EXPECT_EQ(store.resident_bytes(), segments * kSeg);
  for (std::size_t s = 0; s < segments; ++s) store.unpin_segment(s);
  EXPECT_TRUE(store.audit(&why)) << why;
}

TEST(BlockStore, ResetZeroesContentsAndRefusesWhilePinned) {
  if (!BlockStore::supported()) GTEST_SKIP() << "no mmap on this host";
  BlockStore store(4 * kSeg, kSeg);
  store.ensure_capacity(4 * kSeg);
  const auto data = pattern(4 * kSeg, 0xB10C0004);
  store.write(0, data.data(), data.size());

  store.pin_segment(0);
  EXPECT_THROW(store.reset(), Error);
  store.unpin_segment(0);

  store.reset();
  EXPECT_EQ(store.capacity(), 4 * kSeg);
  std::vector<std::uint8_t> back(4 * kSeg, 0xFF);
  store.read(0, back.data(), back.size());
  EXPECT_TRUE(std::all_of(back.begin(), back.end(),
                          [](std::uint8_t b) { return b == 0; }));
}

TEST(BlockStore, DataPointerIsStableAcrossGrowth) {
  if (!BlockStore::supported()) GTEST_SKIP() << "no mmap on this host";
  BlockStore store(2 * kSeg, kSeg);
  store.ensure_capacity(kSeg);
  const std::uint8_t* base = store.data();
  const auto data = pattern(kSeg, 0xB10C0005);
  store.write(0, data.data(), data.size());
  for (int round = 1; round <= 6; ++round) {
    store.ensure_capacity((1u << round) * kSeg);
    EXPECT_EQ(store.data(), base) << "reservation moved on growth";
  }
  std::vector<std::uint8_t> back(kSeg);
  store.read(0, back.data(), back.size());
  EXPECT_EQ(back, data);
}

// ---------- PinSet ----------

// Every segment of the store is unpinned and the residency audit holds.
void expect_unpinned(const BlockStore& store) {
  for (std::size_t s = 0; s < store.segment_count(); ++s) {
    ASSERT_EQ(store.pin_count(s), 0u) << "segment " << s;
  }
  EXPECT_EQ(store.pinned_segments(), 0u);
  std::string why;
  EXPECT_TRUE(store.audit(&why)) << why;
}

TEST(PinSet, PinsEachSegmentOnceAcrossGroups) {
  if (!BlockStore::supported()) GTEST_SKIP() << "no mmap on this host";
  BlockStore store(16 * kSeg, kSeg);
  store.ensure_capacity(16 * kSeg);
  {
    PinSet pins(&store);
    // Many groups re-reading the same three segments: each is pinned, and
    // asked of the store, exactly once.
    for (int round = 0; round < 50; ++round) {
      pins.begin_group();
      ASSERT_TRUE(pins.add(3 * kSeg + 10, 20));
      ASSERT_TRUE(pins.add(5 * kSeg - 2, 4));  // straddles segments 4 and 5
      pins.commit();
    }
    EXPECT_EQ(pins.size(), 3u);
    for (std::size_t s = 0; s < 16; ++s) {
      const bool touched = s == 3 || s == 4 || s == 5;
      EXPECT_EQ(store.pin_count(s), touched ? 1u : 0u) << "segment " << s;
    }
    const auto stats = store.stats();
    EXPECT_EQ(stats.hits + stats.misses, 3u);
  }
  expect_unpinned(store);
}

// A spilled arena far larger than its budget, and its heap twin.
struct ArenaPair {
  WindowArena spilled;
  WindowArena plain;
  std::size_t rows = 0;

  ArenaPair(unsigned bits, std::size_t len, std::size_t rows_)
      : rows(rows_) {
    WindowArena::Config cfg;
    cfg.packed_bits = bits;
    cfg.segment_bytes = kSeg;
    cfg.resident_budget = 1;  // clamps to the kMinResidentSegments floor
    spilled.configure(cfg);
    plain.configure({bits, 0, kSeg});
    Rng rng(0x9175E7 + bits);
    std::vector<seq::Code> w(len);
    for (std::size_t i = 0; i < rows; ++i) {
      for (auto& c : w) c = static_cast<seq::Code>(rng.below(4));
      spilled.append({w.data(), w.size()});
      plain.append({w.data(), w.size()});
    }
  }
};

TEST(PinSet, ReadsTheSameBytesAsCopyRow) {
  if (!BlockStore::supported()) GTEST_SKIP() << "no mmap on this host";
  for (const unsigned bits : {0u, 2u}) {
    ArenaPair arenas(bits, 12, 30000);
    ASSERT_TRUE(arenas.spilled.spilled());
    const std::size_t len = arenas.spilled.window_length();
    std::vector<seq::Code> pinned(len), locked(len), heap(len);
    std::vector<std::uint8_t> raw(arenas.spilled.stride());
    Rng rng(0xC0E7 + bits);
    auto pins = arenas.spilled.pin_set();
    for (int i = 0; i < 2000; ++i) {
      const auto slot = static_cast<std::uint32_t>(rng.below(arenas.rows));
      arenas.spilled.copy_row(pins, slot, pinned.data());
      arenas.spilled.copy_row(slot, locked.data());
      arenas.plain.copy_row(slot, heap.data());
      ASSERT_EQ(pinned, locked) << "bits " << bits << " slot " << slot;
      ASSERT_EQ(pinned, heap) << "bits " << bits << " slot " << slot;
      arenas.spilled.copy_row_bytes(slot, raw.data());
      ASSERT_EQ(std::memcmp(arenas.spilled.row_data(slot), raw.data(),
                            raw.size()),
                0)
          << "bits " << bits << " slot " << slot;
    }
  }
}

TEST(PinSet, NeverHoldsMoreSegmentsThanTheBudget) {
  if (!BlockStore::supported()) GTEST_SKIP() << "no mmap on this host";
  ArenaPair arenas(0, 16, 20000);  // ~320 KB of rows, 32 KB budget
  const auto& arena = arenas.spilled;
  auto pins = arena.pin_set();
  ASSERT_EQ(pins.capacity(), BlockStore::kMinResidentSegments);
  Rng rng(0xB0D6E7);
  std::vector<std::uint32_t> slots(64);
  for (int chunk = 0; chunk < 300; ++chunk) {
    for (auto& slot : slots) {
      slot = static_cast<std::uint32_t>(rng.below(arenas.rows));
    }
    for (std::size_t off = 0; off < slots.size();) {
      const std::size_t run =
          arena.pin_rows(pins, slots.data() + off, slots.size() - off);
      ASSERT_GT(run, 0u);
      ASSERT_LE(pins.size(), pins.capacity());
      ASSERT_EQ(arena.stats().pinned_segments, pins.size());
      // Every row the set reported readable is pinned and intact.
      for (std::size_t j = 0; j < run; ++j) {
        const std::uint32_t slot = slots[off + j];
        ASSERT_EQ(std::memcmp(arena.row_data(slot),
                              arenas.plain.row_data(slot), arena.stride()),
                  0)
            << "slot " << slot;
      }
      off += run;
    }
  }
  EXPECT_GT(arena.stats().store.evictions, 0u) << "budget never bit";
  pins.release();
  EXPECT_EQ(arena.stats().pinned_segments, 0u);
}

// Concurrent searches each own a pin set over one store: every thread reads
// its pinned rows without the store lock while the others pin, evict and
// re-fault around it (the pool fan-out of on_node_search; run under TSan).
TEST(PinSet, ConcurrentSetsReadIntactRowsUnderEviction) {
  if (!BlockStore::supported()) GTEST_SKIP() << "no mmap on this host";
  ArenaPair arenas(2, 12, 60000);  // ~240 KB packed, 32 KB budget
  const auto& arena = arenas.spilled;
  std::vector<std::thread> threads;
  std::vector<int> mismatches(4, 0);
  for (std::size_t t = 0; t < mismatches.size(); ++t) {
    threads.emplace_back([&arenas, &arena, &mismatches, t] {
      Rng rng(0xC0C0 + t);
      std::vector<std::uint32_t> slots(64);
      auto pins = arena.pin_set();
      for (int chunk = 0; chunk < 400; ++chunk) {
        for (auto& slot : slots) {
          slot = static_cast<std::uint32_t>(rng.below(arenas.rows));
        }
        for (std::size_t off = 0; off < slots.size();) {
          const std::size_t run =
              arena.pin_rows(pins, slots.data() + off, slots.size() - off);
          for (std::size_t j = 0; j < run; ++j) {
            const std::uint32_t slot = slots[off + j];
            mismatches[t] += std::memcmp(arena.row_data(slot),
                                         arenas.plain.row_data(slot),
                                         arena.stride()) != 0;
          }
          off += run;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (std::size_t t = 0; t < mismatches.size(); ++t) {
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
  }
  EXPECT_GT(arena.stats().store.evictions, 0u);
  EXPECT_EQ(arena.stats().pinned_segments, 0u);
  std::string why;
  EXPECT_TRUE(arena.store_audit(&why)) << why;
}

TEST(PinSet, EndingOrThrowingOperationUnpinsEverything) {
  if (!BlockStore::supported()) GTEST_SKIP() << "no mmap on this host";
  BlockStore store(kSeg, kSeg);
  const std::size_t segments = 40;
  store.ensure_capacity(segments * kSeg);
  auto touch_all = [&store, segments](PinSet& pins) {
    for (std::size_t s = 0; s < segments; ++s) {
      pins.begin_group();
      ASSERT_TRUE(pins.add(s * kSeg, 1));
      pins.commit();
      EXPECT_LE(pins.size(), pins.capacity());
      EXPECT_GT(store.pin_count(s), 0u);
    }
  };
  {
    PinSet pins(&store);
    touch_all(pins);
    EXPECT_EQ(store.pinned_segments(), pins.size());
  }
  expect_unpinned(store);

  // An operation that unwinds mid-way drops its pins the same way.
  EXPECT_THROW(
      {
        PinSet pins(&store);
        touch_all(pins);
        throw std::runtime_error("operation failed");
      },
      std::runtime_error);
  expect_unpinned(store);

  // A group wider than the budget is refused whole, never half-pinned.
  {
    PinSet pins(&store);
    pins.begin_group();
    EXPECT_TRUE(pins.add(0, BlockStore::kMinResidentSegments * kSeg));
    EXPECT_FALSE(pins.add(BlockStore::kMinResidentSegments * kSeg, 1));
    pins.commit();
    EXPECT_EQ(pins.size(), BlockStore::kMinResidentSegments);
  }
  expect_unpinned(store);
}

TEST(PinSet, NullStoreIsANoOp) {
  PinSet pins(nullptr);
  pins.begin_group();
  EXPECT_TRUE(pins.add(0, 1 << 20));
  pins.commit();
  EXPECT_EQ(pins.size(), 0u);
}

}  // namespace
}  // namespace mendel
