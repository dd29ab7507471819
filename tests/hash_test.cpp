// Unit tests for src/hash: SHA-1 against RFC 3174 / FIPS test vectors and
// the consistent hash ring.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <utility>

#include "src/common/error.h"
#include "src/common/rng.h"
#include "src/hash/ring.h"
#include "src/hash/sha1.h"

namespace mendel::hashing {
namespace {

// ---------- SHA-1 ----------

TEST(Sha1, EmptyString) {
  EXPECT_EQ(to_hex(sha1("")), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
}

TEST(Sha1, Abc) {
  EXPECT_EQ(to_hex(sha1("abc")), "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha1, TwoBlockMessage) {
  EXPECT_EQ(
      to_hex(sha1("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
      "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(Sha1, MillionAs) {
  Sha1 hasher;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) hasher.update(chunk);
  EXPECT_EQ(to_hex(hasher.finish()),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1, QuickBrownFox) {
  EXPECT_EQ(to_hex(sha1("The quick brown fox jumps over the lazy dog")),
            "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12");
}

TEST(Sha1, IncrementalMatchesOneShot) {
  const std::string message =
      "Mendel fragments the sequence data and generates an inverted-index";
  Sha1 hasher;
  for (char c : message) hasher.update(std::string_view(&c, 1));
  EXPECT_EQ(to_hex(hasher.finish()), to_hex(sha1(message)));
}

TEST(Sha1, ResetAllowsReuse) {
  Sha1 hasher;
  hasher.update("garbage");
  hasher.reset();
  hasher.update("abc");
  EXPECT_EQ(to_hex(hasher.finish()),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha1, BoundaryLengths) {
  // Lengths around the 55/56/64-byte padding boundaries exercise the
  // finalization logic.
  for (std::size_t len : {55u, 56u, 57u, 63u, 64u, 65u, 119u, 128u}) {
    const std::string message(len, 'x');
    Sha1 a;
    a.update(message);
    Sha1 b;
    b.update(message.substr(0, len / 2));
    b.update(message.substr(len / 2));
    EXPECT_EQ(to_hex(a.finish()), to_hex(b.finish())) << "len=" << len;
  }
}

TEST(Sha1, KnownAnswersAtPaddingBoundaries) {
  // 'a' * len against reference digests. 55 is the longest message whose
  // padding fits its own block, 56..63 spill the length into a second
  // block, and 64/119/120 repeat the cases one block later.
  const std::pair<std::size_t, const char*> cases[] = {
      {0, "da39a3ee5e6b4b0d3255bfef95601890afd80709"},
      {55, "c1c8bbdc22796e28c0e15163d20899b65621d65a"},
      {56, "c2db330f6083854c99d4b5bfb6e8f29f201be699"},
      {63, "03f09f5b158a7a8cdad920bddc29b81c18a551f5"},
      {64, "0098ba824b5c16427bd7a1122a5a442a25ec644d"},
      {119, "ee971065aaa017e0632a8ca6c77bb3bf8b1dfc56"},
      {120, "f34c1488385346a55709ba056ddd08280dd4c6d6"},
  };
  for (const auto& [len, want] : cases) {
    EXPECT_EQ(to_hex(sha1(std::string(len, 'a'))), want) << "len=" << len;
  }
}

TEST(Sha1, Prefix64MatchesDigestPrefix) {
  const auto digest = sha1("abc");
  const auto prefix = sha1_prefix64("abc");
  std::uint64_t expected = 0;
  for (int i = 0; i < 8; ++i) {
    expected = (expected << 8) | digest[static_cast<std::size_t>(i)];
  }
  EXPECT_EQ(prefix, expected);
  EXPECT_EQ(prefix, 0xa9993e364706816aULL);
}

TEST(Sha1, Prefix64Uniformity) {
  // Crude uniformity check over the top 3 bits (8 octants).
  std::array<int, 8> counts{};
  for (int i = 0; i < 8000; ++i) {
    ++counts[sha1_prefix64("key" + std::to_string(i)) >> 61];
  }
  for (int c : counts) EXPECT_NEAR(c, 1000, 150);
}

// ---------- HashRing ----------

TEST(HashRing, OwnerIsDeterministic) {
  HashRing ring(32);
  ring.add_member(0, "a");
  ring.add_member(1, "b");
  ring.add_member(2, "c");
  for (int i = 0; i < 100; ++i) {
    const auto key = sha1_prefix64(std::string("k").append(std::to_string(i)));
    EXPECT_EQ(ring.owner(key), ring.owner(key));
  }
}

TEST(HashRing, EmptyRingThrows) {
  HashRing ring;
  EXPECT_THROW(ring.owner(1), InvalidArgument);
  EXPECT_THROW(ring.owners(1, 2), InvalidArgument);
}

TEST(HashRing, DuplicateMemberRejected) {
  HashRing ring;
  ring.add_member(0, "a");
  EXPECT_THROW(ring.add_member(0, "a2"), InvalidArgument);
}

TEST(HashRing, RemoveUnknownRejected) {
  HashRing ring;
  EXPECT_THROW(ring.remove_member(3), InvalidArgument);
}

TEST(HashRing, BalanceAcrossMembers) {
  HashRing ring(128);
  const int members = 5;
  for (std::uint32_t m = 0; m < members; ++m) {
    ring.add_member(m, "node" + std::to_string(m));
  }
  std::map<std::uint32_t, int> counts;
  const int keys = 50000;
  for (int i = 0; i < keys; ++i) {
    ++counts[ring.owner(sha1_prefix64("key" + std::to_string(i)))];
  }
  for (const auto& [member, count] : counts) {
    // Within 25% of the fair share with 128 vnodes.
    EXPECT_NEAR(count, keys / members, keys / members * 0.25)
        << "member " << member;
  }
  EXPECT_EQ(counts.size(), static_cast<std::size_t>(members));
}

TEST(HashRing, OwnersReturnsDistinctMembers) {
  HashRing ring(64);
  for (std::uint32_t m = 0; m < 4; ++m) {
    ring.add_member(m, std::string("n").append(std::to_string(m)));
  }
  for (int i = 0; i < 50; ++i) {
    const auto owners = ring.owners(sha1_prefix64(std::to_string(i)), 3);
    ASSERT_EQ(owners.size(), 3u);
    std::set<std::uint32_t> unique(owners.begin(), owners.end());
    EXPECT_EQ(unique.size(), 3u);
    EXPECT_EQ(owners[0], ring.owner(sha1_prefix64(std::to_string(i))));
  }
}

TEST(HashRing, OwnersClampedToMemberCount) {
  HashRing ring(16);
  ring.add_member(0, "only");
  const auto owners = ring.owners(123, 5);
  EXPECT_EQ(owners.size(), 1u);
}

TEST(HashRing, RemovalMovesOnlyAFractionOfKeys) {
  HashRing ring(128);
  for (std::uint32_t m = 0; m < 10; ++m) {
    ring.add_member(m, "node" + std::to_string(m));
  }
  std::map<int, std::uint32_t> before;
  for (int i = 0; i < 5000; ++i) {
    before[i] =
        ring.owner(sha1_prefix64(std::string("k").append(std::to_string(i))));
  }
  ring.remove_member(3);
  int moved = 0;
  for (int i = 0; i < 5000; ++i) {
    const auto now =
        ring.owner(sha1_prefix64(std::string("k").append(std::to_string(i))));
    if (now != before[i]) {
      ++moved;
      // Keys only move *off* the removed member, never between survivors.
      EXPECT_EQ(before[i], 3u);
    }
  }
  // ~1/10 of keys lived on the removed node.
  EXPECT_NEAR(moved, 500, 200);
}

}  // namespace
}  // namespace mendel::hashing
