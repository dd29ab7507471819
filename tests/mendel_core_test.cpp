// Unit tests for src/mendel building blocks: inverted-index blocks, query
// parameters, protocol payload codecs, and anchor merging.
#include <gtest/gtest.h>

#include "src/common/error.h"
#include "src/mendel/anchors.h"
#include "src/mendel/block.h"
#include "src/mendel/params.h"
#include "src/mendel/protocol.h"

namespace mendel::core {
namespace {

using seq::Alphabet;

// ---------- blocks ----------

TEST(Block, MakeBlocksSlidingWindowStrideOne) {
  auto s = seq::Sequence::from_string(Alphabet::kProtein, "s", "MKVLAWHHRR");
  s.set_id(3);
  const auto blocks = make_blocks(s, 8);
  ASSERT_EQ(blocks.size(), 3u);  // 10 - 8 + 1
  EXPECT_EQ(blocks[0].sequence, 3u);
  EXPECT_EQ(blocks[0].start, 0u);
  EXPECT_EQ(blocks[1].start, 1u);
  EXPECT_EQ(blocks[2].end(), 10u);
  EXPECT_EQ(seq::to_string(Alphabet::kProtein, blocks[1].window),
            "KVLAWHHR");
}

TEST(Block, ShortSequenceYieldsNoBlocks) {
  const auto s = seq::Sequence::from_string(Alphabet::kProtein, "s", "MKV");
  EXPECT_TRUE(make_blocks(s, 8).empty());
}

TEST(Block, EncodeDecodeRoundTrip) {
  Block block;
  block.sequence = 42;
  block.start = 1000;
  block.window = {1, 2, 3, 4, 5, 6, 7, 8};
  CodecWriter w;
  block.encode(w);
  CodecReader r(w.data());
  EXPECT_EQ(Block::decode(r), block);
}

TEST(Block, PlacementKeyDependsOnIdentityAndPayload) {
  Block a;
  a.sequence = 1;
  a.start = 5;
  a.window = {1, 2, 3, 4};
  Block b = a;
  EXPECT_EQ(block_placement_key(a), block_placement_key(b));
  b.start = 6;
  EXPECT_NE(block_placement_key(a), block_placement_key(b));
  b = a;
  b.window[0] = 9;
  EXPECT_NE(block_placement_key(a), block_placement_key(b));
}

TEST(Block, PlacementKeyMatchesReferenceDigests) {
  // First 8 SHA-1 bytes, big-endian, of the little-endian (sequence,
  // start) u32 pair followed by the window codes. Placement and snapshots
  // depend on these exact values.
  EXPECT_EQ(block_placement_key(7, 42, std::vector<seq::Code>{0, 1, 2, 3, 4,
                                                              5, 6, 7}),
            0x38064382a9975b8aULL);
  EXPECT_EQ(block_placement_key(
                0xdeadbeefu, 0x01020304u,
                std::vector<seq::Code>{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8}),
            0x05210081e91cc9c6ULL);
}

TEST(Block, SequencePlacementKeyStable) {
  EXPECT_EQ(sequence_placement_key(7), sequence_placement_key(7));
  EXPECT_NE(sequence_placement_key(7), sequence_placement_key(8));
}

// ---------- params ----------

TEST(QueryParams, EncodeDecodeRoundTrip) {
  QueryParams p;
  p.k = 5;
  p.n = 9;
  p.identity = 0.42;
  p.c_score = 0.66;
  p.matrix = "PAM250";
  p.gapped_trigger = 2.5;
  p.band = 24;
  p.evalue = 0.001;
  p.branch_epsilon = 7.5;
  p.x_drop = 21;
  p.extension_margin = 99;
  p.max_hits = 17;
  CodecWriter w;
  p.encode(w);
  CodecReader r(w.data());
  const auto q = QueryParams::decode(r);
  EXPECT_EQ(q.k, p.k);
  EXPECT_EQ(q.n, p.n);
  EXPECT_DOUBLE_EQ(q.identity, p.identity);
  EXPECT_DOUBLE_EQ(q.c_score, p.c_score);
  EXPECT_EQ(q.matrix, p.matrix);
  EXPECT_DOUBLE_EQ(q.gapped_trigger, p.gapped_trigger);
  EXPECT_EQ(q.band, p.band);
  EXPECT_DOUBLE_EQ(q.evalue, p.evalue);
  EXPECT_DOUBLE_EQ(q.branch_epsilon, p.branch_epsilon);
  EXPECT_EQ(q.x_drop, p.x_drop);
  EXPECT_EQ(q.extension_margin, p.extension_margin);
  EXPECT_EQ(q.max_hits, p.max_hits);
}

// ---------- protocol payloads ----------

TEST(Protocol, StoreSequenceRoundTrip) {
  StoreSequencePayload p;
  p.sequence = 9;
  p.name = "protein nine";
  p.alphabet = 1;
  p.codes = {1, 2, 3};
  const auto decoded =
      decode_payload<StoreSequencePayload>(encode_payload(p));
  EXPECT_EQ(decoded.sequence, 9u);
  EXPECT_EQ(decoded.name, "protein nine");
  EXPECT_EQ(decoded.codes, p.codes);
}

TEST(Protocol, InsertBlocksRoundTrip) {
  InsertBlocksPayload p;
  for (int i = 0; i < 3; ++i) {
    Block b;
    b.sequence = static_cast<std::uint32_t>(i);
    b.start = static_cast<std::uint32_t>(i * 10);
    b.window = {static_cast<seq::Code>(i), 2, 3};
    p.blocks.push_back(b);
  }
  const auto decoded =
      decode_payload<InsertBlocksPayload>(encode_payload(p));
  EXPECT_EQ(decoded.blocks, p.blocks);
}

TEST(Protocol, GroupQueryRoundTrip) {
  GroupQueryPayload p;
  p.params.k = 4;
  p.query = {5, 6, 7, 8, 9};
  Subquery s;
  s.query_offset = 2;
  s.window = {7, 8, 9};
  p.subqueries.push_back(s);
  const auto decoded = decode_payload<GroupQueryPayload>(encode_payload(p));
  EXPECT_EQ(decoded.params.k, 4u);
  EXPECT_EQ(decoded.query, p.query);
  ASSERT_EQ(decoded.subqueries.size(), 1u);
  EXPECT_EQ(decoded.subqueries[0].query_offset, 2u);
  EXPECT_EQ(decoded.subqueries[0].window, s.window);
}

TEST(Protocol, SeedDiagonalAndRoundTrip) {
  Seed seed;
  seed.sequence = 3;
  seed.subject_start = 10;
  seed.query_offset = 25;
  seed.length = 8;
  seed.identity = 0.9;
  seed.c_score = 0.8;
  EXPECT_EQ(seed.diagonal(), -15);
  NodeSearchResultPayload p;
  p.seeds.push_back(seed);
  const auto decoded =
      decode_payload<NodeSearchResultPayload>(encode_payload(p));
  ASSERT_EQ(decoded.seeds.size(), 1u);
  EXPECT_EQ(decoded.seeds[0].diagonal(), -15);
  EXPECT_DOUBLE_EQ(decoded.seeds[0].identity, 0.9);
}

TEST(Protocol, AnchorNormalizedScore) {
  Anchor a;
  a.q_begin = 10;
  a.q_end = 30;
  a.s_begin = 100;
  a.s_end = 120;
  a.score = 50;
  EXPECT_EQ(a.length(), 20u);
  EXPECT_DOUBLE_EQ(a.normalized_score(), 2.5);
  EXPECT_EQ(a.diagonal(), 90);
  Anchor zero;
  EXPECT_DOUBLE_EQ(zero.normalized_score(), 0.0);
}

TEST(Protocol, FetchRangeRoundTrip) {
  FetchRangePayload p;
  p.purpose = static_cast<std::uint8_t>(FetchPurpose::kGappedExtension);
  p.token = 5;
  p.sequence = 77;
  p.start = 1000;
  p.length = 256;
  const auto decoded = decode_payload<FetchRangePayload>(encode_payload(p));
  EXPECT_EQ(decoded.purpose, p.purpose);
  EXPECT_EQ(decoded.token, 5u);
  EXPECT_EQ(decoded.sequence, 77u);
  EXPECT_EQ(decoded.start, 1000u);
  EXPECT_EQ(decoded.length, 256u);
}

TEST(Protocol, QueryResultRoundTrip) {
  QueryResultPayload p;
  align::AlignmentHit hit;
  hit.subject_id = 12;
  hit.subject_name = "family3/member1";
  hit.alignment.hsp = {10, 110, 20, 118, 321};
  hit.alignment.columns = 102;
  hit.alignment.identities = 88;
  hit.alignment.gap_columns = 4;
  hit.alignment.cigar = "50M2D48M";
  hit.bit_score = 123.4;
  hit.evalue = 1e-30;
  p.hits.push_back(hit);
  const auto decoded = decode_payload<QueryResultPayload>(encode_payload(p));
  ASSERT_EQ(decoded.hits.size(), 1u);
  EXPECT_EQ(decoded.hits[0].subject_id, 12u);
  EXPECT_EQ(decoded.hits[0].subject_name, "family3/member1");
  EXPECT_EQ(decoded.hits[0].alignment.hsp, hit.alignment.hsp);
  EXPECT_EQ(decoded.hits[0].alignment.cigar, "50M2D48M");
  EXPECT_DOUBLE_EQ(decoded.hits[0].evalue, 1e-30);
}

// ---------- anchor merging ----------

Anchor anchor(std::uint32_t sequence, std::uint32_t q_begin,
              std::uint32_t q_end, std::ptrdiff_t diagonal, int score) {
  Anchor a;
  a.sequence = sequence;
  a.q_begin = q_begin;
  a.q_end = q_end;
  a.s_begin = static_cast<std::uint32_t>(q_begin + diagonal);
  a.s_end = static_cast<std::uint32_t>(q_end + diagonal);
  a.score = score;
  return a;
}

TEST(MergeAnchors, CombinesOverlappingSameDiagonal) {
  const auto merged = merge_anchors(
      {anchor(1, 0, 20, 5, 30), anchor(1, 15, 40, 5, 25)});
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].q_begin, 0u);
  EXPECT_EQ(merged[0].q_end, 40u);
  EXPECT_EQ(merged[0].s_begin, 5u);
  EXPECT_EQ(merged[0].s_end, 45u);
  // Union estimate: 30 + 25 - overlap(5) * max(30/20, 25/25) = 47.5 -> 47.
  EXPECT_EQ(merged[0].score, 47);
}

TEST(MergeAnchors, UnionScorePreservesNormalizedDensity) {
  // A chain of equally strong overlapping anchors must keep a normalized
  // score close to the constituents' density, not dilute toward
  // one_score / union_length (the bug that made the S trigger drop long
  // exact matches).
  std::vector<Anchor> chain;
  for (std::uint32_t i = 0; i < 10; ++i) {
    chain.push_back(anchor(1, i * 80, i * 80 + 120, 0, 480));  // norm 4.0
  }
  const auto merged = merge_anchors(chain);
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].q_end - merged[0].q_begin, 840u);
  EXPECT_GT(merged[0].normalized_score(), 3.0);
}

TEST(MergeAnchors, AdjacentSpansMerge) {
  const auto merged =
      merge_anchors({anchor(1, 0, 10, 0, 10), anchor(1, 10, 20, 0, 12)});
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].q_end, 20u);
}

TEST(MergeAnchors, DifferentDiagonalsStaySeparate) {
  const auto merged =
      merge_anchors({anchor(1, 0, 20, 5, 30), anchor(1, 10, 30, 6, 25)});
  EXPECT_EQ(merged.size(), 2u);
}

TEST(MergeAnchors, DifferentSequencesStaySeparate) {
  const auto merged =
      merge_anchors({anchor(1, 0, 20, 5, 30), anchor(2, 0, 20, 5, 30)});
  EXPECT_EQ(merged.size(), 2u);
}

TEST(MergeAnchors, DisjointSpansStaySeparate) {
  const auto merged =
      merge_anchors({anchor(1, 0, 10, 0, 10), anchor(1, 50, 60, 0, 12)});
  EXPECT_EQ(merged.size(), 2u);
}

TEST(MergeAnchors, ChainsOfOverlapsCollapse) {
  const auto merged = merge_anchors({anchor(1, 0, 10, 3, 10),
                                     anchor(1, 8, 18, 3, 11),
                                     anchor(1, 16, 26, 3, 12)});
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].q_begin, 0u);
  EXPECT_EQ(merged[0].q_end, 26u);
  // 10+11 - 2*1.1 = 18 (floor), then 18+12 - 2*1.2 = 27 (floor).
  EXPECT_EQ(merged[0].score, 27);
}

TEST(MergeAnchors, EmptyAndSingleton) {
  EXPECT_TRUE(merge_anchors({}).empty());
  const auto one = merge_anchors({anchor(1, 0, 5, 0, 9)});
  EXPECT_EQ(one.size(), 1u);
}

TEST(MergeAnchors, OutputSorted) {
  const auto merged = merge_anchors({anchor(2, 0, 10, 0, 1),
                                     anchor(1, 50, 60, 2, 2),
                                     anchor(1, 0, 10, 2, 3)});
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].sequence, 1u);
  EXPECT_EQ(merged[0].q_begin, 0u);
  EXPECT_EQ(merged[1].q_begin, 50u);
  EXPECT_EQ(merged[2].sequence, 2u);
}

}  // namespace
}  // namespace mendel::core
