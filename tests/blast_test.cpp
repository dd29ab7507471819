// Unit tests for the BLAST-style baseline (src/blast).
#include <gtest/gtest.h>

#include <algorithm>

#include "src/blast/blast.h"
#include "src/common/error.h"
#include "src/common/rng.h"
#include "src/workload/generator.h"

namespace mendel::blast {
namespace {

using seq::Alphabet;

seq::SequenceStore protein_store() {
  seq::SequenceStore store(Alphabet::kProtein);
  Rng rng(101);
  for (int i = 0; i < 30; ++i) {
    store.add(workload::random_sequence(Alphabet::kProtein, 300,
                                        "bg" + std::to_string(i), rng));
  }
  return store;
}

// ---------- WordIndex ----------

TEST(WordIndex, PackRejectsWrongLength) {
  WordIndex index(Alphabet::kProtein, 3);
  std::uint32_t key;
  EXPECT_THROW(index.pack(seq::encode_string(Alphabet::kProtein, "MK"), key),
               InvalidArgument);
}

TEST(WordIndex, PackSkipsAmbiguity) {
  WordIndex index(Alphabet::kProtein, 3);
  std::uint32_t key;
  EXPECT_TRUE(index.pack(seq::encode_string(Alphabet::kProtein, "MKV"), key));
  EXPECT_FALSE(
      index.pack(seq::encode_string(Alphabet::kProtein, "MXV"), key));
}

TEST(WordIndex, LookupFindsIndexedPositions) {
  WordIndex index(Alphabet::kProtein, 3);
  auto s = seq::Sequence::from_string(Alphabet::kProtein, "s", "MKVMKV");
  s.set_id(7);
  index.add_sequence(s);
  EXPECT_EQ(index.indexed_words(), 4u);
  const auto* hits =
      index.lookup(seq::encode_string(Alphabet::kProtein, "MKV"));
  ASSERT_NE(hits, nullptr);
  ASSERT_EQ(hits->size(), 2u);
  EXPECT_EQ((*hits)[0].sequence, 7u);
  EXPECT_EQ((*hits)[0].offset, 0u);
  EXPECT_EQ((*hits)[1].offset, 3u);
}

TEST(WordIndex, LookupMissingWordIsNull) {
  WordIndex index(Alphabet::kProtein, 3);
  EXPECT_EQ(index.lookup(seq::encode_string(Alphabet::kProtein, "WWW")),
            nullptr);
}

TEST(WordIndex, NeighborhoodContainsSelfAtModerateThreshold) {
  WordIndex index(Alphabet::kProtein, 3);
  const auto word = seq::encode_string(Alphabet::kProtein, "MKV");
  std::uint32_t self_key;
  ASSERT_TRUE(index.pack(word, self_key));
  const auto hood = index.neighborhood(word, score::blosum62(), 11);
  EXPECT_NE(std::find(hood.begin(), hood.end(), self_key), hood.end());
}

TEST(WordIndex, NeighborhoodShrinksWithThreshold) {
  WordIndex index(Alphabet::kProtein, 3);
  const auto word = seq::encode_string(Alphabet::kProtein, "MKV");
  const auto loose = index.neighborhood(word, score::blosum62(), 8);
  const auto tight = index.neighborhood(word, score::blosum62(), 13);
  EXPECT_GT(loose.size(), tight.size());
  // Every tight member appears in the loose set.
  for (auto k : tight) {
    EXPECT_NE(std::find(loose.begin(), loose.end(), k), loose.end());
  }
}

TEST(WordIndex, NeighborhoodExhaustiveAgainstBruteForce) {
  WordIndex index(Alphabet::kProtein, 2);
  const auto word = seq::encode_string(Alphabet::kProtein, "WC");
  const int threshold = 6;
  const auto hood = index.neighborhood(word, score::blosum62(), threshold);
  std::size_t expected = 0;
  for (seq::Code a = 0; a < 20; ++a) {
    for (seq::Code b = 0; b < 20; ++b) {
      const int s = score::blosum62().score(word[0], a) +
                    score::blosum62().score(word[1], b);
      expected += s >= threshold ? 1 : 0;
    }
  }
  EXPECT_EQ(hood.size(), expected);
}

TEST(WordIndex, DnaWordSizeEleven) {
  WordIndex index(Alphabet::kDna, 11);
  auto s = seq::Sequence::from_string(
      Alphabet::kDna, "d", "ACGTACGTACGTACGT");
  s.set_id(1);
  index.add_sequence(s);
  EXPECT_EQ(index.indexed_words(), 6u);
  const auto* hits = index.lookup(
      seq::encode_string(Alphabet::kDna, "ACGTACGTACG"));
  ASSERT_NE(hits, nullptr);
  EXPECT_EQ(hits->size(), 2u);  // positions 0 and 4
}

TEST(WordIndex, RejectsOversizedWords) {
  EXPECT_THROW(WordIndex(Alphabet::kProtein, 8), InvalidArgument);
  EXPECT_NO_THROW(WordIndex(Alphabet::kProtein, 7));
  EXPECT_NO_THROW(WordIndex(Alphabet::kDna, 15));
  EXPECT_THROW(WordIndex(Alphabet::kDna, 16), InvalidArgument);
}

// ---------- BlastEngine ----------

TEST(BlastEngine, FindsExactSubsequence) {
  auto store = protein_store();
  BlastEngine engine(&store, &score::blosum62());
  engine.build();

  const auto& donor = store.at(5);
  const auto window = donor.window(50, 80);
  const seq::Sequence query(Alphabet::kProtein, "q",
                            {window.begin(), window.end()});
  BlastSearchStats stats;
  const auto hits = engine.search(query, &stats);
  ASSERT_FALSE(hits.empty());
  EXPECT_EQ(hits.front().subject_id, donor.id());
  EXPECT_GT(hits.front().alignment.percent_identity(), 0.99);
  EXPECT_LT(hits.front().evalue, 1e-20);
  EXPECT_GT(stats.seed_hits, 0u);
  EXPECT_GT(stats.gapped_extensions, 0u);
}

TEST(BlastEngine, ResultsSortedByEvalue) {
  auto store = protein_store();
  BlastEngine engine(&store, &score::blosum62());
  engine.build();
  const auto& donor = store.at(2);
  const auto window = donor.window(0, 120);
  const seq::Sequence query(Alphabet::kProtein, "q",
                            {window.begin(), window.end()});
  const auto hits = engine.search(query);
  for (std::size_t i = 1; i < hits.size(); ++i) {
    EXPECT_LE(hits[i - 1].evalue, hits[i].evalue);
  }
}

TEST(BlastEngine, FindsModeratelyDivergedHomolog) {
  seq::SequenceStore store(Alphabet::kProtein);
  Rng rng(55);
  const auto target =
      workload::random_sequence(Alphabet::kProtein, 400, "target", rng);
  const auto target_id = store.add(target);
  for (int i = 0; i < 20; ++i) {
    store.add(workload::random_sequence(Alphabet::kProtein, 400,
                                        "bg" + std::to_string(i), rng));
  }
  BlastEngine engine(&store, &score::blosum62());
  engine.build();

  const auto query =
      workload::mutate_to_similarity(target, 0.6, "homolog", rng);
  const auto hits = engine.search(query);
  ASSERT_FALSE(hits.empty());
  EXPECT_EQ(hits.front().subject_id, target_id);
}

TEST(BlastEngine, NoHitsForUnrelatedQueryAtStrictEvalue) {
  auto store = protein_store();
  BlastOptions options;
  options.evalue_cutoff = 1e-8;
  BlastEngine engine(&store, &score::blosum62(), options);
  engine.build();
  Rng rng(77);
  const auto query =
      workload::random_sequence(Alphabet::kProtein, 200, "noise", rng);
  EXPECT_TRUE(engine.search(query).empty());
}

TEST(BlastEngine, DnaModeExactWords) {
  seq::SequenceStore store(Alphabet::kDna);
  Rng rng(88);
  for (int i = 0; i < 10; ++i) {
    store.add(workload::random_sequence(Alphabet::kDna, 600,
                                        std::string("g").append(
                                            std::to_string(i)),
                                        rng));
  }
  static const score::ScoringMatrix dna = score::dna_matrix();
  BlastOptions options;
  options.word_size = 11;
  options.gapped_trigger = 20;   // DNA scores accrue +2/column
  options.two_hit = false;       // exact 11-mers are specific enough alone
  BlastEngine engine(&store, &dna, options);
  engine.build();

  const auto& donor = store.at(4);
  const auto window = donor.window(100, 150);
  const seq::Sequence query(Alphabet::kDna, "q",
                            {window.begin(), window.end()});
  const auto hits = engine.search(query);
  ASSERT_FALSE(hits.empty());
  EXPECT_EQ(hits.front().subject_id, donor.id());
}

TEST(BlastEngine, TwoHitReducesExtensions) {
  auto store = protein_store();
  const auto& donor = store.at(1);
  const auto window = donor.window(20, 150);
  const seq::Sequence query(Alphabet::kProtein, "q",
                            {window.begin(), window.end()});

  BlastOptions one_hit;
  one_hit.two_hit = false;
  BlastEngine engine1(&store, &score::blosum62(), one_hit);
  engine1.build();
  BlastSearchStats stats1;
  const auto hits1 = engine1.search(query, &stats1);

  BlastOptions two_hit;
  two_hit.two_hit = true;
  BlastEngine engine2(&store, &score::blosum62(), two_hit);
  engine2.build();
  BlastSearchStats stats2;
  const auto hits2 = engine2.search(query, &stats2);

  EXPECT_LT(stats2.ungapped_extensions, stats1.ungapped_extensions);
  // The strong true positive must survive the two-hit filter.
  ASSERT_FALSE(hits2.empty());
  EXPECT_EQ(hits2.front().subject_id, donor.id());
}

TEST(BlastEngine, MaxHitsTruncates) {
  // Database of near-identical family members: a family query matches all.
  workload::DatabaseSpec spec;
  spec.families = 1;
  spec.members_per_family = 30;
  spec.background_sequences = 0;
  spec.min_length = 300;
  spec.max_length = 300;
  auto store = workload::generate_database(spec);
  BlastOptions options;
  options.max_hits = 5;
  BlastEngine engine(&store, &score::blosum62(), options);
  engine.build();
  const auto& donor = store.at(0);
  const auto window = donor.window(0, 200);
  const seq::Sequence query(Alphabet::kProtein, "q",
                            {window.begin(), window.end()});
  const auto hits = engine.search(query);
  EXPECT_EQ(hits.size(), 5u);
}

TEST(BlastEngine, SearchBeforeBuildThrows) {
  auto store = protein_store();
  BlastEngine engine(&store, &score::blosum62());
  Rng rng(3);
  const auto query =
      workload::random_sequence(Alphabet::kProtein, 100, "q", rng);
  EXPECT_THROW(engine.search(query), InvalidArgument);
}

TEST(BlastEngine, QueryShorterThanWordIsEmpty) {
  auto store = protein_store();
  BlastEngine engine(&store, &score::blosum62());
  engine.build();
  const auto query =
      seq::Sequence::from_string(Alphabet::kProtein, "tiny", "MK");
  EXPECT_TRUE(engine.search(query).empty());
}

}  // namespace
}  // namespace mendel::blast
