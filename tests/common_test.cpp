// Unit tests for src/common: RNG, statistics, codec, table, thread pool,
// flat key set.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>

#include "src/common/codec.h"
#include "src/common/error.h"
#include "src/common/flat_key_set.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/common/table.h"
#include "src/common/thread_pool.h"

namespace mendel {
namespace {

// ---------- FlatKeySet ----------

TEST(FlatKeySet, MatchesAReferenceSetThroughGrowthAndClear) {
  FlatKeySet set;
  std::set<std::uint64_t> want;
  Rng rng(0xF1A7);
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < 20000; ++i) {
      // Small range: plenty of duplicates; also the all-ones sentinel
      // value and zero, which must behave like any other key.
      std::uint64_t key = (rng.below(512) << 32) | rng.below(64);
      if (i % 997 == 0) key = ~std::uint64_t{0};
      if (i % 991 == 0) key = 0;
      EXPECT_EQ(set.insert(key), want.insert(key).second) << key;
    }
    EXPECT_EQ(set.size(), want.size());
    for (const std::uint64_t key : want) EXPECT_TRUE(set.contains(key));
    EXPECT_FALSE(set.contains(std::uint64_t{1} << 63));
    set.clear();
    want.clear();
    EXPECT_TRUE(set.empty());
    EXPECT_FALSE(set.contains(0));
    EXPECT_FALSE(set.contains(~std::uint64_t{0}));
  }
}

// ---------- Rng ----------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += a() == b() ? 1 : 0;
  EXPECT_LT(equal, 4);
}

TEST(Rng, BelowRespectsBound) {
  Rng rng(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.below(bound), bound);
    }
  }
}

TEST(Rng, BelowOneIsZero) {
  Rng rng(7);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, BelowCoversSmallRangeUniformly) {
  Rng rng(11);
  std::array<int, 8> counts{};
  const int trials = 80000;
  for (int i = 0; i < trials; ++i) ++counts[rng.below(8)];
  for (int c : counts) {
    EXPECT_NEAR(c, trials / 8, trials / 8 * 0.15);
  }
}

TEST(Rng, BetweenInclusive) {
  Rng rng(3);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.between(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(5);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, ChanceRespectsP) {
  Rng rng(9);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.chance(0.25) ? 1 : 0;
  EXPECT_NEAR(hits / 20000.0, 0.25, 0.02);
}

TEST(Rng, WeightedSamplingProportional) {
  Rng rng(13);
  const std::vector<double> weights = {1.0, 3.0, 6.0};
  std::array<int, 3> counts{};
  for (int i = 0; i < 30000; ++i) ++counts[rng.weighted(weights)];
  EXPECT_NEAR(counts[0] / 30000.0, 0.1, 0.02);
  EXPECT_NEAR(counts[1] / 30000.0, 0.3, 0.03);
  EXPECT_NEAR(counts[2] / 30000.0, 0.6, 0.03);
}

TEST(Rng, ReseedReproduces) {
  Rng rng(42);
  const auto first = rng();
  rng.reseed(42);
  EXPECT_EQ(rng(), first);
}

// ---------- RunningStats ----------

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStats, MeanVarianceMinMax) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, MergeMatchesCombined) {
  RunningStats a, b, combined;
  Rng rng(17);
  for (int i = 0; i < 100; ++i) {
    const double x = rng.uniform() * 10;
    a.add(x);
    combined.add(x);
  }
  for (int i = 0; i < 57; ++i) {
    const double x = rng.uniform() * 3 - 5;
    b.add(x);
    combined.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_NEAR(a.mean(), combined.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), combined.variance(), 1e-9);
  EXPECT_EQ(a.min(), combined.min());
  EXPECT_EQ(a.max(), combined.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, b;
  a.add(1.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 1u);
  b.merge(a);
  EXPECT_EQ(b.count(), 1u);
  EXPECT_EQ(b.mean(), 1.0);
}

// ---------- percentile / cov ----------

TEST(Percentile, NearestRank) {
  const std::vector<double> xs = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_EQ(percentile(xs, 50), 5.0);
  EXPECT_EQ(percentile(xs, 100), 10.0);
  EXPECT_EQ(percentile(xs, 10), 1.0);
  EXPECT_EQ(percentile(xs, 0), 1.0);
}

TEST(Percentile, RejectsEmptyAndBadP) {
  EXPECT_THROW(percentile({}, 50), InvalidArgument);
  const std::vector<double> xs = {1.0};
  EXPECT_THROW(percentile(xs, -1), InvalidArgument);
  EXPECT_THROW(percentile(xs, 101), InvalidArgument);
}

TEST(CoefficientOfVariation, UniformDataIsZero) {
  const std::vector<double> xs = {3, 3, 3, 3};
  EXPECT_EQ(coefficient_of_variation(xs), 0.0);
}

TEST(CoefficientOfVariation, KnownValue) {
  const std::vector<double> xs = {2, 4};
  // mean 3, sample stddev sqrt(2)
  EXPECT_NEAR(coefficient_of_variation(xs), std::sqrt(2.0) / 3.0, 1e-12);
}

// ---------- Histogram ----------

TEST(Histogram, BinsAndClamping) {
  Histogram h(0.0, 10.0, 5);
  h.add(0.5);   // bin 0
  h.add(9.9);   // bin 4
  h.add(-5.0);  // clamps to bin 0
  h.add(15.0);  // clamps to bin 4
  h.add(5.0);   // bin 2
  EXPECT_EQ(h.bin_count(0), 2u);
  EXPECT_EQ(h.bin_count(2), 1u);
  EXPECT_EQ(h.bin_count(4), 2u);
  EXPECT_EQ(h.total(), 5u);
  EXPECT_DOUBLE_EQ(h.bin_low(2), 4.0);
  EXPECT_DOUBLE_EQ(h.bin_high(2), 6.0);
  EXPECT_FALSE(h.ascii().empty());
}

TEST(Histogram, RejectsBadRange) {
  EXPECT_THROW(Histogram(1.0, 1.0, 4), InvalidArgument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), InvalidArgument);
}

// ---------- Codec ----------

TEST(Codec, RoundTripScalars) {
  CodecWriter w;
  w.u8(0xab);
  w.u16(0xbeef);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.i32(-42);
  w.i64(-1234567890123LL);
  w.f64(3.14159);
  w.boolean(true);
  w.boolean(false);
  CodecReader r(w.data());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0xbeef);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.i32(), -42);
  EXPECT_EQ(r.i64(), -1234567890123LL);
  EXPECT_DOUBLE_EQ(r.f64(), 3.14159);
  EXPECT_TRUE(r.boolean());
  EXPECT_FALSE(r.boolean());
  EXPECT_TRUE(r.done());
}

TEST(Codec, RoundTripStringsAndBytes) {
  CodecWriter w;
  w.str("hello, Mendel");
  w.str("");
  const std::vector<std::uint8_t> blob = {0, 1, 255, 128};
  w.bytes(blob);
  CodecReader r(w.data());
  EXPECT_EQ(r.str(), "hello, Mendel");
  EXPECT_EQ(r.str(), "");
  EXPECT_EQ(r.bytes(), blob);
}

TEST(Codec, RoundTripVector) {
  CodecWriter w;
  const std::vector<std::uint32_t> values = {1, 2, 3, 500};
  w.vec(values, [](CodecWriter& ww, std::uint32_t v) { ww.u32(v); });
  CodecReader r(w.data());
  const auto decoded =
      r.vec<std::uint32_t>([](CodecReader& rr) { return rr.u32(); });
  EXPECT_EQ(decoded, values);
}

TEST(Codec, TruncatedBufferThrows) {
  CodecWriter w;
  w.u64(42);
  auto bytes = w.take();
  bytes.resize(4);
  CodecReader r(bytes);
  EXPECT_THROW(r.u64(), ParseError);
}

TEST(Codec, TruncatedStringThrows) {
  CodecWriter w;
  w.str("abcdef");
  auto bytes = w.take();
  bytes.resize(6);  // length prefix says 6 chars but only 2 present
  CodecReader r(bytes);
  EXPECT_THROW(r.str(), ParseError);
}

TEST(Codec, NegativeDoubleRoundTrip) {
  CodecWriter w;
  w.f64(-0.0);
  w.f64(-1e300);
  CodecReader r(w.data());
  EXPECT_EQ(r.f64(), -0.0);
  EXPECT_EQ(r.f64(), -1e300);
}

// ---------- TextTable ----------

TEST(TextTable, AlignedOutputContainsCells) {
  TextTable t("My results");
  t.set_header({"name", "value"});
  t.add_row({"alpha", "1.5"});
  t.add_row({"beta", "2.25"});
  std::ostringstream out;
  t.print(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("My results"), std::string::npos);
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("2.25"), std::string::npos);
}

TEST(TextTable, CsvEscapesSpecials) {
  TextTable t("x");
  t.set_header({"a", "b"});
  t.add_row({"va,lue", "say \"hi\""});
  std::ostringstream out;
  t.print_csv(out);
  EXPECT_EQ(out.str(), "a,b\n\"va,lue\",\"say \"\"hi\"\"\"\n");
}

TEST(TextTable, RowWidthMismatchThrows) {
  TextTable t("x");
  t.set_header({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), InvalidArgument);
}

TEST(TextTable, NumberFormatting) {
  EXPECT_EQ(TextTable::num(1.23456, 2), "1.23");
  EXPECT_EQ(TextTable::num(std::size_t{42}), "42");
  EXPECT_EQ(TextTable::percent(0.1234, 1), "12.3%");
}

// ---------- ThreadPool ----------

TEST(ThreadPool, SubmitReturnsResult) {
  ThreadPool pool(2);
  auto fut = pool.submit([] { return 6 * 7; });
  EXPECT_EQ(fut.get(), 42);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> touched(257);
  pool.parallel_for(touched.size(), [&](std::size_t i) { ++touched[i]; });
  for (const auto& t : touched) EXPECT_EQ(t.load(), 1);
}

TEST(ThreadPool, ParallelForPropagatesException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(10,
                                 [](std::size_t i) {
                                   if (i == 5) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, ZeroIterationsIsNoop) {
  ThreadPool pool(1);
  pool.parallel_for(0, [](std::size_t) { FAIL(); });
}

TEST(ThreadPool, ManyTasksComplete) {
  ThreadPool pool(3);
  std::atomic<int> sum{0};
  std::vector<std::future<void>> futs;
  for (int i = 1; i <= 100; ++i) {
    futs.push_back(pool.submit([&sum, i] { sum += i; }));
  }
  for (auto& f : futs) f.get();
  EXPECT_EQ(sum.load(), 5050);
}

}  // namespace
}  // namespace mendel
