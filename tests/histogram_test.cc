// obs/histogram.h: bucket mapping, percentile accuracy against exactly
// sorted samples (uniform / Zipfian / bimodal), merge associativity, and
// concurrent lock-free recording.

#include "obs/histogram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/rng.h"

namespace hot {
namespace {

using obs::LatencyHistogram;

// --- bucket mapping ---------------------------------------------------------

TEST(Histogram, ExactBucketsBelow64) {
  for (uint64_t v = 0; v < 64; ++v) {
    size_t i = LatencyHistogram::BucketIndex(v);
    EXPECT_EQ(i, v);
    EXPECT_EQ(LatencyHistogram::BucketLow(i), v);
    EXPECT_EQ(LatencyHistogram::BucketWidth(i), 1u);
  }
}

TEST(Histogram, BucketContainsValueWithBoundedWidth) {
  SplitMix64 rng(1);
  for (int t = 0; t < 200000; ++t) {
    uint64_t v = rng.Next() >> (rng.NextBounded(64));
    size_t i = LatencyHistogram::BucketIndex(v);
    ASSERT_LT(i, LatencyHistogram::kNumBuckets);
    uint64_t low = LatencyHistogram::BucketLow(i);
    uint64_t width = LatencyHistogram::BucketWidth(i);
    ASSERT_GE(v, low) << "value " << v << " below bucket " << i;
    ASSERT_LT(v - low, width) << "value " << v << " beyond bucket " << i;
    if (v >= 64) {
      // Log-bucketing: relative resolution 1/64 at every magnitude.
      ASSERT_LE(width, v / 64 + 1);
    }
  }
}

TEST(Histogram, TopBucketIsLast) {
  EXPECT_EQ(LatencyHistogram::BucketIndex(~0ULL),
            LatencyHistogram::kNumBuckets - 1);
}

// --- percentile accuracy ----------------------------------------------------

// The returned value is the midpoint of the bucket containing the exact
// order statistic, so it can differ from it by at most one bucket width:
// <= 1 below 64, <= value/64 + 1 above.
void CheckPercentiles(const std::vector<uint64_t>& samples) {
  LatencyHistogram h;
  for (uint64_t v : samples) h.Record(v);
  std::vector<uint64_t> sorted = samples;
  std::sort(sorted.begin(), sorted.end());

  ASSERT_EQ(h.count(), samples.size());
  EXPECT_EQ(h.max(), sorted.back());
  EXPECT_EQ(h.ValueAtPercentile(100), sorted.back());

  for (double p : {1.0, 10.0, 50.0, 90.0, 99.0, 99.9}) {
    size_t rank = static_cast<size_t>(p / 100.0 *
                                      static_cast<double>(sorted.size()));
    if (rank < sorted.size()) ++rank;  // 1-based ceil, as the histogram
    uint64_t exact = sorted[rank - 1];
    uint64_t approx = h.ValueAtPercentile(p);
    uint64_t tol = exact / 64 + 1;
    EXPECT_NEAR(static_cast<double>(approx), static_cast<double>(exact),
                static_cast<double>(tol))
        << "p" << p << " of " << sorted.size() << " samples";
  }
}

TEST(Histogram, PercentilesUniform) {
  SplitMix64 rng(7);
  std::vector<uint64_t> s(100000);
  for (auto& v : s) v = 50 + rng.NextBounded(1000000);
  CheckPercentiles(s);
}

TEST(Histogram, PercentilesZipf) {
  // Zipfian ranks scaled into a latency-like range: a heavy head with a
  // long tail, the shape that breaks mean-based reporting.
  SplitMix64 rng(8);
  ZipfianGenerator zipf(1000000, 0.99, 9);
  std::vector<uint64_t> s(100000);
  for (auto& v : s) v = 100 + zipf.Next() * 3 + rng.NextBounded(7);
  CheckPercentiles(s);
}

TEST(Histogram, PercentilesBimodal) {
  // Cache-hit mode around 100ns, miss mode around 100us: percentile
  // extraction must resolve both modes and the jump between them.
  SplitMix64 rng(9);
  std::vector<uint64_t> s(100000);
  for (auto& v : s) {
    v = rng.NextBounded(10) < 9 ? 80 + rng.NextBounded(60)
                                : 90000 + rng.NextBounded(30000);
  }
  CheckPercentiles(s);
}

TEST(Histogram, EmptyAndSingle) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.ValueAtPercentile(50), 0u);
  h.Record(42);
  EXPECT_EQ(h.ValueAtPercentile(0), 42u);
  EXPECT_EQ(h.ValueAtPercentile(50), 42u);
  EXPECT_EQ(h.ValueAtPercentile(100), 42u);
  EXPECT_DOUBLE_EQ(h.Mean(), 42.0);
}

// Regression: ValueAtPercentile on an empty histogram must return 0 for
// EVERY p — including the p >= 100 early-out and out-of-range p — and the
// cumulative bucket walk must never run with count() == 0 (it would walk
// all buckets and fall through to max()).  Callers used to be the only
// guard (RunObservers::ForEachHistogram skips empty histograms); the
// histogram itself now defines the behavior.
TEST(Histogram, EmptyPercentilesAreZeroForAllP) {
  LatencyHistogram h;
  for (double p : {0.0, 0.001, 25.0, 50.0, 99.0, 99.9, 100.0,
                   // out-of-range inputs are clamped, not UB
                   -5.0, 250.0}) {
    EXPECT_EQ(h.ValueAtPercentile(p), 0u) << "p=" << p;
  }
  EXPECT_EQ(h.max(), 0u);
  EXPECT_DOUBLE_EQ(h.Mean(), 0.0);

  // Emptied-again histograms behave like never-filled ones.
  h.Record(7);
  h.Record(1u << 20);
  EXPECT_NE(h.ValueAtPercentile(50), 0u);
  h.Reset();
  for (double p : {0.0, 50.0, 99.9, 100.0}) {
    EXPECT_EQ(h.ValueAtPercentile(p), 0u) << "after Reset, p=" << p;
  }

  // Merging an empty histogram into an empty histogram stays empty.
  LatencyHistogram a, b;
  a.Merge(b);
  EXPECT_EQ(a.count(), 0u);
  EXPECT_EQ(a.ValueAtPercentile(99.9), 0u);
}

// --- merge ------------------------------------------------------------------

void FillRandom(LatencyHistogram& h, uint64_t seed, size_t n) {
  SplitMix64 rng(seed);
  for (size_t i = 0; i < n; ++i) h.Record(rng.Next() >> rng.NextBounded(60));
}

void ExpectSame(const LatencyHistogram& a, const LatencyHistogram& b) {
  for (size_t i = 0; i < LatencyHistogram::kNumBuckets; ++i) {
    ASSERT_EQ(a.BucketCount(i), b.BucketCount(i)) << "bucket " << i;
  }
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.max(), b.max());
  EXPECT_DOUBLE_EQ(a.Mean(), b.Mean());
}

TEST(Histogram, MergeIsAssociativeAndCommutative) {
  // (a + b) + c == a + (b + c) == c + b + a, bucket for bucket.
  LatencyHistogram ab_c, a_bc, cba;
  // (a+b)+c
  {
    LatencyHistogram a, b, c;
    FillRandom(a, 1, 5000);
    FillRandom(b, 2, 3000);
    FillRandom(c, 3, 7000);
    ab_c.Merge(a);
    ab_c.Merge(b);
    ab_c.Merge(c);
  }
  // a+(b+c): merge b and c into one histogram first.
  {
    LatencyHistogram a, bc;
    FillRandom(a, 1, 5000);
    FillRandom(bc, 2, 3000);
    FillRandom(bc, 3, 7000);
    a_bc.Merge(bc);
    a_bc.Merge(a);
  }
  // reverse order
  {
    LatencyHistogram a, b, c;
    FillRandom(a, 1, 5000);
    FillRandom(b, 2, 3000);
    FillRandom(c, 3, 7000);
    cba.Merge(c);
    cba.Merge(b);
    cba.Merge(a);
  }
  ExpectSame(ab_c, a_bc);
  ExpectSame(ab_c, cba);
}

TEST(Histogram, MergeMatchesDirectRecording) {
  LatencyHistogram merged, direct;
  for (uint64_t t = 0; t < 4; ++t) {
    LatencyHistogram part;
    FillRandom(part, 100 + t, 10000);
    merged.Merge(part);
    FillRandom(direct, 100 + t, 10000);
  }
  ExpectSame(merged, direct);
}

// --- concurrency ------------------------------------------------------------

TEST(Histogram, ConcurrentRecordingLosesNothing) {
  constexpr size_t kThreads = 4;
  constexpr size_t kPerThread = 200000;
  LatencyHistogram h;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      SplitMix64 rng(0xabc + t);
      for (size_t i = 0; i < kPerThread; ++i) {
        h.Record(1 + rng.NextBounded(1 << 20));
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(h.count(), kThreads * kPerThread);
  uint64_t bucket_total = 0;
  for (size_t i = 0; i < LatencyHistogram::kNumBuckets; ++i) {
    bucket_total += h.BucketCount(i);
  }
  EXPECT_EQ(bucket_total, kThreads * kPerThread);

  // Same data recorded single-threaded must agree exactly (relaxed atomics
  // lose no increments, merge-order-independent by construction).
  LatencyHistogram ref;
  for (size_t t = 0; t < kThreads; ++t) {
    SplitMix64 rng(0xabc + t);
    for (size_t i = 0; i < kPerThread; ++i) {
      ref.Record(1 + rng.NextBounded(1 << 20));
    }
  }
  ExpectSame(h, ref);
}

TEST(Histogram, RecordNMatchesLoop) {
  LatencyHistogram a, b;
  a.RecordN(777, 5);
  a.RecordN(65536, 3);
  for (int i = 0; i < 5; ++i) b.Record(777);
  for (int i = 0; i < 3; ++i) b.Record(65536);
  ExpectSame(a, b);
}

}  // namespace
}  // namespace hot
