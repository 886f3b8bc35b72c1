#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "sim/random.h"
#include "stats/histogram.h"
#include "stats/sample_set.h"
#include "stats/streaming.h"
#include "stats/summary.h"
#include "stats/time_weighted.h"

namespace afraid {
namespace {

TEST(StreamingStats, EmptyIsZero) {
  StreamingStats s;
  EXPECT_EQ(s.Count(), 0u);
  EXPECT_EQ(s.Mean(), 0.0);
  EXPECT_EQ(s.Variance(), 0.0);
}

TEST(StreamingStats, BasicMoments) {
  StreamingStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.Add(x);
  }
  EXPECT_EQ(s.Count(), 8u);
  EXPECT_DOUBLE_EQ(s.Mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.Min(), 2.0);
  EXPECT_DOUBLE_EQ(s.Max(), 9.0);
  EXPECT_NEAR(s.Variance(), 32.0 / 7.0, 1e-12);  // Sample variance.
  EXPECT_DOUBLE_EQ(s.Sum(), 40.0);
}

TEST(StreamingStats, MergeEqualsCombinedStream) {
  Rng rng(5);
  StreamingStats all;
  StreamingStats a;
  StreamingStats b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.Normal(10, 3);
    all.Add(x);
    (i % 2 == 0 ? a : b).Add(x);
  }
  a.Merge(b);
  EXPECT_EQ(a.Count(), all.Count());
  EXPECT_NEAR(a.Mean(), all.Mean(), 1e-9);
  EXPECT_NEAR(a.Variance(), all.Variance(), 1e-7);
  EXPECT_EQ(a.Min(), all.Min());
  EXPECT_EQ(a.Max(), all.Max());
}

// The sorted-array definition SampleSet::Percentile must reproduce.
double SortedPercentile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

TEST(SampleSet, PercentilesExact) {
  SampleSet s;
  for (int i = 100; i >= 1; --i) {
    s.Add(i);
  }
  EXPECT_DOUBLE_EQ(s.Percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.Percentile(1.0), 100.0);
  EXPECT_NEAR(s.Median(), 50.5, 1e-9);
  EXPECT_NEAR(s.Percentile(0.95), 95.05, 1e-9);

  // Selection in place must give the sorted-array result bit for bit:
  // shuffled samples with many ties, the smallest sizes, and queries in an
  // arbitrary order so each one starts from the previous one's permutation.
  const double queries[] = {0.95, 0.0, 0.999, 0.5, 1.0, 0.9, 0.99, 0.5, 0.0};
  Rng rng(7);
  for (const size_t n : {1u, 2u, 3u, 10u, 1000u, 4097u}) {
    std::vector<double> values;
    for (size_t i = 0; i < n; ++i) {
      // About four copies of each value, at non-integer spacing.
      values.push_back(0.37 * static_cast<double>(rng.UniformInt(
                                  0, static_cast<int64_t>(n / 4))));
    }
    std::shuffle(values.begin(), values.end(), rng.engine());
    SampleSet set;
    for (double x : values) {
      set.Add(x);
    }
    for (const double p : queries) {
      EXPECT_EQ(set.Percentile(p), SortedPercentile(values, p))
          << "n=" << n << " p=" << p;
    }
    EXPECT_EQ(set.Count(), n);
  }
}

TEST(SampleSet, AddAfterPercentileStillCorrect) {
  SampleSet s;
  s.Add(1.0);
  s.Add(3.0);
  EXPECT_DOUBLE_EQ(s.Median(), 2.0);
  s.Add(100.0);
  EXPECT_DOUBLE_EQ(s.Median(), 3.0);
  EXPECT_EQ(s.Count(), 3u);
}

TEST(TimeWeighted, PiecewiseConstantIntegration) {
  TimeWeightedValue v(0, 0.0);
  v.Set(Seconds(10), 4.0);   // 0 for 10 s, then 4.
  v.Set(Seconds(20), 0.0);   // 4 for 10 s, then 0.
  EXPECT_DOUBLE_EQ(v.IntegralTo(Seconds(30)), 40.0);
  EXPECT_DOUBLE_EQ(v.MeanTo(Seconds(30)), 40.0 / 30.0);
  EXPECT_DOUBLE_EQ(v.PositiveSecondsTo(Seconds(30)), 10.0);
  EXPECT_DOUBLE_EQ(v.PositiveFractionTo(Seconds(30)), 1.0 / 3.0);
}

TEST(TimeWeighted, AddAccumulates) {
  TimeWeightedValue v(0, 0.0);
  v.Add(Seconds(1), 2.0);
  v.Add(Seconds(2), 3.0);
  EXPECT_DOUBLE_EQ(v.Current(), 5.0);
  v.Add(Seconds(3), -5.0);
  EXPECT_DOUBLE_EQ(v.Current(), 0.0);
  // Integral: 0*1 + 2*1 + 5*1 = 7.
  EXPECT_DOUBLE_EQ(v.IntegralTo(Seconds(3)), 7.0);
}

TEST(TimeWeighted, NonZeroStart) {
  TimeWeightedValue v(Seconds(100), 1.0);
  EXPECT_DOUBLE_EQ(v.MeanTo(Seconds(110)), 1.0);
  EXPECT_DOUBLE_EQ(v.PositiveFractionTo(Seconds(110)), 1.0);
}

TEST(TimeWeightedProperty, MatchesBruteForceReplay) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    Rng rng(seed);
    TimeWeightedValue v(0, 0.0);
    std::vector<std::pair<SimTime, double>> changes;  // (time, new value)
    SimTime t = 0;
    double value = 0.0;
    for (int i = 0; i < 200; ++i) {
      t += Milliseconds(rng.UniformInt(1, 1000));
      value = rng.UniformInt(0, 3) == 0 ? 0.0 : rng.UniformDouble(0.5, 10.0);
      v.Set(t, value);
      changes.emplace_back(t, value);
    }
    const SimTime end = t + Seconds(5);
    // Brute force.
    double integral = 0.0;
    double positive = 0.0;
    SimTime prev = 0;
    double cur = 0.0;
    for (const auto& [ct, cv] : changes) {
      integral += cur * ToSeconds(ct - prev);
      if (cur > 0) {
        positive += ToSeconds(ct - prev);
      }
      prev = ct;
      cur = cv;
    }
    integral += cur * ToSeconds(end - prev);
    if (cur > 0) {
      positive += ToSeconds(end - prev);
    }
    EXPECT_NEAR(v.IntegralTo(end), integral, 1e-6);
    EXPECT_NEAR(v.PositiveSecondsTo(end), positive, 1e-9);
  }
}

TEST(Summary, GeometricMean) {
  EXPECT_DOUBLE_EQ(GeometricMean({4.0}), 4.0);
  EXPECT_NEAR(GeometricMean({1.0, 4.0}), 2.0, 1e-12);
  EXPECT_NEAR(GeometricMean({2.0, 2.0, 2.0}), 2.0, 1e-12);
}

TEST(Summary, MeansOrdering) {
  // HM <= GM <= AM for positive values.
  const std::vector<double> xs = {1.0, 3.0, 9.0, 27.0};
  EXPECT_LE(HarmonicMean(xs), GeometricMean(xs) + 1e-12);
  EXPECT_LE(GeometricMean(xs), ArithmeticMean(xs) + 1e-12);
}

TEST(StreamingStats, MergeWithEmptySides) {
  StreamingStats filled;
  filled.Add(1.0);
  filled.Add(3.0);

  StreamingStats empty_lhs;
  empty_lhs.Merge(filled);  // Empty left side adopts the other stream.
  EXPECT_EQ(empty_lhs.Count(), 2u);
  EXPECT_DOUBLE_EQ(empty_lhs.Mean(), 2.0);
  EXPECT_DOUBLE_EQ(empty_lhs.Min(), 1.0);
  EXPECT_DOUBLE_EQ(empty_lhs.Max(), 3.0);
  EXPECT_DOUBLE_EQ(empty_lhs.Variance(), 2.0);

  StreamingStats empty_rhs;
  filled.Merge(empty_rhs);  // Empty right side is a no-op.
  EXPECT_EQ(filled.Count(), 2u);
  EXPECT_DOUBLE_EQ(filled.Mean(), 2.0);
  EXPECT_DOUBLE_EQ(filled.Variance(), 2.0);

  StreamingStats a;
  StreamingStats b;
  a.Merge(b);  // Both empty stays empty (and all-zero, not NaN).
  EXPECT_EQ(a.Count(), 0u);
  EXPECT_DOUBLE_EQ(a.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(a.Variance(), 0.0);
}

TEST(TimeWeighted, ZeroElapsedIsCurrentValueNotNan) {
  TimeWeightedValue positive(Seconds(5), 3.0);
  EXPECT_DOUBLE_EQ(positive.MeanTo(Seconds(5)), 3.0);
  EXPECT_DOUBLE_EQ(positive.PositiveFractionTo(Seconds(5)), 1.0);
  EXPECT_DOUBLE_EQ(positive.IntegralTo(Seconds(5)), 0.0);

  TimeWeightedValue zero(Seconds(5), 0.0);
  EXPECT_DOUBLE_EQ(zero.MeanTo(Seconds(5)), 0.0);
  EXPECT_DOUBLE_EQ(zero.PositiveFractionTo(Seconds(5)), 0.0);
}

TEST(Histogram, BucketsAndOverflow) {
  Histogram h(0.0, 10.0, 5);  // [0,50) in 5 buckets.
  h.Add(-1);
  h.Add(0);
  h.Add(9.99);
  h.Add(10);
  h.Add(49.9);
  h.Add(50);
  h.Add(1000);
  EXPECT_EQ(h.Underflow(), 1u);
  EXPECT_EQ(h.Overflow(), 2u);
  EXPECT_EQ(h.Counts()[0], 2u);
  EXPECT_EQ(h.Counts()[1], 1u);
  EXPECT_EQ(h.Counts()[4], 1u);
  EXPECT_EQ(h.Total(), 7u);
  EXPECT_FALSE(h.Render().empty());
}

TEST(Histogram, QuantileEmptyAndSingleSample) {
  Histogram empty(0.0, 10.0, 5);
  EXPECT_DOUBLE_EQ(empty.Quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(empty.Median(), 0.0);
  EXPECT_DOUBLE_EQ(empty.Quantile(1.0), 0.0);

  Histogram one(0.0, 10.0, 5);
  one.Add(23.0);  // Lands in [20, 30).
  for (double p : {0.0, 0.25, 0.5, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(one.Quantile(p), 25.0) << "p=" << p;  // Bucket midpoint.
  }
}

TEST(Histogram, QuantileUnderflowAndOverflowMass) {
  // Out-of-range samples are retained exactly, so the extremes are the real
  // extremes, not the bucket edges.
  Histogram h(10.0, 5.0, 4);  // Covers [10, 30).
  h.Add(-100.0);
  h.Add(-50.0);
  h.Add(1000.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.0), -100.0);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 1000.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), -50.0);
}

TEST(Histogram, TailQuantilesExactVersusSortedSamples) {
  // A latency-shaped distribution where the p999 tail lives far past the top
  // bucket: every quantile that lands in the overflow (or underflow) region
  // must match SampleSet::Percentile on the same data exactly, because both
  // interpolate over the same sorted samples with the same rank convention.
  Histogram h(0.0, 1.0, 50);  // Bucketed range [0, 50).
  SampleSet s;
  for (int i = 0; i < 5000; ++i) {
    // Bulk in-range mass plus a long deterministic tail to ~2000.
    const double x = (i % 997 < 960)
                         ? static_cast<double>(i % 47) + 0.25
                         : 50.0 + static_cast<double>((i * 37) % 1951);
    h.Add(x);
    s.Add(x);
  }
  h.Add(-3.5);  // A lone underflow sample.
  s.Add(-3.5);
  EXPECT_GT(h.Overflow(), 0u);
  for (double p : {0.995, 0.999, 0.9999, 1.0}) {
    EXPECT_DOUBLE_EQ(h.Quantile(p), s.Percentile(p)) << "p=" << p;
  }
  EXPECT_DOUBLE_EQ(h.Quantile(0.0), s.Percentile(0.0));
  // In-range quantiles keep the bucket-resolution guarantee.
  for (double p : {0.1, 0.5, 0.9}) {
    EXPECT_NEAR(h.Quantile(p), s.Percentile(p), 1.0) << "p=" << p;
  }
}

TEST(Histogram, QuantileTracksExactPercentiles) {
  // Dense-bucket histogram vs the exact SampleSet on the same data: with one
  // sample per bucket midpoint the two rank conventions must agree exactly;
  // on arbitrary data they agree to within one bucket width.
  Histogram h(0.0, 1.0, 100);
  SampleSet s;
  for (int i = 0; i < 100; ++i) {
    const double x = static_cast<double>(i) + 0.5;
    h.Add(x);
    s.Add(x);
  }
  for (double p : {0.0, 0.1, 0.5, 0.9, 0.95, 1.0}) {
    EXPECT_NEAR(h.Quantile(p), s.Percentile(p), 1.0) << "p=" << p;
  }
  EXPECT_NEAR(h.Median(), s.Median(), 1.0);
}

}  // namespace
}  // namespace afraid
