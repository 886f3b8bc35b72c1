// A retained-sample collection supporting exact percentiles.
//
// Latency distributions in the experiments are small enough (<= a few million
// samples) that retaining everything is cheaper and more faithful than a
// sketch. Percentile() selects with nth_element, so each query is O(n) and
// permutes the retained samples in place (Samples() keeps the multiset, not
// the insertion order).

#ifndef AFRAID_STATS_SAMPLE_SET_H_
#define AFRAID_STATS_SAMPLE_SET_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "stats/streaming.h"

namespace afraid {

class SampleSet {
 public:
  SampleSet() = default;
  // Adopts `samples` without copying; the summary sees them in order, so
  // every statistic equals that of Add()ing them one by one.
  explicit SampleSet(std::vector<double> samples)
      : samples_(std::move(samples)) {
    for (const double x : samples_) {
      summary_.Add(x);
    }
  }

  void Add(double x) {
    samples_.push_back(x);
    summary_.Add(x);
  }

  uint64_t Count() const { return summary_.Count(); }
  double Mean() const { return summary_.Mean(); }
  double Min() const { return summary_.Min(); }
  double Max() const { return summary_.Max(); }
  double StdDev() const { return summary_.StdDev(); }
  double Sum() const { return summary_.Sum(); }

  // Exact p-quantile with linear interpolation, p in [0, 1]: the order
  // statistics at ranks floor(p(n-1)) and the one after it, blended. Rank
  // lo is selected in place; rank lo+1 is then the minimum of the part above
  // it, so the result equals the sorted-array formula bit for bit.
  double Percentile(double p) {
    assert(p >= 0.0 && p <= 1.0);
    if (samples_.empty()) {
      return 0.0;
    }
    const double pos = p * static_cast<double>(samples_.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const auto at = samples_.begin() + static_cast<std::ptrdiff_t>(lo);
    std::nth_element(samples_.begin(), at, samples_.end());
    const double lo_value = *at;
    const double hi_value =
        lo + 1 < samples_.size() ? *std::min_element(at + 1, samples_.end())
                                 : lo_value;
    const double frac = pos - static_cast<double>(lo);
    return lo_value * (1.0 - frac) + hi_value * frac;
  }

  double Median() { return Percentile(0.5); }

  const std::vector<double>& Samples() const { return samples_; }

  // Pre-sizes the backing storage so a steady stream of Add()s does not
  // reallocate mid-run (used by allocation-free-path harnesses).
  void Reserve(size_t n) { samples_.reserve(n); }

  void Reset() {
    samples_.clear();
    summary_.Reset();
  }

 private:
  std::vector<double> samples_;
  StreamingStats summary_;
};

}  // namespace afraid

#endif  // AFRAID_STATS_SAMPLE_SET_H_
