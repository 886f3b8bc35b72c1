// Time-weighted integration of a piecewise-constant signal.
//
// Used for the paper's availability accounting: the *parity lag* (bytes of
// unredundant non-parity data) is a step function of simulated time; its
// time-average is the "mean parity lag" of Section 3.2, and the fraction of
// time it is non-zero is Tunprot/Ttotal of Section 3.1.

#ifndef AFRAID_STATS_TIME_WEIGHTED_H_
#define AFRAID_STATS_TIME_WEIGHTED_H_

#include <cassert>
#include <cstdint>

#include "sim/time.h"

namespace afraid {

class TimeWeightedValue {
 public:
  // `start` is the time observation begins; the signal is `initial` there.
  explicit TimeWeightedValue(SimTime start = 0, double initial = 0.0)
      : start_(start), last_change_(start), value_(initial) {}

  // Records that the signal changed to `value` at time `now` (>= previous
  // change). Consecutive equal values are harmless.
  void Set(SimTime now, double value) {
    assert(now >= last_change_);
    Accumulate(now);
    value_ = value;
  }

  void Add(SimTime now, double delta) { Set(now, value_ + delta); }

  double Current() const { return value_; }

  // Integral of the signal from start to `now` (value x seconds).
  double IntegralTo(SimTime now) const {
    return integral_ + value_ * ToSeconds(now - last_change_);
  }

  // Time-average of the signal over [start, now]. At zero elapsed time the
  // average over the empty interval is defined as the current value (not the
  // 0/0 the integral form would produce).
  double MeanTo(SimTime now) const {
    const double span = ToSeconds(now - start_);
    return span <= 0.0 ? value_ : IntegralTo(now) / span;
  }

  // Total time (seconds) the signal has been strictly positive.
  double PositiveSecondsTo(SimTime now) const {
    double t = positive_seconds_;
    if (value_ > 0.0) {
      t += ToSeconds(now - last_change_);
    }
    return t;
  }

  // Fraction of [start, now] the signal has been strictly positive. At zero
  // elapsed time this is 1 if the signal is currently positive, else 0
  // (consistent with MeanTo's empty-interval convention, and never 0/0).
  double PositiveFractionTo(SimTime now) const {
    const double span = ToSeconds(now - start_);
    return span <= 0.0 ? (value_ > 0.0 ? 1.0 : 0.0) : PositiveSecondsTo(now) / span;
  }

 private:
  void Accumulate(SimTime now) {
    // A zero signal adds exactly +0.0 to the integral, which never holds
    // -0.0, so the interval's division is skipped (a disk's busy signal is
    // zero before every op it starts).
    if (value_ != 0.0) {
      const double dt = ToSeconds(now - last_change_);
      integral_ += value_ * dt;
      if (value_ > 0.0) {
        positive_seconds_ += dt;
      }
    }
    last_change_ = now;
  }

  SimTime start_ = 0;
  SimTime last_change_ = 0;
  double value_ = 0.0;
  double integral_ = 0.0;          // value x seconds
  double positive_seconds_ = 0.0;  // seconds with value > 0
};

}  // namespace afraid

#endif  // AFRAID_STATS_TIME_WEIGHTED_H_
