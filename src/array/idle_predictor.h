// Adaptive idle-period prediction, after the ideas in [Golding95]
// ("Idleness is not sloth").
//
// The AFRAID paper triggers rebuilds with a plain 100 ms timer and notes
// that "the output from the idle-period predictor was ignored" in its
// baseline; this class provides the predictor for the adaptive
// configurations. It watches the lengths of past idle periods and predicts
// how long the current one will last; a rebuilder can then skip starting
// work in gaps predicted to be too short to fit even one stripe rebuild.
//
// Predictor: exponentially weighted moving average (EWMA) of past idle
// durations with an EWMA of the absolute deviation, conservatively
// discounted: predicted = max(0, mean - kDeviationWeight * deviation).

#ifndef AFRAID_ARRAY_IDLE_PREDICTOR_H_
#define AFRAID_ARRAY_IDLE_PREDICTOR_H_

#include <algorithm>
#include <cstdint>

#include "sim/time.h"

namespace afraid {

class IdlePredictor {
 public:
  // `alpha` is the EWMA smoothing weight for new observations.
  explicit IdlePredictor(double alpha = 0.25) : alpha_(alpha) {}

  // Feed one completed idle-period duration.
  void ObserveIdlePeriod(SimDuration duration) {
    const double x = static_cast<double>(duration);
    if (observations_ == 0) {
      mean_ = x;
      deviation_ = x / 2;
    } else {
      const double err = x - mean_;
      mean_ += alpha_ * err;
      deviation_ += alpha_ * ((err < 0 ? -err : err) - deviation_);
    }
    ++observations_;
  }

  // Conservative prediction of how long a just-started idle period will
  // last. Returns 0 until enough history exists. Idle-period populations
  // are heavy-tailed, so the deviation can exceed the mean; the prediction
  // is floored at a fraction of the mean rather than collapsing to zero.
  SimDuration PredictIdleDuration() const {
    if (observations_ < kMinObservations) {
      return 0;
    }
    const double predicted =
        std::max(kMeanFloor * mean_, mean_ - kDeviationWeight * deviation_);
    return static_cast<SimDuration>(predicted);
  }

  // Same, but after `already_idle` has elapsed in the current period: past
  // survival is weak evidence of more to come (idle periods are heavy-
  // tailed), so the remaining estimate never goes below a fraction of the
  // base prediction.
  SimDuration PredictRemaining(SimDuration already_idle) const {
    const SimDuration base = PredictIdleDuration();
    if (base <= 0) {
      return 0;
    }
    const SimDuration remaining = base - already_idle;
    const SimDuration floor = base / 4;
    return remaining > floor ? remaining : floor;
  }

  uint64_t Observations() const { return observations_; }

 private:
  static constexpr uint64_t kMinObservations = 4;
  static constexpr double kDeviationWeight = 0.5;
  static constexpr double kMeanFloor = 0.25;

  double alpha_;
  double mean_ = 0.0;
  double deviation_ = 0.0;
  uint64_t observations_ = 0;
};

}  // namespace afraid

#endif  // AFRAID_ARRAY_IDLE_PREDICTOR_H_
