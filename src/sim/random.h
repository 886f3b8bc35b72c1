// Seeded random-number utilities for reproducible workload generation.
//
// Every stochastic component in the simulator takes an explicit seed; two
// runs with the same seed produce bit-identical traces and results. Pareto
// and exponential draws are provided because disk-workload burst/idle-period
// lengths are classically modelled as heavy-tailed [Ruemmler93, Golding95].

#ifndef AFRAID_SIM_RANDOM_H_
#define AFRAID_SIM_RANDOM_H_

#include <cassert>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <random>

namespace afraid {

// Derives statistically independent seeds from a (base seed, stream index)
// pair via the SplitMix64 finalizer. Unlike Rng::Fork(), which depends on how
// many draws the parent has made, the derived seed is a pure function of its
// inputs -- so parallel workers (one RNG stream per worker or per Monte-Carlo
// lifetime) get identical streams no matter how work is scheduled across
// threads. Stream 0 with base b differs from Rng(b) itself.
constexpr uint64_t DeriveStreamSeed(uint64_t base, uint64_t stream) {
  uint64_t z = base + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

class Rng {
 public:
  explicit Rng(uint64_t seed) : engine_(seed) {}

  // Uniform integer in [lo, hi], inclusive.
  int64_t UniformInt(int64_t lo, int64_t hi) {
    assert(lo <= hi);
    return std::uniform_int_distribution<int64_t>(lo, hi)(engine_);
  }

  // Uniform double in [lo, hi).
  double UniformDouble(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  // True with probability p.
  bool Bernoulli(double p) {
    assert(p >= 0.0 && p <= 1.0);
    return std::bernoulli_distribution(p)(engine_);
  }

  // Exponential with the given mean (not rate).
  double ExponentialMean(double mean) {
    assert(mean > 0.0);
    return std::exponential_distribution<double>(1.0 / mean)(engine_);
  }

  // Pareto with shape `alpha` and minimum `xm`, optionally truncated at
  // `cap` (<=0 means uncapped). Heavy-tailed for alpha in (1, 2].
  double Pareto(double alpha, double xm, double cap = 0.0) {
    assert(alpha > 0.0 && xm > 0.0);
    const double u = std::uniform_real_distribution<double>(
        std::numeric_limits<double>::min(), 1.0)(engine_);
    double v = xm / std::pow(u, 1.0 / alpha);
    if (cap > 0.0 && v > cap) {
      v = cap;
    }
    return v;
  }

  // Normal (Gaussian).
  double Normal(double mean, double stddev) {
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

  // Geometric number of trials >= 1 with success probability p: models run
  // lengths (e.g. sequential-access runs).
  int64_t GeometricTrials(double p) {
    assert(p > 0.0 && p <= 1.0);
    return 1 + std::geometric_distribution<int64_t>(p)(engine_);
  }

  // Picks an index in [0, weights.size()) proportionally to the weights.
  template <typename Container>
  size_t WeightedIndex(const Container& weights) {
    double total = 0.0;
    for (double w : weights) {
      total += w;
    }
    assert(total > 0.0);
    double x = UniformDouble(0.0, total);
    size_t i = 0;
    for (double w : weights) {
      if (x < w || i + 1 == static_cast<size_t>(std::size(weights))) {
        return i;
      }
      x -= w;
      ++i;
    }
    return static_cast<size_t>(std::size(weights)) - 1;
  }

  // Derives an independent child RNG; used to give each workload component
  // its own stream so adding draws to one does not perturb another.
  Rng Fork() { return Rng(engine_()); }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace afraid

#endif  // AFRAID_SIM_RANDOM_H_
