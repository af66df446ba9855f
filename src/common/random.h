#ifndef DYNO_COMMON_RANDOM_H_
#define DYNO_COMMON_RANDOM_H_

#include <cstdint>
#include <vector>

namespace dyno {

/// Deterministic xoshiro256** pseudo-random generator. Every stochastic
/// component of the simulator (data generation, split sampling, task timing
/// jitter) draws from an explicitly seeded Rng so that experiments are
/// reproducible run-to-run.
class Rng {
 public:
  explicit Rng(uint64_t seed);

  /// Uniform 64-bit value.
  uint64_t Next();

  /// Uniform in [0, bound). `bound` must be > 0.
  uint64_t Uniform(uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Bernoulli draw with probability `p` of returning true.
  bool Bernoulli(double p);

  /// Samples `k` distinct indices out of [0, n) via reservoir sampling, in
  /// selection order. If k >= n, returns all indices shuffled.
  std::vector<uint64_t> SampleWithoutReplacement(uint64_t n, uint64_t k);

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    if (v->empty()) return;
    for (uint64_t i = v->size() - 1; i > 0; --i) {
      uint64_t j = Uniform(i + 1);
      std::swap((*v)[i], (*v)[j]);
    }
  }

 private:
  uint64_t s_[4];
};

}  // namespace dyno

#endif  // DYNO_COMMON_RANDOM_H_
