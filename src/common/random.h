// Seeded random-number helper. Every stochastic component of the library
// (error injection, data generation, partition seeding)
// takes an explicit Rng so that experiments are reproducible.

#ifndef MLNCLEAN_COMMON_RANDOM_H_
#define MLNCLEAN_COMMON_RANDOM_H_

#include <cstdint>
#include <random>
#include <string>
#include <vector>

namespace mlnclean {

/// Deterministic pseudo-random source (mt19937_64 under the hood).
class Rng {
 public:
  explicit Rng(uint64_t seed) : engine_(seed) {}

  /// Uniform integer in [0, n). n must be > 0.
  uint64_t NextIndex(uint64_t n);

  /// Uniform integer in [lo, hi] inclusive.
  int64_t NextInt(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Bernoulli draw with probability p of true.
  bool NextBool(double p);

  /// Uniformly chosen element of `items`; items must be non-empty.
  template <typename T>
  const T& Choose(const std::vector<T>& items) {
    return items[NextIndex(items.size())];
  }

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* items) {
    for (size_t i = items->size(); i > 1; --i) {
      std::swap((*items)[i - 1], (*items)[NextIndex(i)]);
    }
  }

  /// Derives an independent child generator (for per-worker streams).
  Rng Fork();

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace mlnclean

#endif  // MLNCLEAN_COMMON_RANDOM_H_
