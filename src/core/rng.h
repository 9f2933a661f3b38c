#ifndef WAVEMR_CORE_RNG_H_
#define WAVEMR_CORE_RNG_H_

#include <cstdint>

namespace wavemr {

/// Finalizer from SplitMix64 / MurmurHash3: a high-quality 64-bit mixer.
constexpr uint64_t Mix64(uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Sequential SplitMix64 generator. Fast, seedable, and good enough for the
/// sampling experiments in this library (we never need crypto strength).
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}

  /// Next pseudo-random 64-bit value.
  uint64_t NextU64() {
    state_ += 0x9e3779b97f4a7c15ULL;
    uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  /// Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [0, bound); bound must be > 0. Uses rejection to
  /// avoid modulo bias.
  uint64_t NextBounded(uint64_t bound);

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool Bernoulli(double p) { return NextDouble() < p; }

 private:
  uint64_t state_;
};

/// A stateless, counter-based random stream: Stream(seed, index) yields an
/// independent-looking generator for each index. This is what makes datasets
/// in this library *deterministically random-accessible*: record i of split j
/// can be regenerated in O(1) without scanning, which the RandomRecordReader
/// (paper Appendix B) relies on.
class CounterRng {
 public:
  CounterRng(uint64_t seed, uint64_t stream, uint64_t counter)
      : base_(Mix64(seed ^ Mix64(stream ^ 0x5bf03635f0935ad5ULL)) ^
              Mix64(counter ^ 0x27220a95fe1cbf45ULL)),
        i_(0) {}

  uint64_t NextU64() { return Mix64(base_ + (++i_) * 0x9e3779b97f4a7c15ULL); }

  double NextDouble() {
    return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
  }

 private:
  uint64_t base_;
  uint64_t i_;
};

/// Pseudo-random permutation of [0, 2^bits) built from a 4-round Feistel
/// network. Used to scatter Zipf ranks over the key domain so that frequency
/// is not a monotone function of key value (ZipfDatasetOptions::permute_keys).
class FeistelPermutation {
 public:
  /// bits must be in [2, 62] and even behaviour is handled internally.
  FeistelPermutation(uint64_t seed, uint32_t bits);

  /// Maps x in [0, 2^bits) to a unique value in the same range.
  uint64_t Apply(uint64_t x) const;

  /// Inverse mapping.
  uint64_t Invert(uint64_t y) const;

  uint32_t bits() const { return bits_; }

 private:
  static constexpr int kRounds = 4;
  uint32_t bits_;
  uint32_t half_bits_;
  uint64_t half_mask_;
  uint64_t keys_[kRounds];
};

}  // namespace wavemr

#endif  // WAVEMR_CORE_RNG_H_
