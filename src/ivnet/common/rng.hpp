// Deterministic random number generation for simulations.
//
// Every stochastic component in ivnet draws from an explicitly-passed Rng so
// that experiments are reproducible from a single seed. The generator is a
// SplitMix64-seeded xoshiro256++, which is fast, high quality, and has a
// trivially serializable state.
#pragma once

#include <array>
#include <cstdint>

namespace ivnet {

/// Deterministic pseudo-random generator (xoshiro256++).
///
/// Satisfies std::uniform_random_bit_generator so it can be used with
/// standard <random> distributions, but also provides the handful of
/// distributions the simulator needs directly (uniform, normal, phase).
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the full 256-bit state from `seed` via SplitMix64.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  /// Next raw 64-bit draw.
  result_type operator()();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Standard normal draw (Box-Muller; one value per call, caches the pair).
  /// For scalar parameter draws only (clock errors, sensor noise, array
  /// jitter): per-sample noise goes through signal/gauss.hpp, whose sampler
  /// is libm-free and takes exactly one raw draw per value.
  double normal();

  /// Normal draw with the given mean and standard deviation.
  double normal(double mean, double stddev);

  /// Uniform phase in [0, 2*pi) — the paper's beta_i distribution (Sec. 3.3).
  double phase();

  /// Counter-based stream derivation: an independent generator for trial
  /// `index` of a Monte-Carlo run keyed by `base_seed`. Purely a function of
  /// (base_seed, index) — no shared state — so trials can be evaluated in
  /// any order, on any thread, and still draw identical values. This is the
  /// determinism contract of the parallel trial loops.
  static Rng stream(std::uint64_t base_seed, std::uint64_t index);

  /// Raw xoshiro256++ state, for the tiled AWGN sampler (signal/gauss.cpp
  /// copies the four words into registers, runs operator()'s recurrence
  /// over a tile of draws, and stores the words back, bit-for-bit the
  /// state operator() would reach). Not for general use: mutating the state
  /// directly bypasses the cached Box-Muller pair.
  const std::array<std::uint64_t, 4>& raw_state() const { return state_; }
  void set_raw_state(const std::array<std::uint64_t, 4>& s) { state_ = s; }

 private:
  std::array<std::uint64_t, 4> state_{};
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace ivnet
