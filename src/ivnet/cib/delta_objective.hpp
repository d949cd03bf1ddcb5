// Delta-evaluated Eq. 6 objective for the large-N frequency planner.
//
// The annealing search moves ONE offset per step, so re-scoring a candidate
// does not need the full O(N * steps * trials) envelope pass: this state
// object keeps, for every Monte-Carlo trial, the complex sum of all tone
// phasors at every evaluation-grid sample, and evaluates a single-offset
// move by subtracting the old tone's trajectory and adding the new one —
// O(steps) per trial per move, independent of N.
//
// Exactness contract (the property the planner tests memcmp): the per-step
// partial sums are held in FIXED-POINT int64 lanes (each tone sample is
// quantized once at 2^-40 resolution, see kQuantScale, rounded by
// detail::exact_llround, which equals std::llround bit for bit). Integer
// addition is exact and associative, so a sum reached through any history
// of subtract-old/add-new updates — or a build that adds tones several at a
// time — is bit-identical to a from-scratch rebuild over the same tone set,
// which floating-point accumulation cannot guarantee. Dequantizing
// (`double(sum) * 2^-40`) is exact too (sums stay far below 2^53 and the
// scale is a power of two), so the envelope values, the per-trial peaks,
// and the final score stream are memcmp-identical between the delta path
// and `full_score`, the retained full evaluation.
//
// Accuracy contract: quantization costs at most 2^-41 per tone sample
// (~1e-10 absolute on an N-tone envelope), pinned against the original
// double-precision `expected_peak_amplitude` oracle with tolerance in the
// planner tests. The grid, phase draws (common random numbers from
// score_seed via counter-derived Rng::stream sub-streams), peak scan, and
// parabolic refinement all mirror cib/objective.cpp, and the tone rotation
// uses the same anchor-every-4096-steps policy as signal/phasor.hpp.
//
// Layout: structure-of-arrays — one int64 re lane and one im lane per
// trial, `steps` samples each, contiguous per trial so the per-trial update
// is a single linear pass.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ivnet/common/rng.hpp"

namespace ivnet {

struct DeltaEvalConfig {
  std::size_t mc_trials = 32;       ///< phase draws per score
  double t_max_s = 1.0;             ///< cyclic period (T = 1 s)
  std::uint64_t score_seed = 1234;  ///< common random numbers for scoring
  /// Evaluation-grid samples. 0 derives planner_steps() from the build
  /// set's largest offset. Must stay fixed for the lifetime of the state
  /// (moves change the max offset; a per-candidate grid would invalidate
  /// every partial sum), so the planner sizes it from the feasibility cap.
  std::size_t steps = 0;
};

namespace detail {

/// std::llround(x), bit for bit, for |x| < 2^53, inline instead of a libm
/// call. Truncation gives q; x - q is then exactly the fractional part, and
/// a half or more in either direction steps q away from zero (so ties round
/// away from zero, and x = 0.5 - 2^-54 still rounds to 0).
inline std::int64_t exact_llround(double x) {
  const auto q = static_cast<std::int64_t>(x);
  const double r = x - static_cast<double>(q);
  return q + (r >= 0.5) - (r <= -0.5);
}

}  // namespace detail

/// Per-trial fixed-point partial sums of the Eq. 6 envelope over the
/// evaluation grid, supporting O(steps)-per-trial single-offset moves.
/// Not thread-safe for concurrent mutation; the build, score_move,
/// commit_move and full_score parallelize internally over trials, one trial
/// per pool claim (deterministic at any IVNET_THREADS: per-trial slots,
/// trial-order reduction).
class DeltaEnvelopeState {
 public:
  /// Grid ceiling for the planner. The state holds 16 bytes per
  /// (trial, sample), so memory is mc_trials * steps * 16 — at this
  /// ceiling and 32 trials that is 64 MiB; size mc_trials accordingly.
  static constexpr std::size_t kMaxPlannerSteps = 1u << 17;

  /// ~16 samples per cycle of the fastest allowed beat (the same heuristic
  /// as default_steps), clamped to [256, kMaxPlannerSteps]. `max_offset_hz`
  /// should be the search's offset cap, not the current set's max, so the
  /// grid never changes mid-search. An infinite product clamps to the
  /// ceiling; a NaN offset falls out of the max(1, .) guard (same policy
  /// as default_steps) and lands on the floor.
  static std::size_t planner_steps(double max_offset_hz, double t_max_s);

  /// Builds the partial sums for `offsets_hz` (tone i pairs with the i-th
  /// phase draw of each trial; order is the caller's, no sorting).
  DeltaEnvelopeState(std::span<const double> offsets_hz,
                     const DeltaEvalConfig& config);

  /// Mean-over-trials peak envelope amplitude of the current offset set.
  double score() const { return score_; }

  /// Score of the set with tone `tone` moved to `new_offset_hz`, without
  /// mutating the state. O(steps) per trial. Throws std::out_of_range when
  /// `tone` is not below the tone count.
  double score_move(std::size_t tone, double new_offset_hz) const;

  /// Applies the move: updates the partial sums, per-trial peaks, and
  /// score(). After commit, score() is bit-identical to what score_move
  /// returned for the same move. Throws std::out_of_range (state untouched)
  /// when `tone` is not below the tone count.
  void commit_move(std::size_t tone, double new_offset_hz);

  /// The retained full evaluation (the delta oracle): rebuilds the partial
  /// sums for `offsets_hz` from scratch — same trials, phases, and grid —
  /// and scores them. Bit-identical to the delta path for the same offset
  /// set, whatever move history produced it. Throws std::invalid_argument
  /// when `offsets_hz` does not hold one offset per tone.
  double full_score(std::span<const double> offsets_hz) const;

  std::span<const double> offsets_hz() const { return offsets_; }
  std::size_t steps() const { return steps_; }
  std::size_t trials() const { return config_.mc_trials; }

 private:
  DeltaEvalConfig config_;
  std::size_t steps_ = 0;
  double dt_ = 0.0;
  std::vector<double> offsets_;  ///< current set, tone order
  std::vector<double> phases_;   ///< trials x n, phases_[t * n + i]
  std::vector<std::int64_t> sum_re_;  ///< trials x steps fixed-point lanes
  std::vector<std::int64_t> sum_im_;
  std::vector<double> peaks_;  ///< per-trial refined peak amplitude
  double score_ = 0.0;
};

}  // namespace ivnet
