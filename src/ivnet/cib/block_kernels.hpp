// The cib block kernels: one instruction-set level's table of the kernels
// that work on one block of kBlockTrials Monte-Carlo trials, one trial per
// vector lane. cib/delta_impl.hpp writes them once; delta_objective.cpp
// (baseline ISA), delta_avx2.cpp (AVX2) and delta_avx512.cpp (AVX-512F)
// compile them, and block_kernels() hands the running level's table to the
// delta evaluator (delta_objective.cpp) and the Eq. 6 objective
// (objective.cpp). Internal to cib and its tests.
#pragma once

#include <cstddef>
#include <cstdint>

namespace ivnet::detail {

/// Trials per block: one per lane of a 512-bit vector, at every level, so a
/// block's layout never depends on which level runs it.
inline constexpr std::size_t kBlockTrials = 8;

/// One tone that score_move/commit_move moves, seen from one block.
struct ToneMove {
  double old_hz = 0.0;
  double new_hz = 0.0;
  const double* phases = nullptr;  ///< the tone's phase in each lane
};

/// One instruction-set level of the block kernels. Every level writes the
/// same bytes.
struct BlockKernels {
  // --- The delta evaluator. A block's lanes are `steps` rows of
  // kBlockTrials int64, one per trial; re and im sit in two arrays.

  /// Adds tones [0, n) into a block's lanes: tone i at offsets_hz[i], with
  /// phase phases[kBlockTrials * i + l] in lane l, each sample quantized.
  void (*accumulate)(std::int64_t* re, std::int64_t* im, std::size_t steps,
                     double dt, const double* offsets_hz, std::size_t n,
                     const double* phases);
  /// Writes each lane's refined peak envelope amplitude to
  /// peaks[0, kBlockTrials). With a `move`, the old tone comes out of the
  /// sums and the new one goes in on the fly; with out_re/out_im as well,
  /// the adjusted sums are written there (they may alias re/im: each row is
  /// read before it is written).
  void (*scan)(const std::int64_t* re, const std::int64_t* im,
               std::size_t steps, double dt, const ToneMove* move,
               std::int64_t* out_re, std::int64_t* out_im, double* peaks);
  /// q[l] = the quantizer's rounding of x[l] for kBlockTrials values.
  void (*llround)(const double* x, std::int64_t* q);

  // --- The Eq. 6 scan (cib/objective.cpp's scan_envelope_sq, a block at a
  // time): the squared envelope of n unit tones, tone i at offsets_hz[i]
  // with phase phases[kBlockTrials * i + l] in lane l, at `steps` grid
  // points dt apart.

  /// Writes each lane's refined peak amplitude (peak_envelope's) to
  /// peaks[0, kBlockTrials).
  void (*envelope_peaks)(const double* offsets_hz, std::size_t n,
                         const double* phases, std::size_t steps, double dt,
                         double* peaks);
  /// Writes to counts[0, kBlockTrials) how many of each lane's samples have
  /// a squared envelope at or above threshold_sq.
  void (*envelope_above)(const double* offsets_hz, std::size_t n,
                         const double* phases, std::size_t steps, double dt,
                         double threshold_sq, std::uint64_t* counts);
};

/// The AVX2 level (delta_avx2.cpp). Call only when isa_level() is kAvx2Fma.
const BlockKernels* avx2_block_kernels();

/// The AVX-512 level (delta_avx512.cpp). Call only when isa_level() is
/// kAvx512.
const BlockKernels* avx512_block_kernels();

/// The running level's kernels (common/isa.hpp's choice).
const BlockKernels& block_kernels();

/// Block b's phase draws for n tones, laid out [tone][lane]: lane l is
/// trial t = kBlockTrials * b + l, whose tone i gets the i-th phase() of
/// Rng::stream(base, t) — the draws the per-trial path makes for trial t.
/// Lanes past `trials` (ghost lanes) get phase 0.
void draw_block_phases(std::uint64_t base, std::size_t b, std::size_t trials,
                       std::size_t n, double* phases);

}  // namespace ivnet::detail
