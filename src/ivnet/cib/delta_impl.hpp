// Private to the delta evaluator's two translation units:
// delta_objective.cpp (baseline ISA) and delta_avx2.cpp (AVX2). Not for
// other includers.
//
// The kernels work on one block of four Monte-Carlo trials, one trial per
// vector lane, written once in GCC vector extensions (+, -, * and compares
// act per lane with the scalar IEEE semantics; the baseline unit runs each
// 4-lane vector as two SSE2 halves). Every trial rotates a tone by the same
// step, so the four lanes run one op sequence, and each lane op is the
// elementwise image of the per-trial scalar sequence that
// tests/naive_delta.hpp keeps as the oracle:
//   * multiplies and adds stay separate, never fused (both units build with
//     -ffp-contract=off, and neither gets -mfma);
//   * the quantizer rounds exactly as std::llround does (llround_lanes);
//   * sums are int64, and their conversion to double is exact below 2^53
//     (to_double);
//   * cos and sin are the same libm calls, one lane at a time.
// So lanes, peaks and scores are the same bytes at either level.
//
// Everything after the table has internal linkage, so each unit compiles its
// own copy with its own flags. With external (inline) linkage the linker
// would keep one copy per helper, and could hand the baseline path an
// AVX2-encoded one that faults on a CPU without AVX2. For the same reason
// nothing here may instantiate a template outside the anonymous namespace.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "ivnet/common/units.hpp"

namespace ivnet::detail {

/// One tone that score_move/commit_move moves, seen from one block.
struct ToneMove {
  double old_hz = 0.0;
  double new_hz = 0.0;
  const double* phases = nullptr;  ///< the tone's phase in each lane
};

/// One instruction-set level of the delta evaluator. A block's lanes are
/// `steps` rows of four int64, one per trial; re and im sit in two arrays.
struct DeltaKernels {
  /// Adds tones [0, n) into a block's lanes: tone i at offsets_hz[i], with
  /// phase phases[4 * i + l] in lane l, each sample quantized.
  void (*accumulate)(std::int64_t* re, std::int64_t* im, std::size_t steps,
                     double dt, const double* offsets_hz, std::size_t n,
                     const double* phases);
  /// Writes each lane's refined peak envelope amplitude to peaks[0, 4).
  /// With a `move`, the old tone comes out of the sums and the new one goes
  /// in on the fly; with out_re/out_im as well, the adjusted sums are
  /// written there (they may alias re/im: each row is read before it is
  /// written).
  void (*scan)(const std::int64_t* re, const std::int64_t* im,
               std::size_t steps, double dt, const ToneMove* move,
               std::int64_t* out_re, std::int64_t* out_im, double* peaks);
  /// q[l] = the quantizer's rounding of x[l] for four values.
  void (*llround)(const double* x, std::int64_t* q);
};

/// The AVX2 level (delta_avx2.cpp). Call only when isa_level() is kAvx2Fma.
const DeltaKernels* avx2_delta_kernels();

namespace {

/// Trials per block: one per vector lane.
constexpr std::size_t kBlockTrials = 4;

/// Same anchor cadence as cib/objective.cpp and signal/phasor.hpp: the
/// incremental rotation is re-anchored from cos/sin every 4096 steps so
/// multiplicative drift stays O(4096 * eps).
constexpr std::size_t kRenormInterval = 4096;

/// Fixed-point resolution of a tone sample: 2^40. Tone re/im lie in
/// [-1, 1] (plus O(kRenormInterval * eps) rotation drift), so a quantized
/// sample fits in 41 bits and sums of up to 2^12 tones stay below 2^53 —
/// the range where both the int64 sum and its double conversion are exact.
constexpr double kQuantScale = 0x1p40;
constexpr double kInvQuantScale = 0x1p-40;

/// Tiles of kTile steps: the build keeps a tile of a block's lanes (64 bytes
/// a step) in L1 while every tone of a chunk adds into it, and the scan
/// buffers a tile's squared envelope for the running peak. kTile divides
/// kRenormInterval, so no tile straddles a re-anchor.
constexpr std::size_t kTile = 256;
constexpr std::size_t kToneChunk = 32;
/// Tones the build adds per pass over a tile.
constexpr std::size_t kToneGroup = 3;
static_assert(kRenormInterval % kTile == 0);

// --- Lanes ---------------------------------------------------------------
//
// The unit's native vector is 256-bit where it is built with AVX
// (delta_avx2.cpp) and 128-bit SSE2 otherwise. GCC lowers a compare on a
// vector wider than the target's registers one element at a time, so a
// block's four lanes are held as kParts native vectors, and every op below
// runs part by part.

#if defined(__AVX__)
constexpr std::size_t kNativeLanes = 4;
#else
constexpr std::size_t kNativeLanes = 2;
#endif
constexpr std::size_t kParts = kBlockTrials / kNativeLanes;

using NativeD = double __attribute__((vector_size(8 * kNativeLanes)));
using NativeI = std::int64_t __attribute__((vector_size(8 * kNativeLanes)));
using NativeU = std::uint64_t __attribute__((vector_size(8 * kNativeLanes)));

/// Four doubles, one per trial of a block.
struct Lanes {
  NativeD v[kParts];
};

/// Four int64, one per trial: fixed-point sums, or masks (-1 where true).
struct Ints {
  NativeI v[kParts];
};

/// x in every element (element by element: an add to a zero vector would
/// turn -0.0 into +0.0).
inline NativeD native_splat(double x) {
  NativeD v;
  for (std::size_t l = 0; l < kNativeLanes; ++l) v[l] = x;
  return v;
}

inline NativeU native_bits(std::uint64_t x) { return NativeU{} + x; }

inline Lanes splat(double x) {
  Lanes r;
  for (std::size_t p = 0; p < kParts; ++p) r.v[p] = native_splat(x);
  return r;
}

inline Ints splat_ints(std::int64_t x) {
  Ints r;
  for (std::size_t p = 0; p < kParts; ++p) r.v[p] = NativeI{} + x;
  return r;
}

inline Lanes operator+(Lanes a, Lanes b) {
  for (std::size_t p = 0; p < kParts; ++p) a.v[p] += b.v[p];
  return a;
}

inline Lanes operator-(Lanes a, Lanes b) {
  for (std::size_t p = 0; p < kParts; ++p) a.v[p] -= b.v[p];
  return a;
}

inline Lanes operator*(Lanes a, Lanes b) {
  for (std::size_t p = 0; p < kParts; ++p) a.v[p] *= b.v[p];
  return a;
}

inline Ints operator+(Ints a, Ints b) {
  for (std::size_t p = 0; p < kParts; ++p) a.v[p] += b.v[p];
  return a;
}

inline Ints operator-(Ints a, Ints b) {
  for (std::size_t p = 0; p < kParts; ++p) a.v[p] -= b.v[p];
  return a;
}

/// -1 in the lanes where a > b.
inline Ints greater(Lanes a, Lanes b) {
  Ints r;
  for (std::size_t p = 0; p < kParts; ++p) r.v[p] = a.v[p] > b.v[p];
  return r;
}

/// a where mask is -1, b where it is 0, bit for bit.
inline Lanes select(Ints mask, Lanes a, Lanes b) {
  for (std::size_t p = 0; p < kParts; ++p) {
    a.v[p] = (NativeD)((mask.v[p] & (NativeI)a.v[p]) |
                       (~mask.v[p] & (NativeI)b.v[p]));
  }
  return a;
}

inline Ints select(Ints mask, Ints a, Ints b) {
  for (std::size_t p = 0; p < kParts; ++p) {
    a.v[p] = (mask.v[p] & a.v[p]) | (~mask.v[p] & b.v[p]);
  }
  return a;
}

// Loads and stores go part by part, each one native vector wide: a copy of
// the whole struct would be split into 16-byte pieces.
inline Lanes load_lanes(const double* src) {
  Lanes v;
  for (std::size_t p = 0; p < kParts; ++p) {
    std::memcpy(&v.v[p], src + p * kNativeLanes, sizeof v.v[p]);
  }
  return v;
}

inline Ints load_ints(const std::int64_t* src) {
  Ints v;
  for (std::size_t p = 0; p < kParts; ++p) {
    std::memcpy(&v.v[p], src + p * kNativeLanes, sizeof v.v[p]);
  }
  return v;
}

inline void store_lanes(double* dst, Lanes v) {
  for (std::size_t p = 0; p < kParts; ++p) {
    std::memcpy(dst + p * kNativeLanes, &v.v[p], sizeof v.v[p]);
  }
}

inline void store_ints(std::int64_t* dst, Ints v) {
  for (std::size_t p = 0; p < kParts; ++p) {
    std::memcpy(dst + p * kNativeLanes, &v.v[p], sizeof v.v[p]);
  }
}

inline double lane(const Lanes& a, std::size_t l) {
  return a.v[l / kNativeLanes][l % kNativeLanes];
}

inline std::int64_t lane(const Ints& a, std::size_t l) {
  return a.v[l / kNativeLanes][l % kNativeLanes];
}

/// True when any lane of the mask is set.
inline bool any(const Ints& mask) {
  for (std::size_t l = 0; l < kBlockTrials; ++l) {
    if (lane(mask, l) != 0) return true;
  }
  return false;
}

/// std::llround per lane for |x| < 2^51, with SSE2 operations only (GCC
/// vector casts reinterpret the bits). Adding 1.5 * 2^52 rounds x to the
/// nearest integer, ties to even, into the low mantissa bits, and `frac`,
/// x minus that integer, is exact. A tie that went toward zero leaves
/// frac = copysign(0.5, x); it steps one (2 * frac) away from zero before
/// the bits are read.
inline NativeI llround_native(NativeD x) {
  const NativeD magic = native_splat(0x1.8p52);
  const NativeI sign = (NativeI)x & (NativeI)native_splat(-0.0);
  const NativeD y = x + magic;
  const NativeD frac = x - (y - magic);
  const NativeI tie = frac == (NativeD)(sign | (NativeI)native_splat(0.5));
  const NativeD away = (NativeD)(tie & (NativeI)(frac + frac));  // +-1.0
  return (NativeI)(y + away) - (NativeI)magic;
}

inline Ints llround_lanes(Lanes x) {
  Ints q;
  for (std::size_t p = 0; p < kParts; ++p) q.v[p] = llround_native(x.v[p]);
  return q;
}

inline Ints quantize(Lanes v) { return llround_lanes(v * splat(kQuantScale)); }

/// double(q) per lane with SSE2 operations only: exact for |q| < 2^53 and
/// correctly rounded beyond. The low 32 bits become 2^52 + lo and the high
/// 32 bits (signed, offset by the xor) 2^84 + 2^63 + hi * 2^32, both exact;
/// removing the biases and one add join them.
inline Lanes to_double(Ints q) {
  Lanes r;
  for (std::size_t p = 0; p < kParts; ++p) {
    const NativeU u = (NativeU)q.v[p];
    const NativeU lo =
        (u & native_bits(0xffffffffu)) | native_bits(0x4330000000000000u);
    const NativeU hi = (u >> 32) ^ native_bits(0x4530000080000000u);
    const NativeD bias = (NativeD)native_bits(0x4530000080100000u);
    r.v[p] = ((NativeD)hi - bias) + (NativeD)lo;
  }
  return r;
}

/// One tone in a block's four lanes: its value at the current step and its
/// per-step rotation, which is the same in every lane.
struct Tone {
  Lanes re, im;
  Lanes cre, cim;
  double w;              ///< radians per grid step
  const double* phases;  ///< start phase per lane

  void start(double offset_hz, double dt, const double* lane_phases) {
    w = kTwoPi * offset_hz * dt;
    cre = splat(std::cos(w));
    cim = splat(std::sin(w));
    phases = lane_phases;
    anchor(0);
  }

  /// The value at step s from cos/sin of the exact phase.
  void anchor(std::size_t s) {
    alignas(32) double r[kBlockTrials];
    alignas(32) double i[kBlockTrials];
    for (std::size_t l = 0; l < kBlockTrials; ++l) {
      const double ph =
          s == 0 ? phases[l] : phases[l] + w * static_cast<double>(s);
      r[l] = std::cos(ph);
      i[l] = std::sin(ph);
    }
    re = load_lanes(r);
    im = load_lanes(i);
  }

  /// One step on: value *= e^{jw}, as (ac - bd, ad + bc).
  void rotate() {
    const Lanes r = re * cre - im * cim;
    im = re * cim + im * cre;
    re = r;
  }
};

/// Adds G tones into `rows` rows of lanes, carrying their rotation on.
template <std::size_t G>
void add_tile(std::int64_t* re, std::int64_t* im, std::size_t rows,
              Tone* tones) {
  Tone t[G];
  for (std::size_t k = 0; k < G; ++k) t[k] = tones[k];
  for (std::size_t s = 0; s < rows; ++s) {
    Ints qr = quantize(t[0].re);
    Ints qi = quantize(t[0].im);
    t[0].rotate();
    for (std::size_t k = 1; k < G; ++k) {
      qr = qr + quantize(t[k].re);
      qi = qi + quantize(t[k].im);
      t[k].rotate();
    }
    std::int64_t* row_re = re + kBlockTrials * s;
    std::int64_t* row_im = im + kBlockTrials * s;
    store_ints(row_re, load_ints(row_re) + qr);
    store_ints(row_im, load_ints(row_im) + qi);
  }
  for (std::size_t k = 0; k < G; ++k) tones[k] = t[k];
}

/// The build: tile by tile, every tone of a chunk adds its quantized samples
/// into the tile. Each tone keeps its own rotation sequence across tiles,
/// and the samples are integers, so neither tiling nor grouping changes the
/// sums.
void accumulate(std::int64_t* re, std::int64_t* im, std::size_t steps,
                double dt, const double* offsets_hz, std::size_t n,
                const double* phases) {
  Tone tones[kToneChunk];
  for (std::size_t i0 = 0; i0 < n; i0 += kToneChunk) {
    const std::size_t count = n - i0 < kToneChunk ? n - i0 : kToneChunk;
    for (std::size_t k = 0; k < count; ++k) {
      tones[k].start(offsets_hz[i0 + k], dt,
                     phases + kBlockTrials * (i0 + k));
    }
    for (std::size_t s0 = 0; s0 < steps; s0 += kTile) {
      const std::size_t rows = steps - s0 < kTile ? steps - s0 : kTile;
      if (s0 != 0 && s0 % kRenormInterval == 0) {
        for (std::size_t k = 0; k < count; ++k) tones[k].anchor(s0);
      }
      std::int64_t* tile_re = re + kBlockTrials * s0;
      std::int64_t* tile_im = im + kBlockTrials * s0;
      std::size_t k = 0;
      for (; k + kToneGroup <= count; k += kToneGroup) {
        add_tile<kToneGroup>(tile_re, tile_im, rows, tones + k);
      }
      for (; k < count; ++k) add_tile<1>(tile_re, tile_im, rows, tones + k);
    }
  }
}

/// The running peak of the squared envelope in each lane: the first maximum
/// (strictly greater), the sample before it, and the sample after it, which
/// is captured on the step after a new maximum.
struct RunningPeak {
  Lanes best_sq = splat(-1.0);
  Lanes prev_sq = splat(0.0);
  Lanes before = splat(0.0);
  Lanes after = splat(0.0);
  Ints best = splat_ints(0);
  Ints pending = splat_ints(0);  ///< -1 where the maximum is the last sample

  /// Step `at` (in every lane) with squared envelope sq.
  void add(Lanes sq, Ints at) {
    after = select(pending, sq, after);
    const Ints better = greater(sq, best_sq);
    best_sq = select(better, sq, best_sq);
    best = select(better, at, best);
    before = select(better, prev_sq, before);
    pending = better;
    prev_sq = sq;
  }

  /// Steps [s0, s0 + rows), row r of `sq` holding step s0 + r: the same
  /// state as add() step by step. Most tiles raise no lane's maximum; those
  /// only settle the sample after a maximum found on the tile before.
  void add_tile(const double* sq, std::size_t rows, std::size_t s0) {
    Lanes top = load_lanes(sq);
    for (std::size_t r = 1; r < rows; ++r) {
      const Lanes v = load_lanes(sq + kBlockTrials * r);
      top = select(greater(v, top), v, top);
    }
    if (!any(greater(top, best_sq))) {
      after = select(pending, load_lanes(sq), after);
      pending = splat_ints(0);
      prev_sq = load_lanes(sq + kBlockTrials * (rows - 1));
      return;
    }
    Ints at = splat_ints(static_cast<std::int64_t>(s0));
    const Ints one = splat_ints(1);
    for (std::size_t r = 0; r < rows; ++r) {
      add(load_lanes(sq + kBlockTrials * r), at);
      at = at + one;
    }
  }

  /// Lane l's parabolic-refined peak amplitude (the refinement of
  /// peak_envelope in cib/objective.cpp).
  double refined(std::size_t l, std::size_t steps) const {
    const double y1 = lane(best_sq, l);
    const auto at = static_cast<std::size_t>(lane(best, l));
    if (at == 0 || at + 1 >= steps) return std::sqrt(y1);
    const double y0 = lane(before, l);
    const double y2 = lane(after, l);
    const double denom = y0 - 2.0 * y1 + y2;
    if (std::fabs(denom) < 1e-12) return std::sqrt(y1);
    const double delta = 0.5 * (y0 - y2) / denom;
    const double peak_sq = y1 - 0.25 * (y0 - y2) * delta;
    return std::sqrt(peak_sq < y1 ? y1 : peak_sq);  // std::max(peak_sq, y1)
  }
};

/// The move scan: one pass over a block's lanes with the move applied (when
/// kMove) and written back (when kWrite), tile by tile: the squared
/// envelope of a tile goes to an L1 buffer, then into the running peak.
template <bool kMove, bool kWrite>
void scan_lanes(const std::int64_t* re, const std::int64_t* im,
                std::size_t steps, double dt, const ToneMove* move,
                std::int64_t* out_re, std::int64_t* out_im, double* peaks) {
  Tone old_tone{};
  Tone new_tone{};
  if constexpr (kMove) {
    old_tone.start(move->old_hz, dt, move->phases);
    new_tone.start(move->new_hz, dt, move->phases);
  }
  RunningPeak peak;
  alignas(32) double sq[kTile * kBlockTrials];
  for (std::size_t s0 = 0; s0 < steps; s0 += kTile) {
    const std::size_t rows = steps - s0 < kTile ? steps - s0 : kTile;
    if constexpr (kMove) {
      if (s0 != 0 && s0 % kRenormInterval == 0) {
        old_tone.anchor(s0);
        new_tone.anchor(s0);
      }
    }
    for (std::size_t r = 0; r < rows; ++r) {
      const std::size_t at = kBlockTrials * (s0 + r);
      Ints qr = load_ints(re + at);
      Ints qi = load_ints(im + at);
      if constexpr (kMove) {
        qr = qr - quantize(old_tone.re) + quantize(new_tone.re);
        qi = qi - quantize(old_tone.im) + quantize(new_tone.im);
        old_tone.rotate();
        new_tone.rotate();
      }
      if constexpr (kWrite) {
        store_ints(out_re + at, qr);
        store_ints(out_im + at, qi);
      }
      const Lanes x = to_double(qr) * splat(kInvQuantScale);
      const Lanes y = to_double(qi) * splat(kInvQuantScale);
      store_lanes(sq + kBlockTrials * r, x * x + y * y);
    }
    peak.add_tile(sq, rows, s0);
  }
  for (std::size_t l = 0; l < kBlockTrials; ++l) {
    peaks[l] = peak.refined(l, steps);
  }
}

void scan(const std::int64_t* re, const std::int64_t* im, std::size_t steps,
          double dt, const ToneMove* move, std::int64_t* out_re,
          std::int64_t* out_im, double* peaks) {
  if (move == nullptr) {
    scan_lanes<false, false>(re, im, steps, dt, move, out_re, out_im, peaks);
  } else if (out_re == nullptr) {
    scan_lanes<true, false>(re, im, steps, dt, move, out_re, out_im, peaks);
  } else {
    scan_lanes<true, true>(re, im, steps, dt, move, out_re, out_im, peaks);
  }
}

void llround4(const double* x, std::int64_t* q) {
  store_ints(q, llround_lanes(load_lanes(x)));
}

/// This unit's level.
constexpr DeltaKernels kLevelKernels{accumulate, scan, llround4};

}  // namespace
}  // namespace ivnet::detail
