// Private to the block kernels' three translation units:
// delta_objective.cpp (baseline ISA), delta_avx2.cpp (AVX2) and
// delta_avx512.cpp (AVX-512F). Not for other includers; the table they fill
// is cib/block_kernels.hpp.
//
// The kernels work on one block of eight Monte-Carlo trials, one trial per
// vector lane, written once in GCC vector extensions (+, -, * and compares
// act per lane with the scalar IEEE semantics; a unit whose registers are
// narrower than the block runs each op part by part). Every trial rotates a
// tone by the same step, so the eight lanes run one op sequence, and each
// lane op is the elementwise image of a per-trial scalar sequence the tests
// keep as the oracle: tests/naive_delta.hpp for the delta evaluator's
// kernels, and cib/objective.cpp's scan_envelope_sq (behind peak_envelope)
// for the Eq. 6 scan:
//   * multiplies and adds stay separate, never fused (every unit builds with
//     -ffp-contract=off, and none gets -mfma);
//   * the quantizer rounds exactly as std::llround does (llround_lanes);
//   * sums are int64, and their conversion to double is exact below 2^53
//     (to_double);
//   * the Eq. 6 scan sums its tones from +0 in tone order, as the scalar
//     loop does;
//   * cos and sin are the same libm calls, one lane at a time.
// So lanes, peaks, counts and scores are the same bytes at every level.
//
// Everything below has internal linkage, so each unit compiles its own copy
// with its own flags. With external (inline) linkage the linker would keep
// one copy per helper, and could hand the baseline path an AVX2-encoded one
// that faults on a CPU without AVX2. For the same reason nothing here may
// instantiate a template outside the anonymous namespace.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>

#include "ivnet/cib/block_kernels.hpp"
#include "ivnet/common/units.hpp"

namespace ivnet::detail {
namespace {

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

/// Tiles of kTile steps: the build keeps a tile of a block's lanes (128 bytes
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
// The unit's native vector is 512-bit where it is built with AVX-512F
// (delta_avx512.cpp), 256-bit where it is built with AVX (delta_avx2.cpp)
// and 128-bit SSE2 otherwise. GCC lowers a compare on a vector wider than
// the target's registers one element at a time, so a block's eight lanes
// are held as kParts native vectors (one, two or four), and every op below
// runs part by part.

#if defined(__AVX512F__)
constexpr std::size_t kNativeLanes = 8;
#elif defined(__AVX__)
constexpr std::size_t kNativeLanes = 4;
#else
constexpr std::size_t kNativeLanes = 2;
#endif
constexpr std::size_t kParts = kBlockTrials / kNativeLanes;

using NativeD = double __attribute__((vector_size(8 * kNativeLanes)));
using NativeI = std::int64_t __attribute__((vector_size(8 * kNativeLanes)));
using NativeU = std::uint64_t __attribute__((vector_size(8 * kNativeLanes)));

/// Eight doubles, one per trial of a block.
struct Lanes {
  NativeD v[kParts];
};

/// Eight int64, one per trial: fixed-point sums, or masks (-1 where true).
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

/// -1 in the lanes where a >= b (0 where either is NaN).
inline Ints at_least(Lanes a, Lanes b) {
  Ints r;
  for (std::size_t p = 0; p < kParts; ++p) r.v[p] = a.v[p] >= b.v[p];
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

/// One tone in a block's lanes: its value at the current step and its
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
    alignas(64) double r[kBlockTrials];
    alignas(64) double i[kBlockTrials];
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
  alignas(64) double sq[kTile * kBlockTrials];
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

void llround_block(const double* x, std::int64_t* q) {
  store_ints(q, llround_lanes(load_lanes(x)));
}

// --- The Eq. 6 scan --------------------------------------------------------
//
// scan_envelope_sq (cib/objective.cpp) for a block of trials: each step sums
// the tones from +0 in tone order, squares the sum's re and im, and rotates
// every tone by its step; every kRenormInterval steps the tones re-anchor
// from cos/sin of the exact phase. Lane l is trial l's scalar loop, op for
// op.

/// One Eq. 6 tone in a block's lanes: its value at the current step and its
/// per-step rotation e^{jw}, broadcast to every lane once, at the start.
struct Eq6Tone {
  Lanes re, im;
  Lanes cre, cim;

  /// The value one step after (r, i): (r, i) * e^{jw}, as (ac - bd, ad + bc).
  /// The outputs may be r and i.
  void next(Lanes r, Lanes i, Lanes& out_re, Lanes& out_im) const {
    out_re = r * cre - i * cim;
    out_im = r * cim + i * cre;
  }
};

/// Tones a block's scan keeps in a fixed array on the stack (the paper's
/// sets have at most 10); larger sets keep theirs on the heap.
constexpr std::size_t kEq6FixedTones = 64;

/// Tone value at step s in every lane: cos/sin of phase + w * s, where w is
/// the tone's radians per step (scan_envelope_sq's anchor, amplitude 1).
void eq6_anchor(Eq6Tone& tone, double w, const double* lane_phases,
                std::size_t s) {
  alignas(64) double r[kBlockTrials];
  alignas(64) double i[kBlockTrials];
  for (std::size_t l = 0; l < kBlockTrials; ++l) {
    const double ph = lane_phases[l] + w * static_cast<double>(s);
    r[l] = std::cos(ph);
    i[l] = std::sin(ph);
  }
  tone.re = load_lanes(r);
  tone.im = load_lanes(i);
}

/// Runs the scan over a block, handing each tile's squared envelope
/// (`rows` rows of kBlockTrials, row r holding step s0 + r) to
/// sink(sq, rows, s0).
template <typename Sink>
void eq6_scan(const double* offsets_hz, std::size_t n, const double* phases,
              std::size_t steps, double dt, Sink&& sink) {
  Eq6Tone fixed[kEq6FixedTones];
  std::unique_ptr<Eq6Tone[]> spilled;
  Eq6Tone* tones = fixed;
  if (n > kEq6FixedTones) {
    spilled.reset(new Eq6Tone[n]);
    tones = spilled.get();
  }
  for (std::size_t i = 0; i < n; ++i) {
    const double w = kTwoPi * offsets_hz[i] * dt;
    tones[i].cre = splat(std::cos(w));
    tones[i].cim = splat(std::sin(w));
    eq6_anchor(tones[i], w, phases + kBlockTrials * i, 0);
  }
  alignas(64) double sq[kTile * kBlockTrials];
  for (std::size_t s0 = 0; s0 < steps; s0 += kTile) {
    const std::size_t rows = steps - s0 < kTile ? steps - s0 : kTile;
    if (s0 != 0 && s0 % kRenormInterval == 0) {
      for (std::size_t i = 0; i < n; ++i) {
        eq6_anchor(tones[i], kTwoPi * offsets_hz[i] * dt,
                   phases + kBlockTrials * i, s0);
      }
    }
    // Two steps per pass over the tones: each step's sums are one chain of
    // dependent adds, and two independent chains let one's latency hide
    // behind the other's. Each step still adds its tones in order.
    std::size_t r = 0;
    for (; r + 2 <= rows; r += 2) {
      Lanes re0 = splat(0.0), im0 = splat(0.0);
      Lanes re1 = splat(0.0), im1 = splat(0.0);
      for (std::size_t i = 0; i < n; ++i) {
        Eq6Tone& t = tones[i];
        Lanes next_re, next_im;
        t.next(t.re, t.im, next_re, next_im);
        re0 = re0 + t.re;
        im0 = im0 + t.im;
        re1 = re1 + next_re;
        im1 = im1 + next_im;
        t.next(next_re, next_im, t.re, t.im);
      }
      store_lanes(sq + kBlockTrials * r, re0 * re0 + im0 * im0);
      store_lanes(sq + kBlockTrials * (r + 1), re1 * re1 + im1 * im1);
    }
    for (; r < rows; ++r) {
      Lanes sum_re = splat(0.0), sum_im = splat(0.0);
      for (std::size_t i = 0; i < n; ++i) {
        Eq6Tone& t = tones[i];
        sum_re = sum_re + t.re;
        sum_im = sum_im + t.im;
        t.next(t.re, t.im, t.re, t.im);
      }
      store_lanes(sq + kBlockTrials * r, sum_re * sum_re + sum_im * sum_im);
    }
    sink(sq, rows, s0);
  }
}

void envelope_peaks(const double* offsets_hz, std::size_t n,
                    const double* phases, std::size_t steps, double dt,
                    double* peaks) {
  RunningPeak peak;
  eq6_scan(offsets_hz, n, phases, steps, dt,
           [&peak](const double* sq, std::size_t rows, std::size_t s0) {
             peak.add_tile(sq, rows, s0);
           });
  for (std::size_t l = 0; l < kBlockTrials; ++l) {
    peaks[l] = peak.refined(l, steps);
  }
}

void envelope_above(const double* offsets_hz, std::size_t n,
                    const double* phases, std::size_t steps, double dt,
                    double threshold_sq, std::uint64_t* counts) {
  const Lanes threshold = splat(threshold_sq);
  Ints above = splat_ints(0);
  eq6_scan(offsets_hz, n, phases, steps, dt,
           [&](const double* sq, std::size_t rows, std::size_t) {
             for (std::size_t r = 0; r < rows; ++r) {
               above = above - at_least(load_lanes(sq + kBlockTrials * r),
                                        threshold);
             }
           });
  for (std::size_t l = 0; l < kBlockTrials; ++l) {
    counts[l] = static_cast<std::uint64_t>(lane(above, l));
  }
}

/// This unit's level.
constexpr BlockKernels kLevelKernels{accumulate, scan, llround_block,
                                     envelope_peaks, envelope_above};

}  // namespace
}  // namespace ivnet::detail
