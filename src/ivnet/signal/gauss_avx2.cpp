// The sampler's AVX2+FMA level (see gauss.hpp for the why).
//
// This translation unit alone is compiled with -O3 -mavx2 -mfma
// -ffp-contract=off (src/CMakeLists.txt), and gauss.cpp calls into it only
// after the CPU reports both features. Keep it free of template
// instantiations and of helpers with external linkage: the linker would
// otherwise be free to hand the baseline path one of this unit's
// AVX2-encoded copies.
#include "ivnet/signal/gauss_impl.hpp"

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>

namespace ivnet::signal::detail {
namespace {

inline __m256d poly7v(const double* c, __m256d r) {
  __m256d p = _mm256_set1_pd(c[7]);
  p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(c[6]));
  p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(c[5]));
  p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(c[4]));
  p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(c[3]));
  p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(c[2]));
  p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(c[1]));
  return _mm256_fmadd_pd(p, r, _mm256_set1_pd(c[0]));
}

/// u in (0, 1) and q = u - 1/2 from four raw draws: the packed image of
/// the scalar normal_from_bits_inline prologue (top-52-bit uniform).
inline __m256d uniform4_from_bits(__m256i bits, __m256d* q_out) {
  const __m256d magic = _mm256_set1_pd(0x1.0p52);
  const __m256d half = _mm256_set1_pd(0.5);
  const __m256i hi = _mm256_srli_epi64(bits, 12);
  const __m256d d = _mm256_sub_pd(
      _mm256_castsi256_pd(_mm256_or_si256(hi, _mm256_castpd_si256(magic))),
      magic);
  const __m256d u =
      _mm256_mul_pd(_mm256_add_pd(d, half), _mm256_set1_pd(0x1.0p-52));
  *q_out = _mm256_sub_pd(u, half);
  return u;
}

/// inv_cdf_tail for four draws already known to be outside the central
/// region. Every instruction mirrors inv_cdf_tail/fast_log op for op (same
/// IEEE sequence, vector width), so each lane is bitwise-equal to the
/// scalar branch; only the far tail (r > 5, P ~ 1.2e-8 per draw) drops to
/// the shared scalar routine.
inline __m256d tail4_from_bits(__m256i bits) {
  const __m256d magic = _mm256_set1_pd(0x1.0p52);
  const __m256d half = _mm256_set1_pd(0.5);
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d signbit = _mm256_set1_pd(-0.0);

  __m256d q;
  const __m256d u = uniform4_from_bits(bits, &q);
  const __m256d r0 = _mm256_blendv_pd(_mm256_sub_pd(one, u), u, q);
  const __m256i rb = _mm256_castpd_si256(r0);
  // fast_log: exponent as an exact small integer in double...
  const __m256i eb = _mm256_and_si256(_mm256_srli_epi64(rb, 52),
                                      _mm256_set1_epi64x(0x7ff));
  const __m256d ed = _mm256_sub_pd(
      _mm256_castsi256_pd(_mm256_or_si256(eb, _mm256_castpd_si256(magic))),
      magic);
  __m256d e = _mm256_sub_pd(ed, _mm256_set1_pd(1023.0));
  // ...mantissa normalized to [sqrt2/2, sqrt2)...
  __m256d m = _mm256_castsi256_pd(_mm256_or_si256(
      _mm256_and_si256(rb, _mm256_set1_epi64x(0xfffffffffffffll)),
      _mm256_set1_epi64x(0x3ff0000000000000ll)));
  const __m256d fold = _mm256_cmp_pd(m, _mm256_set1_pd(kSqrt2), _CMP_GT_OQ);
  m = _mm256_blendv_pd(m, _mm256_mul_pd(m, half), fold);
  e = _mm256_add_pd(e, _mm256_and_pd(fold, one));
  // ...atanh series in z = s^2.
  const __m256d s =
      _mm256_div_pd(_mm256_sub_pd(m, one), _mm256_add_pd(m, one));
  const __m256d z = _mm256_mul_pd(s, s);
  __m256d p = _mm256_set1_pd(2.0 / 15.0);
  p = _mm256_fmadd_pd(p, z, _mm256_set1_pd(2.0 / 13.0));
  p = _mm256_fmadd_pd(p, z, _mm256_set1_pd(2.0 / 11.0));
  p = _mm256_fmadd_pd(p, z, _mm256_set1_pd(2.0 / 9.0));
  p = _mm256_fmadd_pd(p, z, _mm256_set1_pd(2.0 / 7.0));
  p = _mm256_fmadd_pd(p, z, _mm256_set1_pd(2.0 / 5.0));
  p = _mm256_fmadd_pd(p, z, _mm256_set1_pd(2.0 / 3.0));
  p = _mm256_fmadd_pd(p, z, _mm256_set1_pd(2.0));
  const __m256d logv =
      _mm256_fmadd_pd(e, _mm256_set1_pd(kLn2), _mm256_mul_pd(s, p));
  // r = sqrt(-log), near-tail rational (r <= 5 covers |z| < ~5.7).
  const __m256d rt = _mm256_sqrt_pd(_mm256_xor_pd(logv, signbit));
  const __m256d far = _mm256_cmp_pd(rt, _mm256_set1_pd(5.0), _CMP_GT_OQ);
  const __m256d rc = _mm256_sub_pd(rt, _mm256_set1_pd(1.6));
  __m256d val = _mm256_div_pd(poly7v(kC, rc), poly7v(kD, rc));
  val = _mm256_xor_pd(val, _mm256_and_pd(q, signbit));
  const int far_mask = _mm256_movemask_pd(far);
  if (far_mask != 0) {
    alignas(32) std::uint64_t bits_arr[4];
    alignas(32) double fix[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(bits_arr), bits);
    _mm256_store_pd(fix, val);
    for (int k = 0; k < 4; ++k) {
      if (far_mask & (1 << k)) {
        const double uu =
            (static_cast<double>(bits_arr[k] >> 12) + 0.5) * 0x1.0p-52;
        fix[k] = inv_cdf_tail(uu, uu - 0.5);
      }
    }
    val = _mm256_load_pd(fix);
  }
  return val;
}

constexpr std::size_t kTile = 256;

/// val[j] = normal_from_bits(x.next()) for j < draws (a multiple of 4, at
/// most kTile). The tail branch of the inverse CDF is taken by ~15% of
/// draws at random, so a fused per-sample loop mispredicts often and stalls
/// on the tail's extra divides and sqrt. Instead the tile runs as
/// branch-free passes:
///   1. make four raw draws one after another (rng()'s order), evaluate
///      the central rational on them packed, and note which fall outside
///      the central region (the serial integer draws overlap the packed
///      float work of the previous four);
///   2. queue the tail draws densely (bits + slot);
///   3. evaluate the queue four at a time with the packed tail sequence and
///      patch the slots.
void normals_tile(Xoshiro& x, double* val, std::size_t draws) {
  alignas(32) std::uint64_t bits[kTile];
  alignas(32) std::uint64_t qbits[kTile];
  std::uint32_t qpos[kTile];
  std::uint8_t tails[kTile / 4];
  const __m256d signbit = _mm256_set1_pd(-0.0);
  for (std::size_t j = 0; j < draws; j += 4) {
    const std::uint64_t b0 = x.next();
    const std::uint64_t b1 = x.next();
    const std::uint64_t b2 = x.next();
    const std::uint64_t b3 = x.next();
    const __m256i b = _mm256_set_epi64x(
        static_cast<long long>(b3), static_cast<long long>(b2),
        static_cast<long long>(b1), static_cast<long long>(b0));
    _mm256_store_si256(reinterpret_cast<__m256i*>(bits + j), b);
    __m256d q;
    (void)uniform4_from_bits(b, &q);
    const __m256d tail = _mm256_cmp_pd(_mm256_andnot_pd(signbit, q),
                                       _mm256_set1_pd(0.425), _CMP_GT_OQ);
    const __m256d r = _mm256_fnmadd_pd(q, q, _mm256_set1_pd(0.180625));
    _mm256_storeu_pd(
        val + j,
        _mm256_mul_pd(q, _mm256_div_pd(poly7v(kA, r), poly7v(kB, r))));
    tails[j / 4] = static_cast<std::uint8_t>(_mm256_movemask_pd(tail));
  }
  // qn advances only past tail draws; the slot write is unconditional.
  std::size_t qn = 0;
  for (std::size_t j = 0; j < draws; ++j) {
    qbits[qn] = bits[j];
    qpos[qn] = static_cast<std::uint32_t>(j);
    qn += (tails[j / 4] >> (j % 4)) & 1u;
  }
  std::size_t t = 0;
  for (; t + 4 <= qn; t += 4) {
    alignas(32) double tv[4];
    _mm256_store_pd(tv, tail4_from_bits(_mm256_load_si256(
                            reinterpret_cast<const __m256i*>(qbits + t))));
    for (std::size_t k = 0; k < 4; ++k) val[qpos[t + k]] = tv[k];
  }
  for (; t < qn; ++t) val[qpos[t]] = normal_from_bits_inline(qbits[t]);
}

/// dst[i] = fma(sigma, g[i], src[i]) four samples at a time for the first
/// n / 4 * 4 samples; returns that count.
std::size_t apply_packed(double sigma, const double* g, const double* src,
                         double* dst, std::size_t n) {
  const __m256d vsigma = _mm256_set1_pd(sigma);
  const std::size_t packed = n / 4 * 4;
  for (std::size_t i = 0; i < packed; i += 4) {
    _mm256_storeu_pd(dst + i,
                     _mm256_fmadd_pd(vsigma, _mm256_loadu_pd(g + i),
                                     _mm256_loadu_pd(src + i)));
  }
  return packed;
}

/// Tile by tile: the normals into an L1 tile, then one fused-fma pass.
/// The last n % 4 samples run the per-draw loop.
void draw_onto(std::uint64_t* state, double sigma, const double* src,
               double* dst, std::size_t n) {
  alignas(32) double val[kTile];
  Xoshiro x(state);
  const std::size_t packed = n / 4 * 4;
  for (std::size_t i = 0; i < packed; i += kTile) {
    const std::size_t draws = packed - i < kTile ? packed - i : kTile;
    normals_tile(x, val, draws);
    apply_packed(sigma, val, src + i, dst + i, draws);
  }
  for (std::size_t i = packed; i < n; ++i) {
    dst[i] = std::fma(sigma, normal_from_bits_inline(x.next()), src[i]);
  }
  x.store(state);
}

void fill_normals(std::uint64_t* state, double* g, std::size_t n) {
  Xoshiro x(state);
  const std::size_t packed = n / 4 * 4;
  for (std::size_t i = 0; i < packed; i += kTile) {
    normals_tile(x, g + i, packed - i < kTile ? packed - i : kTile);
  }
  for (std::size_t i = packed; i < n; ++i) {
    g[i] = normal_from_bits_inline(x.next());
  }
  x.store(state);
}

void apply(double sigma, const double* g, const double* src, double* dst,
           std::size_t n) {
  for (std::size_t i = apply_packed(sigma, g, src, dst, n); i < n; ++i) {
    dst[i] = std::fma(sigma, g[i], src[i]);
  }
}

constexpr GaussKernels kAvx2Kernels{draw_onto, fill_normals, apply};

}  // namespace

const GaussKernels* avx2_gauss_kernels() { return &kAvx2Kernels; }

}  // namespace ivnet::signal::detail

#else

namespace ivnet::signal::detail {
const GaussKernels* avx2_gauss_kernels() { return nullptr; }
}  // namespace ivnet::signal::detail

#endif
