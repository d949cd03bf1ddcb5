// Deterministic inverse-CDF Gaussian sampler (see gauss.hpp for the why).
//
// This translation unit is compiled with -O3 -mavx2 -mfma -ffp-contract=off
// on every build type (src/CMakeLists.txt), so std::fma lowers to a single
// vfmadd instruction and the scalar loop and the packed tile passes execute
// the exact same IEEE operation sequence. Keep every entry point out-of-line
// here: if the sampler were inlined into a TU with different contraction
// flags the bitwise scalar==packed contract would silently break.
#include "ivnet/signal/gauss.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#define IVNET_GAUSS_SIMD 1
#else
#define IVNET_GAUSS_SIMD 0
#endif

namespace ivnet::signal {
namespace {

// AS241 (Wichura 1988) PPND16 rational-approximation coefficients for the
// inverse normal CDF: central region |u-0.5| <= 0.425 uses kA/kB in
// r = 0.180625 - q^2; the tails use kC/kD (r = sqrt(-log(min(u,1-u))) <= 5)
// and kE/kF (r > 5, i.e. |z| beyond ~7.9).
constexpr double kA[8] = {
    3.3871328727963666080e0,  1.3314166789178437745e2, 1.9715909503065514427e3,
    1.3731693765509461125e4,  4.5921953931549871457e4, 6.7265770927008700853e4,
    3.3430575583588128105e4,  2.5090809287301226727e3};
constexpr double kB[8] = {
    1.0,                      4.2313330701600911252e1, 6.8718700749205790830e2,
    5.3941960214247511077e3,  2.1213794301586595867e4, 3.9307895800092710610e4,
    2.8729085735721942674e4,  5.2264952788528545610e3};
constexpr double kC[8] = {
    1.42343711074968357734e0,  4.63033784615654529590e0,
    5.76949722146069140550e0,  3.64784832476320460504e0,
    1.27045825245236838258e0,  2.41780725177450611770e-1,
    2.27238449892691845833e-2, 7.74545014278341407640e-4};
constexpr double kD[8] = {
    1.0,                       2.05319162663775882187e0,
    1.67638483018380384940e0,  6.89767334985100004550e-1,
    1.48103976427480074590e-1, 1.51986665636164571966e-2,
    5.47593808499534494600e-4, 1.05075007164441684324e-9};
constexpr double kE[8] = {
    6.65790464350110377720e0,  5.46378491116411436990e0,
    1.78482653991729133580e0,  2.96560571828504891230e-1,
    2.65321895265761230930e-2, 1.24266094738807843860e-3,
    2.71155556874348757815e-5, 2.01033439929228813265e-7};
constexpr double kF[8] = {
    1.0,                       5.99832206555887937690e-1,
    1.36929880922735805310e-1, 1.48753612908506148525e-2,
    7.86869131145613259100e-4, 1.84631831751005468180e-5,
    1.42151175831644588870e-7, 2.04426310338993978564e-15};

inline double poly7(const double* c, double r) {
  double p = c[7];
  p = std::fma(p, r, c[6]);
  p = std::fma(p, r, c[5]);
  p = std::fma(p, r, c[4]);
  p = std::fma(p, r, c[3]);
  p = std::fma(p, r, c[2]);
  p = std::fma(p, r, c[1]);
  return std::fma(p, r, c[0]);
}

constexpr double kLn2 = 0.693147180559945309417232121458;
constexpr double kSqrt2 = 0x1.6a09e667f3bcdp+0;

// Deterministic log for arguments in (0, 0.575) — the tail region's
// min(u, 1-u). Exponent extraction plus an atanh series: with the mantissa
// normalized to [sqrt2/2, sqrt2), s = (m-1)/(m+1) satisfies |s| <= 0.1716,
// so a degree-7 polynomial in z = s^2 reaches ~5.6e-15 relative error.
// Every operation is a fixed IEEE sequence — unlike libm's log, the result
// is the same on any host, which is what lets the tail branch of the
// sampler stay bitwise-reproducible.
inline double fast_log(double r) {
  std::uint64_t b;
  std::memcpy(&b, &r, sizeof b);
  int e = static_cast<int>((b >> 52) & 0x7ff) - 1023;
  b = (b & 0xfffffffffffffull) | 0x3ff0000000000000ull;
  double m;
  std::memcpy(&m, &b, sizeof m);
  if (m > kSqrt2) {
    m *= 0.5;
    e += 1;
  }
  const double s = (m - 1.0) / (m + 1.0);
  const double z = s * s;
  double p = 2.0 / 15.0;
  p = std::fma(p, z, 2.0 / 13.0);
  p = std::fma(p, z, 2.0 / 11.0);
  p = std::fma(p, z, 2.0 / 9.0);
  p = std::fma(p, z, 2.0 / 7.0);
  p = std::fma(p, z, 2.0 / 5.0);
  p = std::fma(p, z, 2.0 / 3.0);
  p = std::fma(p, z, 2.0);
  return std::fma(static_cast<double>(e), kLn2, s * p);
}

// Tail of the inverse CDF (|u-0.5| > 0.425, ~15% of draws). noinline keeps
// the scalar loop's hot body small. The tile passes evaluate tails with
// tail4_from_bits, which mirrors this function op for op, and call this
// function directly for the far tail and a tile's last few queued draws.
__attribute__((noinline)) double inv_cdf_tail(double u, double q) {
  double r = q < 0.0 ? u : 1.0 - u;
  r = std::sqrt(-fast_log(r));
  double v;
  if (r <= 5.0) {
    r -= 1.6;
    v = poly7(kC, r) / poly7(kD, r);
  } else {
    r -= 5.0;
    v = poly7(kE, r) / poly7(kF, r);
  }
  return q < 0.0 ? -v : v;
}

inline double normal_from_bits_inline(std::uint64_t bits) {
  // 52 explicit bits so the packed u64->double conversion (mantissa-or with
  // 2^52 then subtract) is exact; +0.5 centers u away from 0 and 1.
  const double u = (static_cast<double>(bits >> 12) + 0.5) * 0x1.0p-52;
  const double q = u - 0.5;
  if (std::fabs(q) <= 0.425) {
    // fma, not 0.180625 - q*q: must round once, like the packed vfnmadd.
    const double r = std::fma(-q, q, 0.180625);
    return q * (poly7(kA, r) / poly7(kB, r));
  }
  return inv_cdf_tail(u, q);
}

#if IVNET_GAUSS_SIMD

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

/// The xoshiro256++ recurrence of Rng::operator() on local copies of the
/// state words, so a tile of draws runs with the state in registers.
struct Xoshiro {
  std::uint64_t s0, s1, s2, s3;

  std::uint64_t next() {
    const std::uint64_t result = std::rotl(s0 + s3, 23) + s0;
    const std::uint64_t t = s1 << 17;
    s2 ^= s0;
    s3 ^= s1;
    s1 ^= s2;
    s0 ^= s3;
    s2 ^= t;
    s3 = std::rotl(s3, 45);
    return result;
  }
};

/// dst[i] = fma(sigma, normal_from_bits(rng()), src[i]) for the first
/// n / 4 * 4 samples; returns that count. The tail branch of the inverse
/// CDF is taken by ~15% of draws at random, so a fused per-sample loop
/// mispredicts often and stalls on the tail's extra divides and sqrt.
/// Instead each L1-resident tile runs as branch-free passes:
///   1. make four raw draws one after another (rng()'s order), evaluate
///      the central rational on them packed, and note which fall outside
///      the central region (the serial integer draws overlap the packed
///      float work of the previous four);
///   2. queue the tail draws densely (bits + slot);
///   3. evaluate the queue four at a time with the packed tail sequence and
///      patch the slots;
///   4. store fma(sigma, value, src) four samples at a time.
/// Every packed operation is the elementwise image of the scalar one, so
/// the output and the final generator state are bitwise those of the
/// scalar loop.
std::size_t axpy_awgn_tiled(Rng& rng, double sigma, const double* src,
                            double* dst, std::size_t n) {
  constexpr std::size_t kTile = 256;
  alignas(32) std::uint64_t bits[kTile];
  alignas(32) double val[kTile];
  alignas(32) std::uint64_t qbits[kTile];
  std::uint32_t qpos[kTile];
  std::uint8_t tails[kTile / 4];
  const __m256d signbit = _mm256_set1_pd(-0.0);
  const __m256d vsigma = _mm256_set1_pd(sigma);
  const auto& state = rng.raw_state();
  Xoshiro x{state[0], state[1], state[2], state[3]};

  const std::size_t packed = n / 4 * 4;
  for (std::size_t i = 0; i < packed; i += kTile) {
    const std::size_t draws = std::min(kTile, packed - i);
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
      _mm256_store_pd(
          val + j, _mm256_mul_pd(q, _mm256_div_pd(poly7v(kA, r),
                                                  poly7v(kB, r))));
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
    for (std::size_t j = 0; j < draws; j += 4) {
      _mm256_storeu_pd(dst + i + j,
                       _mm256_fmadd_pd(vsigma, _mm256_load_pd(val + j),
                                       _mm256_loadu_pd(src + i + j)));
    }
  }
  rng.set_raw_state({x.s0, x.s1, x.s2, x.s3});
  return packed;
}

#endif  // IVNET_GAUSS_SIMD

}  // namespace

double normal_from_bits(std::uint64_t bits) {
  return normal_from_bits_inline(bits);
}

void axpy_awgn(Rng& rng, double sigma, std::span<double> inout) {
  axpy_awgn_onto(rng, sigma, inout.data(), inout);
}

void axpy_awgn_onto(Rng& rng, double sigma, const double* src,
                    std::span<double> dst) {
  std::size_t i = 0;
#if IVNET_GAUSS_SIMD
  i = axpy_awgn_tiled(rng, sigma, src, dst.data(), dst.size());
#endif
  for (; i < dst.size(); ++i) {
    dst[i] = std::fma(sigma, normal_from_bits_inline(rng()), src[i]);
  }
}

void axpy_awgn_lanes_onto(std::size_t lanes, Rng* const* rngs,
                          const double* sigmas, const double* const* src,
                          double* const* dst, std::size_t n) {
  for (std::size_t k = 0; k < lanes; ++k) {
    axpy_awgn_onto(*rngs[k], sigmas[k], src[k], {dst[k], n});
  }
}

bool gauss_simd_enabled() { return IVNET_GAUSS_SIMD != 0; }

}  // namespace ivnet::signal
