// Private to the sampler's two translation units: gauss.cpp (baseline ISA)
// and gauss_avx2.cpp (AVX2+FMA). Not for other includers.
//
// Every helper below lives in an anonymous namespace, so each translation
// unit compiles its own copy with its own flags. With external (inline)
// linkage the linker would keep one copy per helper, and could hand the
// baseline path an AVX2-encoded one that faults on a CPU without AVX2.
// Nothing here instantiates a template, for the same reason.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace ivnet::signal::detail {

/// One instruction-set level of the sampler. `state` is the four xoshiro256++
/// words of an Rng (Rng::raw_state), advanced in place by the draws made.
/// Every level writes the same bytes.
struct GaussKernels {
  /// dst[i] = fma(sigma, normal_from_bits(draw i), src[i]) for i < n.
  /// src may equal dst.
  void (*draw_onto)(std::uint64_t* state, double sigma, const double* src,
                    double* dst, std::size_t n);
  /// g[i] = normal_from_bits(draw i) for i < n.
  void (*fill_normals)(std::uint64_t* state, double* g, std::size_t n);
  /// dst[i] = fma(sigma, g[i], src[i]) for i < n. src may equal dst.
  void (*apply)(double sigma, const double* g, const double* src, double* dst,
                std::size_t n);
};

/// The AVX2+FMA level, or null when gauss_avx2.cpp was built without those
/// instructions. Call only on a CPU that has both.
const GaussKernels* avx2_gauss_kernels();

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
// the scalar loop's hot body small. The AVX2 tile passes evaluate tails
// with tail4_from_bits, which mirrors this function op for op, and call
// this function directly for the far tail and a tile's last few queued
// draws.
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

inline std::uint64_t rotl64(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

/// The xoshiro256++ recurrence of Rng::operator() on local copies of the
/// state words, so a run of draws keeps the state in registers.
struct Xoshiro {
  std::uint64_t s0, s1, s2, s3;

  explicit Xoshiro(const std::uint64_t* s)
      : s0(s[0]), s1(s[1]), s2(s[2]), s3(s[3]) {}

  void store(std::uint64_t* s) const {
    s[0] = s0;
    s[1] = s1;
    s[2] = s2;
    s[3] = s3;
  }

  std::uint64_t next() {
    const std::uint64_t result = rotl64(s0 + s3, 23) + s0;
    const std::uint64_t t = s1 << 17;
    s2 ^= s0;
    s3 ^= s1;
    s1 ^= s2;
    s0 ^= s3;
    s2 ^= t;
    s3 = rotl64(s3, 45);
    return result;
  }
};

}  // namespace
}  // namespace ivnet::signal::detail
