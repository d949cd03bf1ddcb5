// Deterministic elementwise Gaussian sampling for the AWGN hot path.
//
// Rng::normal() (Box-Muller) calls into libm's log/sin/cos, whose results
// depend on the libm build and are not reproducible between a scalar and a
// packed evaluation. Every per-sample Gaussian loop instead goes through:
//
//   normal_from_bits(bits) — a pure elementwise map from one 64-bit draw to
//   one standard-normal value via the AS241 inverse normal CDF (Wichura's
//   PPND16 rational approximations, |err| < 1e-15 over the full range). The
//   log needed in the tail region is a custom deterministic atanh-series
//   (fast_log in gauss_impl.hpp), not libm, so every code path is a fixed
//   sequence of IEEE add/mul/div/sqrt/fma operations.
//
//   axpy_awgn(rng, sigma, x) — x[i] += sigma * normal_from_bits(rng())
//   (as a fused fma), one raw draw per sample. This is the one noise
//   sampler; its callers are
//     impair/apply_awgn          real envelopes (the session engine's noise)
//     signal/add_awgn            complex samples as interleaved re/im lanes
//                                (impair's complex apply_awgn and
//                                sdr/RxChain's thermal noise delegate here)
//     impair/apply_phase_noise   random-walk increments, then a prefix sum
//     reader/OobReader::decode   the out-of-band reader's receive noise
//   Rng::normal is left for scalar parameter draws only.
//
// Two instruction-set levels, chosen once from the CPU:
//   * AVX2+FMA (gauss_avx2.cpp): tiled passes over one generator. The raw
//     draws are made one after another into an L1 tile (the order rng()
//     gives), the central rational and the queued tail draws are evaluated
//     four at a time, and one fused-fma pass stores the result.
//   * baseline (gauss.cpp, no -mavx2/-mfma): the per-draw loop.
// Every packed instruction is the elementwise image of the scalar operation
// sequence, and std::fma is correctly rounded at both levels, so the output
// and the final generator state are bitwise those of the per-draw loop
// fma(sigma, normal_from_bits(rng()), src[i]) at either level. signal_test
// pins this memcmp-strict at every level the host has. Both translation
// units compile with a fixed flag set (-O3 -ffp-contract=off, plus
// -mavx2 -mfma for the AVX2 one) regardless of build type, so Debug, ASan
// and Release builds produce the same bytes.
//
// The noise tape (NoiseTapeScope): while a scope is open on a thread, every
// axpy_awgn / axpy_awgn_onto call there is keyed by the generator's full
// 256-bit state and the length. A call whose key was seen before in the
// scope replays the recorded normals g as fma(sigma, g[i], src[i]) and
// leaves the generator at the recorded end state; any other call draws the
// normals once, records them, then applies the same fma. The output of a
// call depends only on (state, length, sigma, src), so a replay writes the
// bytes a fresh draw would. Same-seed sweep points make exactly these
// repeats (common random numbers), which the sweep kernel exploits.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "ivnet/common/rng.hpp"

namespace ivnet::signal {

/// Conventional lane-group width for axpy_awgn_lanes_onto callers. The
/// function accepts any lane count; lanes are filled one after another.
inline constexpr std::size_t kGaussLanes = 4;

/// Elementwise map from one raw 64-bit draw to one standard-normal value.
/// Uses the top 52 bits as a uniform in (0,1) — u = (bits>>12 + 0.5)*2^-52 —
/// then inverts the normal CDF. Pure function; deterministic on any host.
double normal_from_bits(std::uint64_t bits);

/// inout[i] = fma(sigma, normal_from_bits(rng()), inout[i]) for all i.
/// Consumes exactly inout.size() raw draws from rng.
void axpy_awgn(Rng& rng, double sigma, std::span<double> inout);

/// dst[i] = fma(sigma, normal_from_bits(rng()), src[i]) — the same update
/// as axpy_awgn but reading the clean signal from `src`, which skips the
/// copy-into-place pass the in-place form needs. src may equal dst.data();
/// other overlaps are not supported. Bitwise-identical to copying src into
/// dst and calling axpy_awgn.
void axpy_awgn_onto(Rng& rng, double sigma, const double* src,
                    std::span<double> dst);

/// Lane k runs axpy_awgn_onto(*rngs[k], sigmas[k], src[k], {dst[k], n}),
/// lane after lane: the same results and final rng states as calling it
/// per lane.
void axpy_awgn_lanes_onto(std::size_t lanes, Rng* const* rngs,
                          const double* sigmas, const double* const* src,
                          double* const* dst, std::size_t n);

/// Opens the calling thread's noise tape (see the file comment) for the
/// scope's lifetime. On exit the tape forgets every recording and keeps its
/// buffers for the next scope. A scope opened while one is live on the
/// same thread joins it.
class NoiseTapeScope {
 public:
  NoiseTapeScope();
  ~NoiseTapeScope();
  NoiseTapeScope(const NoiseTapeScope&) = delete;
  NoiseTapeScope& operator=(const NoiseTapeScope&) = delete;

 private:
  bool outermost_;
};

/// True when the sampler runs its AVX2+FMA level (chosen once from the
/// CPU). Purely informational (bench tables): results are identical
/// either way.
bool gauss_simd_enabled();

/// The sampler's instruction-set levels.
enum class GaussIsa : std::uint8_t { kBaseline, kAvx2Fma };

namespace detail {

/// Levels this build can run on this CPU, baseline first.
std::vector<GaussIsa> gauss_isa_levels();

/// Calls recorded on the calling thread's live noise tape; 0 when no
/// NoiseTapeScope is open there. For tests.
std::size_t noise_tape_size();

/// Test hook: run the sampler at `isa` (one of gauss_isa_levels()) from now
/// on; returns the level that was active. Call only while no other thread
/// samples.
GaussIsa force_gauss_isa(GaussIsa isa);

}  // namespace detail
}  // namespace ivnet::signal
