// Deterministic inverse-CDF Gaussian sampler (see gauss.hpp for the why):
// the public entry points, the baseline-ISA kernels, the run-time choice
// of level, and the per-thread noise tape.
//
// This translation unit is compiled with -O3 -ffp-contract=off and no
// -mavx2/-mfma on every build type (src/CMakeLists.txt), so it runs on any
// x86-64 CPU; std::fma stays correctly rounded (a libm call), so this level
// executes the same IEEE operation sequence as gauss_avx2.cpp. Keep every
// entry point out-of-line here: if the sampler were inlined into a TU with
// different contraction flags the bitwise contract would silently break.
#include "ivnet/signal/gauss.hpp"

#include <array>
#include <atomic>
#include <stdexcept>

#include "ivnet/signal/gauss_impl.hpp"

namespace ivnet::signal {
namespace {

using detail::GaussKernels;

void draw_onto_baseline(std::uint64_t* state, double sigma, const double* src,
                        double* dst, std::size_t n) {
  detail::Xoshiro x(state);
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = std::fma(sigma, detail::normal_from_bits_inline(x.next()), src[i]);
  }
  x.store(state);
}

void fill_normals_baseline(std::uint64_t* state, double* g, std::size_t n) {
  detail::Xoshiro x(state);
  for (std::size_t i = 0; i < n; ++i) {
    g[i] = detail::normal_from_bits_inline(x.next());
  }
  x.store(state);
}

void apply_baseline(double sigma, const double* g, const double* src,
                    double* dst, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = std::fma(sigma, g[i], src[i]);
}

constexpr GaussKernels kBaselineKernels{draw_onto_baseline,
                                        fill_normals_baseline, apply_baseline};

bool cpu_has_avx2_fma() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

/// The AVX2+FMA level when this build has it and the CPU runs it. The CPU
/// check comes first: the AVX2 unit is not entered on a CPU without AVX2.
const GaussKernels* avx2_level() {
  static const GaussKernels* const level =
      cpu_has_avx2_fma() ? detail::avx2_gauss_kernels() : nullptr;
  return level;
}

std::atomic<const GaussKernels*> g_kernels{nullptr};

const GaussKernels& kernels() {
  const GaussKernels* k = g_kernels.load(std::memory_order_relaxed);
  if (k == nullptr) {
    const GaussKernels* avx2 = avx2_level();
    k = avx2 != nullptr ? avx2 : &kBaselineKernels;
    g_kernels.store(k, std::memory_order_relaxed);
  }
  return *k;
}

// --- Noise tape ----------------------------------------------------------

using State = std::array<std::uint64_t, 4>;

/// One recorded call: its key (start state, length), where its normals sit
/// in the tape's buffer, and the state the call leaves behind.
struct TapeEntry {
  State start;
  std::size_t n;
  std::size_t offset;
  State end;
};

struct NoiseTape {
  std::vector<TapeEntry> entries;
  std::vector<double> normals;
};

/// The live tape of this thread, or null outside any NoiseTapeScope. A
/// trivially initialized thread_local: the sampler's only per-call cost
/// when no tape is open is this load and its branch.
thread_local NoiseTape* t_live_tape = nullptr;

NoiseTape& thread_tape() {
  thread_local NoiseTape tape;
  return tape;
}

/// Normals of the call (start, n): replayed from the tape or drawn and
/// recorded. Returns the entry, whose normals the caller applies.
const TapeEntry& tape_lookup(NoiseTape& tape, const State& start,
                             std::size_t n) {
  for (const TapeEntry& e : tape.entries) {
    if (e.n == n && e.start == start) return e;
  }
  TapeEntry entry{start, n, tape.normals.size(), start};
  tape.normals.resize(entry.offset + n);
  kernels().fill_normals(entry.end.data(), tape.normals.data() + entry.offset,
                         n);
  tape.entries.push_back(entry);
  return tape.entries.back();
}

}  // namespace

double normal_from_bits(std::uint64_t bits) {
  return detail::normal_from_bits_inline(bits);
}

void axpy_awgn(Rng& rng, double sigma, std::span<double> inout) {
  axpy_awgn_onto(rng, sigma, inout.data(), inout);
}

void axpy_awgn_onto(Rng& rng, double sigma, const double* src,
                    std::span<double> dst) {
  const std::size_t n = dst.size();
  if (n == 0) return;
  NoiseTape* tape = t_live_tape;
  if (tape == nullptr) {
    State state = rng.raw_state();
    kernels().draw_onto(state.data(), sigma, src, dst.data(), n);
    rng.set_raw_state(state);
    return;
  }
  const TapeEntry& entry = tape_lookup(*tape, rng.raw_state(), n);
  kernels().apply(sigma, tape->normals.data() + entry.offset, src, dst.data(),
                  n);
  rng.set_raw_state(entry.end);
}

void axpy_awgn_lanes_onto(std::size_t lanes, Rng* const* rngs,
                          const double* sigmas, const double* const* src,
                          double* const* dst, std::size_t n) {
  for (std::size_t k = 0; k < lanes; ++k) {
    axpy_awgn_onto(*rngs[k], sigmas[k], src[k], {dst[k], n});
  }
}

NoiseTapeScope::NoiseTapeScope() : outermost_(t_live_tape == nullptr) {
  if (outermost_) t_live_tape = &thread_tape();
}

NoiseTapeScope::~NoiseTapeScope() {
  if (!outermost_) return;
  t_live_tape->entries.clear();
  t_live_tape->normals.clear();
  t_live_tape = nullptr;
}

bool gauss_simd_enabled() { return &kernels() != &kBaselineKernels; }

namespace detail {

std::vector<GaussIsa> gauss_isa_levels() {
  std::vector<GaussIsa> levels{GaussIsa::kBaseline};
  if (avx2_level() != nullptr) levels.push_back(GaussIsa::kAvx2Fma);
  return levels;
}

std::size_t noise_tape_size() {
  return t_live_tape == nullptr ? 0 : t_live_tape->entries.size();
}

GaussIsa force_gauss_isa(GaussIsa isa) {
  const GaussIsa previous =
      gauss_simd_enabled() ? GaussIsa::kAvx2Fma : GaussIsa::kBaseline;
  const GaussKernels* k =
      isa == GaussIsa::kAvx2Fma ? avx2_level() : &kBaselineKernels;
  if (k == nullptr) {
    throw std::invalid_argument("gauss: AVX2+FMA level unavailable here");
  }
  g_kernels.store(k, std::memory_order_relaxed);
  return previous;
}

}  // namespace detail
}  // namespace ivnet::signal
