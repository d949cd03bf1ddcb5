// The library's one instruction-set choice.
//
// A few hot kernels are built more than once: once for the target's baseline
// ISA and again, in translation units of their own, for wider levels
// (signal/gauss_avx2.cpp with AVX2 and FMA; cib/delta_avx2.cpp with AVX2 and
// cib/delta_avx512.cpp with AVX-512F, neither with FMA). Which build runs is
// chosen once per process from the CPU, here, and every such kernel follows
// that one choice; a kernel with no unit at the chosen level runs its widest
// unit below it (the sampler runs AVX2+FMA at the AVX-512 level). Each wide
// level is the elementwise image of its baseline, so the level changes
// speed, never bytes; the tests force each level the host offers through
// detail::force_isa_level and compare them.
#pragma once

#include <cstdint>
#include <vector>

namespace ivnet {

/// Ordered: each level runs on a CPU that has every level below it.
enum class IsaLevel : std::uint8_t {
  kBaseline,  ///< the target's base ISA (x86-64: SSE2)
  kAvx2Fma,   ///< a CPU with AVX2 and FMA, and a build that has the units
  kAvx512,    ///< kAvx2Fma plus AVX-512F, and a build with the AVX-512 unit
};

/// The level the library's wide kernels run at: the widest the CPU and this
/// build offer, probed once, unless a test forced another.
IsaLevel isa_level();

namespace detail {

/// Levels this build can run on this CPU, baseline first, widest last.
std::vector<IsaLevel> isa_levels();

/// Test hook: run every wide kernel at `level` (one of isa_levels()) from
/// now on; returns the level that was active. Throws std::invalid_argument
/// for a level the host does not offer. Call only while no other thread
/// runs a wide kernel.
IsaLevel force_isa_level(IsaLevel level);

}  // namespace detail
}  // namespace ivnet
