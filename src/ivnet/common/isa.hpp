// The library's one instruction-set choice.
//
// A few hot kernels are built twice: once for the target's baseline ISA and
// once, in a translation unit of their own, with AVX2 (signal/gauss_avx2.cpp
// adds FMA; cib/delta_avx2.cpp does not). Which build runs is chosen once
// per process from the CPU, here, and every such kernel follows that one
// choice. Each wide level is the elementwise image of its baseline, so the
// level changes speed, never bytes; the tests force each level the host
// offers through detail::force_isa_level and compare them.
#pragma once

#include <cstdint>
#include <vector>

namespace ivnet {

enum class IsaLevel : std::uint8_t {
  kBaseline,  ///< the target's base ISA (x86-64: SSE2)
  kAvx2Fma,   ///< a CPU with AVX2 and FMA, and a build that has the units
};

/// The level the library's wide kernels run at: the widest the CPU and this
/// build offer, probed once, unless a test forced another.
IsaLevel isa_level();

namespace detail {

/// Levels this build can run on this CPU, baseline first.
std::vector<IsaLevel> isa_levels();

/// Test hook: run every wide kernel at `level` (one of isa_levels()) from
/// now on; returns the level that was active. Throws std::invalid_argument
/// for a level the host does not offer. Call only while no other thread
/// runs a wide kernel.
IsaLevel force_isa_level(IsaLevel level);

}  // namespace detail
}  // namespace ivnet
