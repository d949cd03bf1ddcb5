#include "ivnet/common/isa.hpp"

#include <atomic>
#include <stdexcept>

namespace ivnet {
namespace {

/// True when the CPU runs AVX2 and FMA and this build compiled the AVX2
/// units with them (IVNET_HAVE_AVX2_UNITS, set by src/CMakeLists.txt). The
/// CPU check comes first: no AVX2 unit is entered on a CPU without AVX2.
bool avx2_fma_available() {
#if IVNET_HAVE_AVX2_UNITS && (defined(__x86_64__) || defined(__i386__))
  static const bool available = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  }();
  return available;
#else
  return false;
#endif
}

/// The running level plus one; 0 until the first call probes the CPU.
std::atomic<std::uint8_t> g_level{0};

std::uint8_t encode(IsaLevel level) {
  return static_cast<std::uint8_t>(static_cast<std::uint8_t>(level) + 1);
}

}  // namespace

IsaLevel isa_level() {
  std::uint8_t level = g_level.load(std::memory_order_relaxed);
  if (level == 0) {
    level = encode(avx2_fma_available() ? IsaLevel::kAvx2Fma
                                        : IsaLevel::kBaseline);
    g_level.store(level, std::memory_order_relaxed);
  }
  return static_cast<IsaLevel>(level - 1);
}

namespace detail {

std::vector<IsaLevel> isa_levels() {
  std::vector<IsaLevel> levels{IsaLevel::kBaseline};
  if (avx2_fma_available()) levels.push_back(IsaLevel::kAvx2Fma);
  return levels;
}

IsaLevel force_isa_level(IsaLevel level) {
  if (level == IsaLevel::kAvx2Fma && !avx2_fma_available()) {
    throw std::invalid_argument("isa: AVX2+FMA level unavailable here");
  }
  const IsaLevel previous = isa_level();
  g_level.store(encode(level), std::memory_order_relaxed);
  return previous;
}

}  // namespace detail
}  // namespace ivnet
