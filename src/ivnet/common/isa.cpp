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

/// True when the AVX2+FMA level is available, the CPU (and its OS, which
/// must save the zmm state; the probe checks both) runs AVX-512F, and this
/// build compiled the AVX-512 unit (IVNET_HAVE_AVX512_UNITS, set only
/// beside IVNET_HAVE_AVX2_UNITS). avx2_fma_available() initializes the
/// CPU probe first.
bool avx512_available() {
#if IVNET_HAVE_AVX512_UNITS && (defined(__x86_64__) || defined(__i386__))
  static const bool available =
      avx2_fma_available() && __builtin_cpu_supports("avx512f");
  return available;
#else
  return false;
#endif
}

bool available(IsaLevel level) {
  switch (level) {
    case IsaLevel::kBaseline:
      return true;
    case IsaLevel::kAvx2Fma:
      return avx2_fma_available();
    case IsaLevel::kAvx512:
      return avx512_available();
  }
  return false;
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
    level = encode(detail::isa_levels().back());
    g_level.store(level, std::memory_order_relaxed);
  }
  return static_cast<IsaLevel>(level - 1);
}

namespace detail {

std::vector<IsaLevel> isa_levels() {
  std::vector<IsaLevel> levels;
  for (const IsaLevel level :
       {IsaLevel::kBaseline, IsaLevel::kAvx2Fma, IsaLevel::kAvx512}) {
    if (available(level)) levels.push_back(level);
  }
  return levels;
}

IsaLevel force_isa_level(IsaLevel level) {
  if (!available(level)) {
    throw std::invalid_argument("isa: level unavailable here");
  }
  const IsaLevel previous = isa_level();
  g_level.store(encode(level), std::memory_order_relaxed);
  return previous;
}

}  // namespace detail
}  // namespace ivnet
