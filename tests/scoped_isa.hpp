// Runs the library's wide kernels at one instruction-set level for a scope
// (common/isa.hpp's test hook), so a suite can check every level the host
// offers against the same expected bytes.
#pragma once

#include "ivnet/common/isa.hpp"

namespace ivnet {

class ScopedIsaLevel {
 public:
  explicit ScopedIsaLevel(IsaLevel level)
      : previous_(detail::force_isa_level(level)) {}
  ~ScopedIsaLevel() { detail::force_isa_level(previous_); }
  ScopedIsaLevel(const ScopedIsaLevel&) = delete;
  ScopedIsaLevel& operator=(const ScopedIsaLevel&) = delete;

 private:
  IsaLevel previous_;
};

inline const char* isa_name(IsaLevel level) {
  switch (level) {
    case IsaLevel::kBaseline:
      return "baseline";
    case IsaLevel::kAvx2Fma:
      return "avx2+fma";
    case IsaLevel::kAvx512:
      return "avx512";
  }
  return "unknown";
}

}  // namespace ivnet
