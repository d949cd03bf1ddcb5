#include "ivnet/signal/dsp_workspace.hpp"

namespace ivnet {

/// Best-fit checkout: the free-list entry with the smallest capacity >= n,
/// or — when nothing is big enough — the largest entry (so one buffer grows
/// instead of several). A LIFO policy regrows buffers pathologically in
/// mixed-size loops: release a 460-cap and a 2700-cap buffer, then acquire
/// 460 → LIFO hands back the 2700-cap one, and the next acquire(2700) has
/// to regrow the 460-cap buffer. Linear scan: the pool holds a handful of
/// entries, so this is cheaper than keeping it sorted.
std::vector<double> DspWorkspace::acquire_real(std::size_t n) {
  std::vector<double> buf;
  if (!real_pool_.empty()) {
    std::size_t best = real_pool_.size();
    std::size_t largest = 0;
    for (std::size_t i = 0; i < real_pool_.size(); ++i) {
      const std::size_t cap = real_pool_[i].capacity();
      if (cap >= n &&
          (best == real_pool_.size() || cap < real_pool_[best].capacity())) {
        best = i;
      }
      if (cap >= real_pool_[largest].capacity()) largest = i;
    }
    if (best == real_pool_.size()) best = largest;
    buf = std::move(real_pool_[best]);
    real_pool_.erase(real_pool_.begin() + static_cast<std::ptrdiff_t>(best));
  }
  buf.resize(n);
  return buf;
}

void DspWorkspace::release(std::vector<double>&& buf) {
  real_pool_.push_back(std::move(buf));
}

}  // namespace ivnet
