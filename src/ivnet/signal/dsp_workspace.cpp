#include "ivnet/signal/dsp_workspace.hpp"

namespace ivnet {
namespace {

/// Best-fit checkout: the free-list entry with the smallest capacity >= n,
/// or — when nothing is big enough — the largest entry (so one buffer grows
/// instead of several). The old LIFO policy regrew buffers pathologically
/// in batch loops: release a 460-cap and a 2700-cap buffer, then acquire
/// 460 → LIFO hands back the 2700-cap one, and the next acquire(2700) has
/// to regrow the 460-cap buffer. Best-fit makes a batch's steady state
/// allocation-free after the first trial. Linear scan: the pools hold a
/// handful of entries, so this is cheaper than keeping them sorted.
template <typename T>
std::vector<T> best_fit_take(std::vector<std::vector<T>>& pool,
                             std::size_t n) {
  std::size_t best = pool.size();
  std::size_t largest = 0;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const std::size_t cap = pool[i].capacity();
    if (cap >= n && (best == pool.size() || cap < pool[best].capacity())) {
      best = i;
    }
    if (cap >= pool[largest].capacity()) largest = i;
  }
  if (best == pool.size()) best = largest;
  std::vector<T> buf = std::move(pool[best]);
  pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(best));
  return buf;
}

}  // namespace

std::vector<double> DspWorkspace::acquire_real(std::size_t n) {
  std::vector<double> buf;
  if (!real_pool_.empty()) buf = best_fit_take(real_pool_, n);
  buf.resize(n);
  return buf;
}

std::vector<cplx> DspWorkspace::acquire_cplx(std::size_t n) {
  std::vector<cplx> buf;
  if (!cplx_pool_.empty()) buf = best_fit_take(cplx_pool_, n);
  buf.resize(n);
  return buf;
}

void DspWorkspace::release(std::vector<double>&& buf) {
  real_pool_.push_back(std::move(buf));
}

void DspWorkspace::release(std::vector<cplx>&& buf) {
  cplx_pool_.push_back(std::move(buf));
}

DspWorkspace& DspWorkspace::tls() {
  static thread_local DspWorkspace workspace;
  return workspace;
}

}  // namespace ivnet
