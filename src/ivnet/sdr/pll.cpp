#include "ivnet/sdr/pll.hpp"

namespace ivnet {

Pll::Pll(double nominal_hz, Rng& rng)
    : nominal_hz_(nominal_hz), theta_(rng.phase()) {}

void Pll::relock(Rng& rng) { theta_ = rng.phase(); }

}  // namespace ivnet
