// Envelope extraction.
//
// Battery-free tags decode downlink commands by envelope detection: the tag's
// detector sees |x(t)|. The PIE decoder (gen2/pie.hpp) measures Eq. 7's
// fluctuation metric (Amax - Amin)/Amax on that envelope, the quantity the
// CIB flatness constraint (Eq. 9) bounds.
#pragma once

#include <span>
#include <vector>

#include "ivnet/signal/waveform.hpp"

namespace ivnet {

/// Instantaneous magnitude |x(t)| of a complex-baseband waveform.
std::vector<double> envelope(const Waveform& wave);

/// As above, writing into `out` (resized), so a caller that detects one
/// envelope per command attempt can reuse one buffer's capacity.
void envelope(const Waveform& wave, std::vector<double>& out);

/// Largest value in the span (0 if empty).
double max_value(std::span<const double> env);

}  // namespace ivnet
