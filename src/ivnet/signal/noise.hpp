// Additive white Gaussian noise generation for receiver modeling.
#pragma once

#include "ivnet/common/rng.hpp"
#include "ivnet/signal/waveform.hpp"

namespace ivnet {

/// Complex AWGN with total power `noise_power` (variance split evenly across
/// I and Q), appended in place to `wave`. Drawn by signal/gauss's sampler:
/// one raw Rng draw per real lane, 2 per sample, re before im.
void add_awgn(Waveform& wave, double noise_power, Rng& rng);

/// Thermal noise power [W] over `bandwidth_hz` at 290 K with the given
/// receiver noise figure: P = kTB * NF.
double thermal_noise_power(double bandwidth_hz, double noise_figure_db);

}  // namespace ivnet
