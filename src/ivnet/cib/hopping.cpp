#include "ivnet/cib/hopping.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "ivnet/cib/objective.hpp"

namespace ivnet {

FrequencyHopper::FrequencyHopper(HopperConfig config)
    : config_(std::move(config)),
      estimates_(config_.candidate_centers_hz.size(), config_.optimistic_init),
      probed_(config_.candidate_centers_hz.size(), false) {
  assert(!config_.candidate_centers_hz.empty());
}

bool FrequencyHopper::report(double peak_amplitude) {
  if (!probed_[current_]) {
    estimates_[current_] = peak_amplitude;
    probed_[current_] = true;
  } else {
    estimates_[current_] += config_.ewma_alpha *
                            (peak_amplitude - estimates_[current_]);
  }

  // Best smoothed estimate across bands (optimistic for unprobed ones, so
  // exploration happens naturally).
  std::size_t best = 0;
  for (std::size_t b = 1; b < estimates_.size(); ++b) {
    if (estimates_[b] > estimates_[best]) best = b;
  }
  if (best != current_ &&
      estimates_[current_] < config_.hop_ratio * estimates_[best]) {
    current_ = best;
    ++hops_;
    return true;
  }
  return false;
}

double band_peak_amplitude(const Channel& channel,
                           std::span<const double> offsets_hz,
                           double band_offset_hz, double t_max_s) {
  assert(offsets_hz.size() == channel.num_tx());
  std::vector<double> amplitudes(offsets_hz.size());
  std::vector<double> phases(offsets_hz.size());
  for (std::size_t i = 0; i < offsets_hz.size(); ++i) {
    const cplx h = channel.gain(i, band_offset_hz + offsets_hz[i]);
    amplitudes[i] = std::abs(h);
    phases[i] = std::arg(h);
  }
  const std::size_t steps = default_steps(offsets_hz, t_max_s);
  const auto env =
      cib_envelope(offsets_hz, phases, amplitudes, t_max_s, steps);
  double peak = 0.0;
  for (double v : env) peak = std::max(peak, v);
  return peak;
}

}  // namespace ivnet
