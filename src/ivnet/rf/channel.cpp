#include "ivnet/rf/channel.hpp"

#include <cassert>
#include <cmath>
#include <utility>

#include "ivnet/common/units.hpp"

namespace ivnet {

Channel::Channel(std::vector<std::vector<Ray>> rays_per_tx)
    : rays_(std::move(rays_per_tx)) {}

cplx Channel::gain(std::size_t tx, double freq_offset_hz) const {
  assert(tx < rays_.size());
  cplx h{0.0, 0.0};
  for (const Ray& ray : rays_[tx]) {
    h += std::polar(ray.amplitude,
                    ray.phase - kTwoPi * freq_offset_hz * ray.delay_s);
  }
  return h;
}

Channel make_blind_channel(std::span<const double> amplitudes, Rng& rng) {
  std::vector<std::vector<Ray>> rays;
  rays.reserve(amplitudes.size());
  for (double amp : amplitudes) {
    rays.push_back({Ray{.amplitude = amp, .delay_s = 0.0, .phase = rng.phase()}});
  }
  return Channel(std::move(rays));
}

Channel make_multipath_channel(std::span<const double> amplitudes,
                               std::size_t num_rays, double delay_spread_s,
                               Rng& rng) {
  assert(num_rays >= 1);
  std::vector<std::vector<Ray>> rays;
  rays.reserve(amplitudes.size());
  for (double amp : amplitudes) {
    std::vector<Ray> antenna_rays;
    antenna_rays.reserve(num_rays);
    // Exponential power-delay profile p_k ~ e^{-k/num_rays * 3}; normalize so
    // sum of ray powers equals amp^2 (energy conservation in expectation).
    std::vector<double> powers(num_rays);
    double total = 0.0;
    for (std::size_t k = 0; k < num_rays; ++k) {
      powers[k] = std::exp(-3.0 * static_cast<double>(k) /
                           static_cast<double>(num_rays));
      total += powers[k];
    }
    for (std::size_t k = 0; k < num_rays; ++k) {
      const double ray_amp = amp * std::sqrt(powers[k] / total);
      const double delay =
          delay_spread_s * static_cast<double>(k) /
          std::max<double>(1.0, static_cast<double>(num_rays - 1));
      antenna_rays.push_back(
          Ray{.amplitude = ray_amp, .delay_s = delay, .phase = rng.phase()});
    }
    rays.push_back(std::move(antenna_rays));
  }
  return Channel(std::move(rays));
}

Waveform receive(const Channel& channel, std::span<const Waveform> tx_waves,
                 std::span<const double> tx_offsets_hz) {
  assert(tx_waves.size() == channel.num_tx());
  assert(tx_offsets_hz.size() == tx_waves.size());
  Waveform rx;
  for (std::size_t i = 0; i < tx_waves.size(); ++i) {
    accumulate(rx, tx_waves[i], channel.gain(i, tx_offsets_hz[i]));
  }
  return rx;
}

}  // namespace ivnet
