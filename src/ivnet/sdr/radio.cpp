#include "ivnet/sdr/radio.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "ivnet/common/units.hpp"
#include "ivnet/signal/phasor.hpp"

namespace ivnet {

RadioArray::RadioArray(std::size_t num_devices, const RadioArrayConfig& config,
                       Rng& rng)
    : config_(config),
      pa_(config.pa_gain_db, config.pa_p1db_dbm),
      offsets_hz_(num_devices, 0.0) {
  device_clocks_ = config_.clocks.distribute(num_devices, rng);
  plls_.reserve(num_devices);
  for (std::size_t i = 0; i < num_devices; ++i) {
    plls_.emplace_back(config_.center_hz, device_clocks_[i].ppm_error, rng);
  }
}

void RadioArray::tune(std::span<const double> offsets_hz) {
  assert(offsets_hz.size() == plls_.size());
  offsets_hz_.assign(offsets_hz.begin(), offsets_hz.end());
}

std::vector<double> RadioArray::actual_offsets_hz() const {
  std::vector<double> actual(plls_.size());
  for (std::size_t i = 0; i < plls_.size(); ++i) {
    // Reference error shifts the full carrier; at baseband that appears as
    // an extra offset of center * ppm * 1e-6.
    actual[i] = offsets_hz_[i] +
                config_.center_hz * device_clocks_[i].ppm_error * 1e-6;
  }
  return actual;
}

std::vector<double> RadioArray::initial_phases() const {
  std::vector<double> phases(plls_.size());
  for (std::size_t i = 0; i < plls_.size(); ++i) {
    phases[i] = plls_[i].initial_phase();
  }
  return phases;
}

std::vector<Waveform> RadioArray::transmit(std::span<const double> envelope,
                                           double start_time_s) const {
  const double fs = config_.sample_rate_hz;
  // Pad all waveforms to a common length covering the worst clock skew.
  std::ptrdiff_t max_skew = 0;
  std::vector<std::ptrdiff_t> skews(plls_.size());
  for (std::size_t i = 0; i < plls_.size(); ++i) {
    skews[i] = static_cast<std::ptrdiff_t>(
        std::llround(device_clocks_[i].start_offset_s * fs));
    max_skew = std::max(max_skew, std::abs(skews[i]));
  }
  const std::size_t length = envelope.size() + static_cast<std::size_t>(max_skew);

  const double drive_amp = std::sqrt(dbm_to_watts(config_.drive_dbm));
  const auto actual = actual_offsets_hz();

  std::vector<Waveform> waves;
  waves.reserve(plls_.size());
  for (std::size_t i = 0; i < plls_.size(); ++i) {
    Waveform wave;
    wave.sample_rate_hz = fs;
    wave.samples.assign(length, cplx{0.0, 0.0});
    PhasorRotator rot(
        plls_[i].initial_phase() + kTwoPi * actual[i] * start_time_s,
        kTwoPi * actual[i] / fs);
    for (std::size_t n = 0; n < length; ++n) {
      // Envelope sample this device plays at array time n (PPS skew shifts
      // the device's own timeline).
      const std::ptrdiff_t src = static_cast<std::ptrdiff_t>(n) - skews[i];
      double env = 0.0;
      if (src >= 0 && src < static_cast<std::ptrdiff_t>(envelope.size())) {
        env = envelope[static_cast<std::size_t>(src)];
      }
      const double in_amp = drive_amp * env;
      const double out_amp = pa_.output_amplitude(in_amp);
      wave.samples[n] = out_amp * rot.value();
      rot.advance();
    }
    waves.push_back(std::move(wave));
  }
  return waves;
}

void RadioArray::retune(Rng& rng) {
  for (auto& pll : plls_) pll.relock(rng);
}

}  // namespace ivnet
