#include "ivnet/sdr/radio.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <stdexcept>

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

/// Everything a transmission plays, set up once for all devices.
struct RadioArray::Playback {
  /// Samples per device: the envelope plus the worst clock skew.
  std::size_t length = 0;
  /// PA output of every sample a device can play: the envelope's levels
  /// framed by idle (zero-drive) output, so that device i at array time n
  /// plays played[first[i] + n] whatever its PPS skew.
  std::vector<double> played;
  std::vector<std::size_t> first;
  std::vector<PhasorRotator> carriers;

  /// Calls emit(n, s) for every array time n, in order, where s is what
  /// device i emits at n.
  template <class Emit>
  void device(std::size_t i, Emit&& emit) const {
    const double* a = played.data() + first[i];
    // A local copy keeps the carrier in registers: stores through the
    // caller's cplx pointer could otherwise alias it.
    PhasorRotator rot = carriers[i];
    for (std::size_t n = 0; n < length; ++n) {
      emit(n, a[n] * rot.value());
      rot.advance();
    }
  }
};

RadioArray::Playback RadioArray::play(std::span<const double> envelope,
                                      double start_time_s) const {
  const double fs = config_.sample_rate_hz;
  Playback p;
  // Device i plays envelope[n - skew_i] at array time n; pad all waveforms
  // to a common length covering the worst clock skew.
  std::ptrdiff_t max_skew = 0;
  std::vector<std::ptrdiff_t> skews(plls_.size());
  for (std::size_t i = 0; i < plls_.size(); ++i) {
    skews[i] = static_cast<std::ptrdiff_t>(
        std::llround(device_clocks_[i].start_offset_s * fs));
    max_skew = std::max(max_skew, std::abs(skews[i]));
  }
  p.length = envelope.size() + static_cast<std::size_t>(max_skew);
  for (const std::ptrdiff_t skew : skews) {
    p.first.push_back(static_cast<std::size_t>(max_skew - skew));
  }

  // The PA runs once per run of equal levels (PIE and CW envelopes hold a
  // few long runs), not once per sample. Runs compare bit patterns, so
  // -0.0 and 0.0 keep their own outputs, exactly as a per-sample
  // output_amplitude(drive_amp * env) gives them.
  const double drive_amp = std::sqrt(dbm_to_watts(config_.drive_dbm));
  const std::size_t pad = static_cast<std::size_t>(max_skew);
  double level = 0.0;
  double out = pa_.output_amplitude(drive_amp * level);
  p.played.assign(envelope.size() + 3 * pad, out);
  for (std::size_t k = 0; k < envelope.size(); ++k) {
    if (std::bit_cast<std::uint64_t>(envelope[k]) !=
        std::bit_cast<std::uint64_t>(level)) {
      level = envelope[k];
      out = pa_.output_amplitude(drive_amp * level);
    }
    p.played[pad + k] = out;
  }

  const auto actual = actual_offsets_hz();
  p.carriers.reserve(plls_.size());
  for (std::size_t i = 0; i < plls_.size(); ++i) {
    p.carriers.emplace_back(
        plls_[i].initial_phase() + kTwoPi * actual[i] * start_time_s,
        kTwoPi * actual[i] / fs);
  }
  return p;
}

std::vector<Waveform> RadioArray::transmit(std::span<const double> envelope,
                                           double start_time_s) const {
  const Playback p = play(envelope, start_time_s);
  std::vector<Waveform> waves(plls_.size());
  for (std::size_t i = 0; i < waves.size(); ++i) {
    waves[i].sample_rate_hz = config_.sample_rate_hz;
    waves[i].samples.resize(p.length);
    p.device(i, [out = waves[i].samples.data()](std::size_t n, cplx s) {
      out[n] = s;
    });
  }
  return waves;
}

Waveform RadioArray::transmit_through(std::span<const double> envelope,
                                      double start_time_s,
                                      std::span<const cplx> gains) const {
  if (gains.size() != plls_.size()) {
    throw std::invalid_argument(
        "RadioArray::transmit_through: one gain per device required");
  }
  const Playback p = play(envelope, start_time_s);
  Waveform rx;
  rx.sample_rate_hz = config_.sample_rate_hz;
  rx.samples.assign(p.length, cplx{0.0, 0.0});
  // From +0, devices in order 0..N-1: the sums receive() forms.
  for (std::size_t i = 0; i < gains.size(); ++i) {
    p.device(i, [out = rx.samples.data(), g = gains[i]](std::size_t n, cplx s) {
      out[n] += g * s;
    });
  }
  return rx;
}

void RadioArray::retune(Rng& rng) {
  for (auto& pll : plls_) pll.relock(rng);
}

}  // namespace ivnet
