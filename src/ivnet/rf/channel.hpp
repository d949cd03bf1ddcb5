// Channel models between the multi-antenna transmitter and the in-vivo sensor.
//
// The defining property of the problem (Sec. 3.1) is that the channel is
// BLIND: tissue inhomogeneity and multipath make the per-antenna phases
// unpredictable, and the battery-free sensor cannot be asked for feedback.
// We therefore model each TX antenna -> sensor path as one or more rays whose
// amplitudes come from the propagation physics but whose phases are sampled
// uniformly at random — exactly the beta_i ~ U[0, 2pi) of Eq. 5.
#pragma once

#include <complex>
#include <cstddef>
#include <span>
#include <vector>

#include "ivnet/common/rng.hpp"
#include "ivnet/signal/waveform.hpp"

namespace ivnet {

/// One propagation ray: amplitude (voltage gain), group delay, and the
/// unknown phase accumulated through tissue boundaries and reflections.
struct Ray {
  double amplitude = 0.0;  ///< |h| contribution (V at sensor per sqrt-W sent).
  double delay_s = 0.0;    ///< group delay; adds -2*pi*f*delay phase slope.
  double phase = 0.0;      ///< frequency-flat unknown phase offset.
};

/// Frequency-dependent complex channel from each TX antenna to the sensor.
///
/// `gain(i, f)` returns the complex voltage gain of antenna i evaluated at
/// absolute frequency offset `f` from the band center (complex baseband
/// convention shared with Waveform).
class Channel {
 public:
  explicit Channel(std::vector<std::vector<Ray>> rays_per_tx);

  std::size_t num_tx() const { return rays_.size(); }

  /// Complex gain of TX antenna `tx` at baseband offset `freq_offset_hz`.
  cplx gain(std::size_t tx, double freq_offset_hz) const;

  const std::vector<std::vector<Ray>>& rays() const { return rays_; }

 private:
  std::vector<std::vector<Ray>> rays_;
};

/// Single-ray blind channel: per-antenna amplitude from physics, phase
/// uniform at random. This is Eq. 5's model.
Channel make_blind_channel(std::span<const double> amplitudes, Rng& rng);

/// Rich multipath channel: `num_rays` rays per antenna with an exponential
/// power-delay profile of RMS spread `delay_spread_s`, normalized so the
/// expected total power equals amplitude^2. Random phases per ray.
Channel make_multipath_channel(std::span<const double> amplitudes,
                               std::size_t num_rays, double delay_spread_s,
                               Rng& rng);

/// Received waveform when each TX antenna i transmits `tx_waves[i]` centered
/// at baseband offset `tx_offsets_hz[i]` (narrowband: the channel is
/// evaluated at the carrier offset of each antenna).
Waveform receive(const Channel& channel, std::span<const Waveform> tx_waves,
                 std::span<const double> tx_offsets_hz);

}  // namespace ivnet
