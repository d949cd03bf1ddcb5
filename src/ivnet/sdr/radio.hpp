// Virtual multi-USRP transmitter array (Sec. 5(a)): N devices, each with its
// own PLL (random initial phase), a shared or free-running clock, and a PA.
//
// The array reproduces the software structure of the paper's prototype: all
// devices are handed the same command envelope and a per-device frequency
// offset ("we soft-coded these offsets directly into the complex numbers
// before sending them to the USRP"), then triggered together off the PPS.
//
// Two outputs share one synthesis: transmit() returns each device's
// waveform, and transmit_through() returns only what a receiver hears —
// the channel-weighted sum, added up without building the per-device
// waveforms (byte-identical to receive() of rf/channel.hpp over
// transmit()).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "ivnet/common/rng.hpp"
#include "ivnet/sdr/clock.hpp"
#include "ivnet/sdr/pa.hpp"
#include "ivnet/sdr/pll.hpp"
#include "ivnet/signal/waveform.hpp"

namespace ivnet {

/// Array-wide configuration.
struct RadioArrayConfig {
  double center_hz = 915e6;        ///< carrier all PLLs tune near
  double sample_rate_hz = 800e3;   ///< baseband sample rate
  double drive_dbm = 30.0;         ///< per-device drive at the PA input ref
  double pa_gain_db = 0.0;         ///< PA small-signal gain
  double pa_p1db_dbm = 30.0;       ///< HMC453 compression point
  ClockDistribution clocks = ClockDistribution::octoclock();
};

/// N synchronized transmit radios.
class RadioArray {
 public:
  RadioArray(std::size_t num_devices, const RadioArrayConfig& config, Rng& rng);

  std::size_t size() const { return plls_.size(); }
  const RadioArrayConfig& config() const { return config_; }

  /// Program per-device baseband frequency offsets (the CIB delta-f's).
  /// Throws std::invalid_argument, leaving the tuned offsets unchanged,
  /// unless offsets_hz.size() == size().
  void tune(std::span<const double> offsets_hz);

  const std::vector<double>& offsets_hz() const { return offsets_hz_; }

  /// Per-device actual offsets including residual reference error — what the
  /// sensor really receives; equals offsets_hz() under an Octoclock.
  std::vector<double> actual_offsets_hz() const;

  /// Per-device initial PLL phases (the theta_i of Eq. 5).
  std::vector<double> initial_phases() const;

  /// Transmit the same real-valued envelope from every device at its own
  /// offset, PPS-triggered: device i's waveform is delayed by its residual
  /// clock start offset (rounded to whole samples), carried at its actual
  /// offset with its PLL's random phase, amplified by the PA model. The PA
  /// runs once per run of bit-equal envelope levels, not once per sample.
  ///
  /// `start_time_s` sets the array time of the first sample, so a later
  /// burst (e.g. a query timed onto a CIB envelope peak) stays
  /// phase-continuous with an earlier one.
  ///
  /// Returns one waveform per device, all of equal length
  /// envelope.size() + max clock-skew padding. This is the oracle of
  /// transmit_through().
  std::vector<Waveform> transmit(std::span<const double> envelope,
                                 double start_time_s = 0.0) const;

  /// What a receiver hears when every device transmits `envelope`:
  /// sum_i gains[i] * device i's waveform, added into one waveform without
  /// building the per-device ones. Pass gains[i] = channel.gain(i,
  /// offsets_hz()[i]) and the result is byte-identical to
  /// receive(channel, transmit(envelope, start_time_s), offsets_hz()):
  /// the sum starts at +0 and adds devices 0..N-1 in order, each sample as
  /// gains[i] * (pa_out * carrier), with the same carriers and PA levels as
  /// transmit().
  ///
  /// One sample-major pass advances every carrier in lockstep, two devices
  /// per vector. It writes each complex product out as (ac - bd, ad + bc),
  /// which is GCC's inline std::complex multiply everywhere except where
  /// that falls back to __muldc3: both parts of a product NaN. Finite
  /// gains, bounded PA levels and unit carriers never get there, so for
  /// finite gains the bytes equal the oracle's.
  ///
  /// Throws std::invalid_argument unless gains.size() == size().
  Waveform transmit_through(std::span<const double> envelope,
                            double start_time_s,
                            std::span<const cplx> gains) const;

  /// Re-tune all PLLs: fresh random phases (a new trial).
  void retune(Rng& rng);

 private:
  /// The set-up transmit() and transmit_through() share (radio.cpp).
  struct Playback;
  Playback play(std::span<const double> envelope, double start_time_s) const;

  RadioArrayConfig config_;
  PowerAmplifier pa_;
  std::vector<Pll> plls_;
  std::vector<DeviceClock> device_clocks_;
  std::vector<double> offsets_hz_;
};

}  // namespace ivnet
