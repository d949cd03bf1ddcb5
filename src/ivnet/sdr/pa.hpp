// Power-amplifier model — the HMC453QS16 of Sec. 5(a) (30 dBm 1-dB
// compression point). CIB cares about PA linearity because each antenna
// transmits a single tone: as long as per-antenna drive stays below
// compression, the frequency-encoded sum at the sensor is undistorted.
#pragma once

namespace ivnet {

/// Rapp soft-limiter AM/AM model:
///   g(a) = G*a / (1 + (G*a/a_sat)^(2p))^(1/(2p))
class PowerAmplifier {
 public:
  /// @param gain_db   Small-signal gain.
  /// @param p1db_dbm  Output-referred 1-dB compression point.
  /// @param smoothness  Rapp p parameter (2-3 for class-AB amplifiers).
  PowerAmplifier(double gain_db, double p1db_dbm, double smoothness = 2.0);

  /// Output amplitude for an input amplitude (sqrt-watt units).
  double output_amplitude(double input_amplitude) const;

  double gain_db() const { return gain_db_; }
  double p1db_dbm() const { return p1db_dbm_; }

  /// Output saturation amplitude [sqrt-W].
  double saturation_amplitude() const { return a_sat_; }

 private:
  double gain_db_;
  double p1db_dbm_;
  double smoothness_;
  double gain_linear_;  // amplitude gain
  double a_sat_;        // output saturation amplitude
};

}  // namespace ivnet
