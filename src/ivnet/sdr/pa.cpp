#include "ivnet/sdr/pa.hpp"

#include <cmath>

#include "ivnet/common/units.hpp"

namespace ivnet {

PowerAmplifier::PowerAmplifier(double gain_db, double p1db_dbm, double smoothness)
    : gain_db_(gain_db), p1db_dbm_(p1db_dbm), smoothness_(smoothness),
      gain_linear_(db_to_amplitude(gain_db)) {
  // Solve for a_sat so that at the 1-dB compression point the Rapp model
  // output is exactly 1 dB below the linear extrapolation. With
  // r = a_out_linear / a_sat: (1 + r^(2p))^(1/(2p)) = 10^(1/20).
  const double c = std::pow(10.0, 1.0 / 20.0);  // 1 dB amplitude ratio
  const double two_p = 2.0 * smoothness_;
  const double r = std::pow(std::pow(c, two_p) - 1.0, 1.0 / two_p);
  // a_out at P1dB (actual output) is sqrt(2 * P1dB) in peak-amplitude terms;
  // for sqrt-watt sample convention |x|^2 = average power, so amplitude at
  // P1dB is sqrt(P1dB W).
  const double a_p1db = std::sqrt(dbm_to_watts(p1db_dbm_));
  // Linear-extrapolated output at that drive is 1 dB above actual.
  const double a_linear = a_p1db * c;
  a_sat_ = a_linear / r;
}

double PowerAmplifier::output_amplitude(double input_amplitude) const {
  const double a = gain_linear_ * input_amplitude;
  const double two_p = 2.0 * smoothness_;
  return a / std::pow(1.0 + std::pow(a / a_sat_, two_p), 1.0 / two_p);
}

}  // namespace ivnet
