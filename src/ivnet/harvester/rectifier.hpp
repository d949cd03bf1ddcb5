// N-stage voltage-multiplying rectifier (Dickson charge pump), Sec. 2.1.
//
// Eq. 1: V_DC = N * (V_s - V_th). Each stage contributes the input amplitude
// minus one diode threshold; below threshold nothing is harvested at all.
#pragma once

#include "ivnet/harvester/diode.hpp"

namespace ivnet {

/// Analytic model of an N-stage rectifier built from identical diodes.
class Rectifier {
 public:
  /// @param stages  Number of voltage-doubling stages (N in Eq. 1).
  /// @param diode   The diode model every stage uses.
  Rectifier(int stages, Diode diode);

  int stages() const { return stages_; }
  const Diode& diode() const { return diode_; }

  /// Open-circuit DC output for a steady carrier of peak amplitude `vs`:
  /// Eq. 1, clamped at zero below threshold.
  double open_circuit_vdc(double vs) const;

  /// Minimum input amplitude that produces any output: V_th.
  double sensitivity_voltage() const { return diode_.turn_on_voltage(); }

  /// RF-to-DC conversion efficiency proxy in [0, 1]: the fraction of the
  /// input-cycle energy delivered past the threshold barrier,
  ///   eta(vs) = (VDC/N)^2 / vs^2 = ((vs - vth)/vs)^2  for vs > vth.
  /// Captures the Sec. 2.1.1 observation that efficiency collapses as vs
  /// approaches vth and approaches 1 for vs >> vth.
  double efficiency(double vs) const;

 private:
  int stages_;
  Diode diode_;
};

}  // namespace ivnet
