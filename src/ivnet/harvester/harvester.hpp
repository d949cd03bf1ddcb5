// Quasi-static envelope-driven energy harvester.
//
// CIB deliberately concentrates power into short envelope peaks (Sec. 3.4:
// "focuses its energy over a short period of time and duty cycles the
// energy"). What matters to the tag is the DC rail dynamics while the
// envelope A(t) sweeps above and below the diode threshold. Because the
// envelope varies on millisecond scales while the carrier is ~1 ns, we use a
// quasi-static model: at each envelope sample the rectifier behaves as a DC
// source of open-circuit voltage N*(A - Vth) charging the storage capacitor,
// which simultaneously discharges into the chip load. A carrier-rate
// transient simulator (transient.hpp) validates this model in the tests.
#pragma once

#include <span>
#include <vector>

#include "ivnet/harvester/rectifier.hpp"

namespace ivnet {

/// Storage/load configuration of a harvesting tag front end.
struct HarvesterConfig {
  int stages = 4;                 ///< rectifier stages (N in Eq. 1)
  double vth_v = 0.3;             ///< diode threshold (200-400 mV typical)
  double storage_cap_f = 100e-12; ///< on-chip storage capacitor
  double source_ohm = 2000.0;     ///< per-stage charge-path resistance
  double load_ohm = 200e3;        ///< chip load while powered
  double operate_voltage_v = 1.0; ///< VDC needed to run the chip
  double clamp_voltage_v = 3.3;   ///< shunt-regulator limit on the rail
};

/// Result of simulating the harvester over one envelope record.
struct HarvestResult {
  std::vector<double> vdc;     ///< DC rail voltage per envelope sample
  double peak_vdc = 0.0;       ///< max rail voltage reached
  double powered_fraction = 0.0;  ///< fraction of time VDC >= operate voltage
  double first_power_up_s = -1.0; ///< time VDC first crossed operate voltage
                                  ///< (-1 if never)
  double harvested_energy_j = 0.0;///< energy delivered into the load
  double conduction_fraction = 0.0; ///< fraction of samples with A > Vth
};

/// Envelope-driven harvester simulation.
class Harvester {
 public:
  explicit Harvester(HarvesterConfig config);

  const HarvesterConfig& config() const { return config_; }
  const Rectifier& rectifier() const { return rectifier_; }

  /// Simulate the rail given the received envelope A(t) [V] sampled at
  /// `sample_rate_hz`. Initial rail voltage is `v0`.
  HarvestResult run(std::span<const double> envelope_v, double sample_rate_hz,
                    double v0 = 0.0) const;

  /// Minimum steady carrier amplitude that powers the chip.
  double min_steady_amplitude() const;

 private:
  HarvesterConfig config_;
  Rectifier rectifier_;
};

}  // namespace ivnet
