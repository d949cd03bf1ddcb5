#include "ivnet/harvester/harvester.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace ivnet {

Harvester::Harvester(HarvesterConfig config)
    : config_(config),
      rectifier_(config.stages, Diode::threshold(config.vth_v)) {
  assert(config_.storage_cap_f > 0.0);
  assert(config_.source_ohm > 0.0);
  assert(config_.load_ohm > 0.0);
  assert(config_.operate_voltage_v > 0.0);
}

HarvestResult Harvester::run(std::span<const double> envelope_v,
                             double sample_rate_hz, double v0) const {
  HarvestResult result;
  result.vdc.resize(envelope_v.size());
  const double dt = 1.0 / sample_rate_hz;
  const double r_src =
      static_cast<double>(config_.stages) * config_.source_ohm;
  const double r_load = config_.load_ohm;
  const double cap = config_.storage_cap_f;
  // While the diode conducts (v below the rectifier's open-circuit target)
  // the rail obeys  C dv/dt = (target - v)/Rsrc - v/Rload,  a linear ODE with
  //   v_inf = target * Rload/(Rload + Rsrc),  tau = C * Rsrc*Rload/(Rsrc+Rload).
  // Otherwise it discharges with tau_load = C * Rload. Both regimes are
  // integrated EXACTLY per sample, so the result is independent of the
  // envelope sample rate (the envelope is piecewise constant).
  const double divider = r_load / (r_load + r_src);
  const double tau_on = cap * r_src * r_load / (r_src + r_load);
  const double tau_off = cap * r_load;
  const double decay_on = std::exp(-dt / tau_on);
  const double decay_off = std::exp(-dt / tau_off);

  double v = v0;
  std::size_t conducting = 0;
  std::size_t powered = 0;
  for (std::size_t i = 0; i < envelope_v.size(); ++i) {
    const double target = rectifier_.open_circuit_vdc(envelope_v[i]);
    if (envelope_v[i] > config_.vth_v) ++conducting;
    if (v < target) {
      const double v_inf = target * divider;
      v = v_inf + (v - v_inf) * decay_on;
    } else {
      v *= decay_off;
    }
    v = std::clamp(v, 0.0, config_.clamp_voltage_v);
    result.vdc[i] = v;
    if (v >= config_.operate_voltage_v) {
      ++powered;
      if (result.first_power_up_s < 0.0) {
        result.first_power_up_s = static_cast<double>(i) * dt;
      }
      result.harvested_energy_j += v * v / config_.load_ohm * dt;
    }
    result.peak_vdc = std::max(result.peak_vdc, v);
  }
  const auto n = static_cast<double>(std::max<std::size_t>(1, envelope_v.size()));
  result.powered_fraction = static_cast<double>(powered) / n;
  result.conduction_fraction = static_cast<double>(conducting) / n;
  return result;
}

double Harvester::min_steady_amplitude() const {
  const double r_src = static_cast<double>(config_.stages) * config_.source_ohm;
  const double divider = config_.load_ohm / (config_.load_ohm + r_src);
  return config_.vth_v + config_.operate_voltage_v /
                             (static_cast<double>(config_.stages) * divider);
}

}  // namespace ivnet
