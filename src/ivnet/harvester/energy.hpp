// Energy accumulation and duty-cycling bookkeeping (Sec. 2.3: a sensor at
// shallow depth "may still operate, e.g. by duty cycling the sensor's
// operation so that it may accumulate sufficient energy before communication
// or actuation").
#pragma once

#include <span>

namespace ivnet {

/// Integrates harvested power into a reservoir and reports when the stored
/// energy suffices for a task of `task_energy_j`.
class EnergyAccumulator {
 public:
  /// @param task_energy_j  Energy one sensing/communication burst costs.
  /// @param leakage_w      Constant standby drain.
  EnergyAccumulator(double task_energy_j, double leakage_w = 0.0);

  /// Add `power_w` harvested for `dt_s` seconds. Returns the number of task
  /// bursts that became affordable (and deducts their energy).
  int step(double power_w, double dt_s);

  double stored_j() const { return stored_j_; }
  int completed_tasks() const { return completed_; }

 private:
  double task_energy_j_;
  double leakage_w_;
  double stored_j_ = 0.0;
  int completed_ = 0;
};

}  // namespace ivnet
