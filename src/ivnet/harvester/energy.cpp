#include "ivnet/harvester/energy.hpp"

#include <algorithm>
#include <cassert>

namespace ivnet {

EnergyAccumulator::EnergyAccumulator(double task_energy_j, double leakage_w)
    : task_energy_j_(task_energy_j), leakage_w_(leakage_w) {
  assert(task_energy_j_ > 0.0);
  assert(leakage_w_ >= 0.0);
}

int EnergyAccumulator::step(double power_w, double dt_s) {
  stored_j_ += (power_w - leakage_w_) * dt_s;
  stored_j_ = std::max(stored_j_, 0.0);
  int bursts = 0;
  while (stored_j_ >= task_energy_j_) {
    stored_j_ -= task_energy_j_;
    ++bursts;
  }
  completed_ += bursts;
  return bursts;
}

}  // namespace ivnet
