#include "ivnet/cib/scheduler.hpp"

#include <algorithm>
#include <cassert>

namespace ivnet {

DutyCycleScheduler::DutyCycleScheduler(SchedulerConfig config)
    : config_(config), current_margin_(config.safety_margin) {
  assert(config_.burst_energy_j > 0.0);
  assert(config_.safety_margin >= 1.0);
}

ScheduleAction DutyCycleScheduler::on_period(double harvested_energy_j) {
  harvested_energy_j = std::max(0.0, harvested_energy_j);
  if (!have_estimate_) {
    harvest_estimate_j_ = harvested_energy_j;
    have_estimate_ = true;
  } else {
    harvest_estimate_j_ +=
        config_.ewma_alpha * (harvested_energy_j - harvest_estimate_j_);
  }
  banked_j_ += harvested_energy_j;
  ++periods_since_query_;

  const double required = config_.burst_energy_j * current_margin_;
  if (banked_j_ >= required ||
      periods_since_query_ >= config_.max_charge_periods) {
    return ScheduleAction::kQuery;
  }
  return ScheduleAction::kCharge;
}

void DutyCycleScheduler::on_reply() {
  banked_j_ = std::max(0.0, banked_j_ - config_.burst_energy_j);
  current_margin_ = config_.safety_margin;  // link healthy: reset backoff
  periods_since_query_ = 0;
}

void DutyCycleScheduler::on_silence() {
  // The tag likely browned out mid-burst: its bank is gone, and we demand
  // more margin before trying again.
  banked_j_ = 0.0;
  current_margin_ = std::min(current_margin_ * 2.0,
                             config_.safety_margin * 8.0);
  periods_since_query_ = 0;
}

}  // namespace ivnet
