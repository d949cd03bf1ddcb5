// Adaptive duty-cycle scheduler — the "adaptive duty cycling" communication
// constraint of Sec. 3 and the Sec. 2.3 observation that a marginally
// powered sensor can still operate "by duty cycling the sensor's operation
// so that it may accumulate sufficient energy before communication".
//
// Given the per-period energy the CIB envelope delivers to the sensor and
// the energy one query/reply burst costs, the scheduler chooses how many
// charge periods to interleave between queries, adapting as the delivered
// energy estimate changes (tag moved, orientation changed).
#pragma once

#include <cstddef>

namespace ivnet {

struct SchedulerConfig {
  double burst_energy_j = 2e-6;   ///< cost of one query+reply at the tag
  double safety_margin = 1.5;     ///< stored/required ratio before querying
  double ewma_alpha = 0.3;        ///< smoothing of the harvest estimate
  std::size_t max_charge_periods = 60;  ///< never wait longer than this
};

/// Decision for the upcoming period.
enum class ScheduleAction {
  kCharge,  ///< transmit CW only: let the sensor accumulate
  kQuery,   ///< enough energy banked: send the query this period
};

/// Stateful per-sensor duty-cycle controller on the reader side.
class DutyCycleScheduler {
 public:
  explicit DutyCycleScheduler(SchedulerConfig config);

  /// Report the energy the sensor harvested over the last period (estimated
  /// from its rail telemetry or from the link budget) and get the decision
  /// for the next period.
  ScheduleAction on_period(double harvested_energy_j);

  /// The reader observed a successful reply: the tag spent a burst.
  void on_reply();

  /// The query went unanswered: assume the burst energy was wasted and
  /// back off (double the required margin for the next attempt, capped).
  void on_silence();

  /// Smoothed per-period harvest estimate.
  double harvest_estimate_j() const { return harvest_estimate_j_; }

  /// Energy the controller believes the sensor has banked.
  double banked_energy_j() const { return banked_j_; }

  std::size_t periods_since_query() const { return periods_since_query_; }

 private:
  SchedulerConfig config_;
  double harvest_estimate_j_ = 0.0;
  double banked_j_ = 0.0;
  double current_margin_;
  std::size_t periods_since_query_ = 0;
  bool have_estimate_ = false;
};

}  // namespace ivnet
