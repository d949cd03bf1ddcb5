// The CIB transmitter: marries a FrequencyPlan to a RadioArray and the Gen2
// downlink. All antennas transmit the same PIE command envelope at the same
// instant (coherent communication) on their own carriers (incoherent
// channel) — Sec. 3.2.
#pragma once

#include <span>
#include <vector>

#include "ivnet/cib/frequency_plan.hpp"
#include "ivnet/sdr/radio.hpp"

namespace ivnet {

/// Multi-antenna CIB transmitter.
class CibTransmitter {
 public:
  /// The radio array is created with plan.num_antennas() devices.
  CibTransmitter(FrequencyPlan plan, const RadioArrayConfig& radio_config,
                 Rng& rng);

  const FrequencyPlan& plan() const { return plan_; }
  RadioArray& radios() { return radios_; }
  const RadioArray& radios() const { return radios_; }

  /// The all-ones envelope of a continuous-wave burst of `duration_s` at
  /// the array's sample rate — the charging phase between commands.
  std::vector<double> cw_envelope(double duration_s) const;

  /// Per-antenna waveforms for that burst: radios().transmit(cw_envelope()).
  std::vector<Waveform> transmit_cw(double duration_s) const;

  /// New trial: re-draw every PLL's initial phase.
  void new_trial(Rng& rng);

 private:
  FrequencyPlan plan_;
  RadioArray radios_;
};

}  // namespace ivnet
