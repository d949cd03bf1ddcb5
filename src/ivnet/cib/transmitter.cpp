#include "ivnet/cib/transmitter.hpp"

#include <cmath>
#include <utility>

namespace ivnet {

CibTransmitter::CibTransmitter(FrequencyPlan plan,
                               const RadioArrayConfig& radio_config, Rng& rng)
    : plan_(std::move(plan)),
      radios_(plan_.num_antennas(), radio_config, rng) {
  radios_.tune(plan_.offsets_hz());
}

std::vector<double> CibTransmitter::cw_envelope(double duration_s) const {
  const auto n = static_cast<std::size_t>(
      std::llround(duration_s * radios_.config().sample_rate_hz));
  return std::vector<double>(n, 1.0);
}

std::vector<Waveform> CibTransmitter::transmit_cw(double duration_s) const {
  return radios_.transmit(cw_envelope(duration_s));
}

void CibTransmitter::new_trial(Rng& rng) { radios_.retune(rng); }

}  // namespace ivnet
