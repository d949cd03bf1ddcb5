#include "ivnet/reader/oob_reader.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "ivnet/common/units.hpp"
#include "ivnet/signal/gauss.hpp"
#include "ivnet/signal/noise.hpp"

namespace ivnet {

OobReader::OobReader(OobReaderConfig config) : config_(config) {}

double OobReader::tx_amplitude_sqrtw() const {
  return std::sqrt(dbm_to_watts(config_.tx_power_dbm));
}

OobDecodeReport OobReader::decode(std::span<const double> reflection,
                                  double round_trip_gain,
                                  double jam_power_at_rx_w, double blf_hz,
                                  std::size_t num_bits, Rng& rng) const {
  OobDecodeReport report;

  // Self-jamming path. Without out-of-band separation the full CIB power
  // lands in the receiver; the SAW knocks it down by the rejection.
  const double jam_after_saw_w =
      jam_power_at_rx_w * from_db(-config_.saw_rejection_db);
  report.jam_power_dbm = watts_to_dbm(std::max(jam_after_saw_w, 1e-30));
  if (jam_after_saw_w > dbm_to_watts(config_.rx_saturation_dbm)) {
    report.saturated = true;
    return report;
  }

  // Backscatter signal power at the receiver: the tag modulates the reader's
  // CW with Gamma(t); the round-trip voltage gain scales it.
  const double tx_amp = tx_amplitude_sqrtw();
  const double mod_rms_sq =
      reflection.empty()
          ? 0.0
          : std::inner_product(reflection.begin(), reflection.end(),
                               reflection.begin(), 0.0) /
                static_cast<double>(reflection.size());
  const double signal_power_w =
      tx_amp * tx_amp * round_trip_gain * round_trip_gain * mod_rms_sq;
  report.signal_power_dbm = watts_to_dbm(std::max(signal_power_w, 1e-30));

  // Noise: thermal over the decode bandwidth (~2x BLF) plus residual jam
  // spurs leaking past the chain's dynamic range.
  const double bandwidth = 2.0 * blf_hz;
  const double noise_w =
      thermal_noise_power(bandwidth, config_.rx_noise_figure_db) +
      jam_after_saw_w * from_db(-config_.spur_floor_db);

  // Coherent averaging over K CIB periods: signal adds coherently, noise
  // averages down by K.
  const auto k = static_cast<double>(std::max<std::size_t>(
      1, config_.averaging_periods));
  const double post_noise_w = noise_w / k;
  report.snr_db = to_db(std::max(signal_power_w, 1e-30) /
                        std::max(post_noise_w, 1e-30));

  // Synthesize the averaged received baseband: amplitude-faithful signal
  // plus per-period-averaged AWGN, one sampler draw per sample.
  const double amp = tx_amp * round_trip_gain;
  std::vector<double>& rx = report.averaged_signal;
  rx.resize(reflection.size());
  for (std::size_t i = 0; i < reflection.size(); ++i) {
    rx[i] = amp * reflection[i];
  }
  signal::axpy_awgn(rng, std::sqrt(post_noise_w / 2.0), rx);

  const auto decoded = gen2::fm0_decode(rx, num_bits, blf_hz,
                                        config_.sample_rate_hz,
                                        config_.min_correlation);
  report.preamble_correlation = decoded.preamble_correlation;
  report.success = decoded.valid;
  if (decoded.valid) report.bits = decoded.bits;
  return report;
}

}  // namespace ivnet
