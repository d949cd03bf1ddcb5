// Adaptive center-frequency hopping — the Sec. 3.7 robustness extension:
// "In some scenarios, all the frequencies may experience multipath fading
// ... An extension of this design may adaptively hop the center frequency
// to a different band to improve performance."
//
// CIB's Hz-scale offsets all fade together when the whole band is in a
// frequency-selective notch (the channel's coherence bandwidth is MHz-scale,
// far wider than the 137 Hz plan). The hopper tracks a per-band EWMA of the
// delivered peak amplitude and moves the center carrier when the current
// band underperforms, probing unexplored bands round-robin.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "ivnet/rf/channel.hpp"

namespace ivnet {

struct HopperConfig {
  /// Candidate center carriers, e.g. the 902-928 MHz ISM hop set.
  std::vector<double> candidate_centers_hz = {903e6, 909e6, 915e6, 921e6,
                                              927e6};
  /// Hop when the current band's smoothed peak falls below this fraction of
  /// the best band seen so far.
  double hop_ratio = 0.7;
  /// EWMA smoothing factor for per-band peak estimates.
  double ewma_alpha = 0.5;
  /// Estimate assigned to never-probed bands (optimistic to force probing).
  double optimistic_init = 1e9;
};

/// Stateful band selector.
class FrequencyHopper {
 public:
  explicit FrequencyHopper(HopperConfig config);

  std::size_t num_bands() const { return config_.candidate_centers_hz.size(); }
  std::size_t current_band() const { return current_; }
  double current_center_hz() const {
    return config_.candidate_centers_hz[current_];
  }

  /// Report the measured peak amplitude delivered in the current band this
  /// period. Returns true if the hopper decided to change bands.
  bool report(double peak_amplitude);

  std::size_t hops() const { return hops_; }

 private:
  HopperConfig config_;
  std::vector<double> estimates_;
  std::vector<bool> probed_;
  std::size_t current_ = 0;
  std::size_t hops_ = 0;
};

/// Evaluate the CIB peak amplitude when the whole plan is re-centered at
/// `band_offset_hz` from the channel's reference frequency: each antenna's
/// gain is taken at band_offset + its own CIB offset.
double band_peak_amplitude(const Channel& channel,
                           std::span<const double> offsets_hz,
                           double band_offset_hz, double t_max_s = 1.0);

}  // namespace ivnet
