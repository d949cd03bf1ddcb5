#include "ivnet/cib/objective.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>

#include "ivnet/cib/block_kernels.hpp"
#include "ivnet/common/parallel.hpp"
#include "ivnet/common/units.hpp"
#include "ivnet/obs/obs.hpp"

namespace ivnet {
namespace {

/// Re-anchor the rotating phasors from std::polar this often. The
/// incremental rotation multiplies a unit phasor up to 2^20 times; without
/// periodic renormalization the product drifts off the unit circle by
/// roughly steps * eps in amplitude and phase.
constexpr std::size_t kRenormInterval = 4096;

/// Tone counts up to this stay on the stack (the paper uses at most 10).
constexpr std::size_t kInlineTones = 32;

/// Stack-first scratch buffer: no heap traffic for realistic tone counts.
class Scratch {
 public:
  double* get(std::size_t n) {
    if (n <= kInlineTones) return inline_;
    heap_.resize(n);
    return heap_.data();
  }

 private:
  double inline_[kInlineTones];
  std::vector<double> heap_;
};

/// Scans the squared envelope |sum_i a_i e^{j(2 pi df_i t + beta_i)}|^2 over
/// `steps` samples of [0, t_max), calling per_sample(step, magnitude_sq) for
/// each. Structure-of-arrays layout (separate re/im lanes) with a fused
/// sum+rotate loop the compiler can autovectorize; phasors are re-anchored
/// from std::polar every kRenormInterval steps to kill multiplicative drift.
/// One trial at a time: the batch estimators run the block kernels' Eq. 6
/// scan (cib/delta_impl.hpp), whose every lane is this loop op for op, and
/// the tests pin them to it.
template <typename PerSample>
void scan_envelope_sq(std::span<const double> offsets_hz,
                      std::span<const double> phases,
                      std::span<const double> amplitudes, double t_max_s,
                      std::size_t steps, PerSample&& per_sample) {
  assert(offsets_hz.size() == phases.size());
  assert(amplitudes.empty() || amplitudes.size() == offsets_hz.size());
  const std::size_t n = offsets_hz.size();
  const double dt = t_max_s / static_cast<double>(steps);

  Scratch sre, sim, scre, scim;
  double* re = sre.get(n);
  double* im = sim.get(n);
  double* cre = scre.get(n);
  double* cim = scim.get(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double w = kTwoPi * offsets_hz[i] * dt;
    cre[i] = std::cos(w);
    cim[i] = std::sin(w);
  }
  const auto anchor = [&](std::size_t step) {
    for (std::size_t i = 0; i < n; ++i) {
      const double amp = amplitudes.empty() ? 1.0 : amplitudes[i];
      const double ph =
          phases[i] + kTwoPi * offsets_hz[i] * dt * static_cast<double>(step);
      re[i] = amp * std::cos(ph);
      im[i] = amp * std::sin(ph);
    }
  };

  anchor(0);
  for (std::size_t s = 0; s < steps; ++s) {
    if (s != 0 && s % kRenormInterval == 0) anchor(s);
    double sum_re = 0.0;
    double sum_im = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      sum_re += re[i];
      sum_im += im[i];
      const double r = re[i] * cre[i] - im[i] * cim[i];
      im[i] = re[i] * cim[i] + im[i] * cre[i];
      re[i] = r;
    }
    per_sample(s, sum_re * sum_re + sum_im * sum_im);
  }
}

constexpr std::size_t kLanes = detail::kBlockTrials;

/// `trials` rounded up to whole blocks of kLanes.
std::size_t padded_trials(std::size_t trials) {
  return (trials + kLanes - 1) / kLanes * kLanes;
}

/// Runs per_block(b, phases) for each block b of kLanes trials, one block
/// per pool claim, with the block's phase draws (detail::draw_block_phases:
/// lane l is trial kLanes * b + l). Ghost lanes' results are never read.
template <typename PerBlock>
void for_each_trial_block(std::size_t n, std::size_t trials,
                          std::uint64_t base, PerBlock&& per_block) {
  const std::size_t blocks = padded_trials(trials) / kLanes;
  std::vector<double> phases(blocks * n * kLanes);
  parallel_for(blocks, [&](std::size_t b) {
    double* block = phases.data() + b * n * kLanes;
    detail::draw_block_phases(base, b, trials, n, block);
    per_block(b, block);
  });
}

}  // namespace

std::size_t default_steps(std::span<const double> offsets_hz, double t_max_s) {
  double max_offset = 1.0;
  // NaN offsets fall out of std::max naturally; an inf offset propagates
  // into `steps` and clamps to the ceiling below.
  for (double f : offsets_hz) max_offset = std::max(max_offset, std::abs(f));
  // ~16 samples per cycle of the fastest beat; enough for a parabolic
  // refinement to land within a fraction of a percent of the true peak.
  const double steps = 16.0 * max_offset * t_max_s;
  // A NaN product (e.g. NaN t_max) would sail through std::clamp and turn
  // into an undefined size_t cast — pin it to the documented ceiling.
  if (!std::isfinite(steps)) return kMaxDefaultSteps;
  return static_cast<std::size_t>(
      std::clamp(steps, 256.0, static_cast<double>(kMaxDefaultSteps)));
}

std::vector<double> cib_envelope(std::span<const double> offsets_hz,
                                 std::span<const double> phases,
                                 std::span<const double> amplitudes,
                                 double t_max_s, std::size_t steps) {
  std::vector<double> env(steps, 0.0);
  scan_envelope_sq(offsets_hz, phases, amplitudes, t_max_s, steps,
                   [&env](std::size_t s, double sq) { env[s] = std::sqrt(sq); });
  return env;
}

double peak_envelope(std::span<const double> offsets_hz,
                     std::span<const double> phases, double t_max_s,
                     std::size_t steps) {
  if (steps == 0) steps = default_steps(offsets_hz, t_max_s);
  double best_sq = -1.0;
  std::size_t best = 0;
  double prev_sq = 0.0;
  double y0 = 0.0;  // squared envelope one sample before the peak
  double y2 = 0.0;  // ... and one sample after
  bool capture_next = false;
  scan_envelope_sq(offsets_hz, phases, /*amplitudes=*/{}, t_max_s, steps,
                   [&](std::size_t s, double sq) {
                     if (capture_next) {
                       y2 = sq;
                       capture_next = false;
                     }
                     if (sq > best_sq) {
                       best_sq = sq;
                       best = s;
                       y0 = prev_sq;
                       capture_next = true;
                     }
                     prev_sq = sq;
                   });
  // Parabolic refinement on the squared envelope around the best sample.
  if (best == 0 || best + 1 >= steps) return std::sqrt(best_sq);
  const double y1 = best_sq;
  const double denom = y0 - 2.0 * y1 + y2;
  if (std::abs(denom) < 1e-12) return std::sqrt(y1);
  const double delta = 0.5 * (y0 - y2) / denom;
  const double peak_sq = y1 - 0.25 * (y0 - y2) * delta;
  return std::sqrt(std::max(peak_sq, y1));
}

double max_envelope(std::span<const double> offsets_hz,
                    std::span<const double> phases,
                    std::span<const double> amplitudes, double t_max_s,
                    std::size_t steps) {
  if (steps == 0) steps = default_steps(offsets_hz, t_max_s);
  double best_sq = 0.0;
  scan_envelope_sq(offsets_hz, phases, amplitudes, t_max_s, steps,
                   [&best_sq](std::size_t, double sq) {
                     if (sq > best_sq) best_sq = sq;
                   });
  return std::sqrt(best_sq);
}

SampleSet peak_amplitude_samples(std::span<const double> offsets_hz,
                                 std::size_t trials, Rng& rng,
                                 double t_max_s) {
  const std::size_t n = offsets_hz.size();
  const std::size_t steps = default_steps(offsets_hz, t_max_s);
  // Hooks stay OUTSIDE the parallel trial body: the envelope kernel is the
  // repo's hottest loop and must not pay per-sample telemetry.
  obs::ScopedSpan span("cib.peak_samples", "cib");
  obs::count("cib.peak_samples.calls");
  obs::count("cib.peak_samples.trials", trials);
  const std::uint64_t base = rng();
  const double dt = t_max_s / static_cast<double>(steps);
  const detail::BlockKernels& k = detail::block_kernels();
  std::vector<double> peaks(padded_trials(trials));
  for_each_trial_block(n, trials, base, [&](std::size_t b,
                                            const double* phases) {
    k.envelope_peaks(offsets_hz.data(), n, phases, steps, dt,
                     &peaks[b * kLanes]);
  });
  SampleSet set;
  for (std::size_t t = 0; t < trials; ++t) {
    set.add(peaks[t]);
    obs::observe("cib.peak_amplitude", peaks[t]);
  }
  return set;
}

double expected_peak_amplitude(std::span<const double> offsets_hz,
                               std::size_t trials, Rng& rng, double t_max_s) {
  return peak_amplitude_samples(offsets_hz, trials, rng, t_max_s).mean();
}

double expected_peak_power_gain(std::span<const double> offsets_hz,
                                std::size_t trials, Rng& rng, double t_max_s) {
  const auto set = peak_amplitude_samples(offsets_hz, trials, rng, t_max_s);
  double sum = 0.0;
  for (double a : set.values()) sum += a * a;
  return sum / static_cast<double>(std::max<std::size_t>(1, set.size()));
}

double expected_conduction_fraction(std::span<const double> offsets_hz,
                                    double threshold_amplitude,
                                    std::size_t trials, Rng& rng,
                                    double t_max_s) {
  const std::size_t n = offsets_hz.size();
  const std::size_t steps = default_steps(offsets_hz, t_max_s);
  obs::ScopedSpan span("cib.conduction", "cib");
  obs::count("cib.conduction.calls");
  obs::count("cib.conduction.trials", trials);
  const double threshold_sq = threshold_amplitude * threshold_amplitude;
  const std::uint64_t base = rng();
  const double dt = t_max_s / static_cast<double>(steps);
  const detail::BlockKernels& k = detail::block_kernels();
  std::vector<std::uint64_t> above(padded_trials(trials));
  for_each_trial_block(n, trials, base, [&](std::size_t b,
                                            const double* phases) {
    k.envelope_above(offsets_hz.data(), n, phases, steps, dt, threshold_sq,
                     &above[b * kLanes]);
  });
  double total = 0.0;  // sequential sum: bitwise identical across pool sizes
  for (std::size_t t = 0; t < trials; ++t) {
    total += static_cast<double>(above[t]) / static_cast<double>(steps);
  }
  return total / static_cast<double>(std::max<std::size_t>(1, trials));
}

}  // namespace ivnet
