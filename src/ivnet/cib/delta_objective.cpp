#include "ivnet/cib/delta_objective.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

#include "ivnet/common/parallel.hpp"
#include "ivnet/common/units.hpp"
#include "ivnet/obs/obs.hpp"

namespace ivnet {
namespace {

/// Same anchor cadence as cib/objective.cpp and signal/phasor.hpp: the
/// incremental rotation is re-anchored from cos/sin every 4096 steps so
/// multiplicative drift stays O(4096 * eps).
constexpr std::size_t kRenormInterval = 4096;

/// Fixed-point resolution of a tone sample: 2^40. Tone re/im lie in
/// [-1, 1] (plus O(kRenormInterval * eps) rotation drift), so a quantized
/// sample fits in 41 bits and sums of up to 2^12 tones stay below 2^53 —
/// the range where both the int64 sum and its double conversion are exact.
constexpr double kQuantScale = 1099511627776.0;       // 2^40
constexpr double kInvQuantScale = 1.0 / kQuantScale;  // exact power of two

/// Tones the build adds per pass over a trial's lanes.
constexpr std::size_t kToneGroup = 4;

std::int64_t quantize(double v) {
  return detail::exact_llround(v * kQuantScale);
}

/// One tone being subtracted (sign -1) or added (sign +1) by a move.
struct MoveAdj {
  double offset_hz = 0.0;
  double phase = 0.0;
  std::int64_t sign = 0;
  // Rotation state (filled by trial_peak).
  double re = 0.0, im = 0.0, cre = 0.0, cim = 0.0;
};

/// Adds the G tones `e^{j(2 pi offsets_hz[k] t + phases[k])}`, each sample
/// quantized, into the lanes in one pass. Every tone keeps its own rotation
/// op sequence (the one trial_peak runs), and the quantized samples are
/// integers, so how tones are grouped never changes the lanes.
template <std::size_t G>
void accumulate_group(std::int64_t* wre, std::int64_t* wim, std::size_t steps,
                      double dt, const double* offsets_hz,
                      const double* phases) {
  double w[G], cre[G], cim[G], re[G], im[G];
  for (std::size_t k = 0; k < G; ++k) {
    w[k] = kTwoPi * offsets_hz[k] * dt;
    cre[k] = std::cos(w[k]);
    cim[k] = std::sin(w[k]);
    re[k] = std::cos(phases[k]);
    im[k] = std::sin(phases[k]);
  }
  for (std::size_t s = 0; s < steps; ++s) {
    if (s != 0 && s % kRenormInterval == 0) {
      for (std::size_t k = 0; k < G; ++k) {
        const double ph = phases[k] + w[k] * static_cast<double>(s);
        re[k] = std::cos(ph);
        im[k] = std::sin(ph);
      }
    }
    std::int64_t qr = 0;
    std::int64_t qi = 0;
    for (std::size_t k = 0; k < G; ++k) {
      qr += quantize(re[k]);
      qi += quantize(im[k]);
      const double r = re[k] * cre[k] - im[k] * cim[k];
      im[k] = re[k] * cim[k] + im[k] * cre[k];
      re[k] = r;
    }
    wre[s] += qr;
    wim[s] += qi;
  }
}

/// Adds every tone of `offsets_hz` (tone i with phases[i]) into the lanes,
/// kToneGroup at a time, then the remaining tones one at a time.
void accumulate_tones(std::int64_t* wre, std::int64_t* wim, std::size_t steps,
                      double dt, std::span<const double> offsets_hz,
                      const double* phases) {
  const std::size_t n = offsets_hz.size();
  std::size_t i = 0;
  for (; i + kToneGroup <= n; i += kToneGroup) {
    accumulate_group<kToneGroup>(wre, wim, steps, dt, &offsets_hz[i],
                                 &phases[i]);
  }
  for (; i < n; ++i) {
    accumulate_group<1>(wre, wim, steps, dt, &offsets_hz[i], &phases[i]);
  }
}

/// Throws std::out_of_range unless `tone` indexes the offset set (checked
/// before any pool work: a pool worker cannot throw).
void check_tone(std::size_t tone, std::size_t n) {
  if (tone >= n) {
    throw std::out_of_range("DeltaEnvelopeState: tone " +
                            std::to_string(tone) + " out of range for " +
                            std::to_string(n) + " tones");
  }
}

/// Scans one trial's envelope from the fixed-point lanes, with up to two
/// move adjustments applied on the fly, and returns the parabolic-refined
/// peak amplitude (same refinement as peak_envelope in cib/objective.cpp).
/// When `wre`/`wim` are non-null the adjusted sums are written back
/// (aliasing sre/sim is fine: each sample is read before it is written).
double trial_peak(const std::int64_t* sre, const std::int64_t* sim,
                  std::int64_t* wre, std::int64_t* wim, std::size_t steps,
                  double dt, MoveAdj* adj, std::size_t n_adj) {
  for (std::size_t a = 0; a < n_adj; ++a) {
    const double w = kTwoPi * adj[a].offset_hz * dt;
    adj[a].cre = std::cos(w);
    adj[a].cim = std::sin(w);
    adj[a].re = std::cos(adj[a].phase);
    adj[a].im = std::sin(adj[a].phase);
  }
  double best_sq = -1.0;
  std::size_t best = 0;
  double prev_sq = 0.0;
  double y0 = 0.0;  // squared envelope one sample before the peak
  double y2 = 0.0;  // ... and one sample after
  bool capture_next = false;
  for (std::size_t s = 0; s < steps; ++s) {
    std::int64_t qr = sre[s];
    std::int64_t qi = sim[s];
    for (std::size_t a = 0; a < n_adj; ++a) {
      if (s != 0 && s % kRenormInterval == 0) {
        const double ph = adj[a].phase +
                          kTwoPi * adj[a].offset_hz * dt *
                              static_cast<double>(s);
        adj[a].re = std::cos(ph);
        adj[a].im = std::sin(ph);
      }
      qr += adj[a].sign * quantize(adj[a].re);
      qi += adj[a].sign * quantize(adj[a].im);
      const double r = adj[a].re * adj[a].cre - adj[a].im * adj[a].cim;
      adj[a].im = adj[a].re * adj[a].cim + adj[a].im * adj[a].cre;
      adj[a].re = r;
    }
    if (wre != nullptr) {
      wre[s] = qr;
      wim[s] = qi;
    }
    const double x = static_cast<double>(qr) * kInvQuantScale;
    const double y = static_cast<double>(qi) * kInvQuantScale;
    const double sq = x * x + y * y;
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
  }
  if (best == 0 || best + 1 >= steps) return std::sqrt(best_sq);
  const double y1 = best_sq;
  const double denom = y0 - 2.0 * y1 + y2;
  if (std::abs(denom) < 1e-12) return std::sqrt(y1);
  const double delta = 0.5 * (y0 - y2) / denom;
  const double peak_sq = y1 - 0.25 * (y0 - y2) * delta;
  return std::sqrt(std::max(peak_sq, y1));
}

/// Sequential trial-order mean: bitwise identical across pool sizes.
double trial_mean(std::span<const double> peaks) {
  double total = 0.0;
  for (double p : peaks) total += p;
  return total / static_cast<double>(std::max<std::size_t>(1, peaks.size()));
}

}  // namespace

std::size_t DeltaEnvelopeState::planner_steps(double max_offset_hz,
                                              double t_max_s) {
  const double steps =
      16.0 * std::max(1.0, std::abs(max_offset_hz)) * t_max_s;
  if (!std::isfinite(steps)) return kMaxPlannerSteps;
  return static_cast<std::size_t>(
      std::clamp(steps, 256.0, static_cast<double>(kMaxPlannerSteps)));
}

DeltaEnvelopeState::DeltaEnvelopeState(std::span<const double> offsets_hz,
                                       const DeltaEvalConfig& config)
    : config_(config), offsets_(offsets_hz.begin(), offsets_hz.end()) {
  assert(!offsets_.empty());
  config_.mc_trials = std::max<std::size_t>(1, config_.mc_trials);
  double max_offset = 0.0;
  for (double f : offsets_) max_offset = std::max(max_offset, std::abs(f));
  steps_ = config_.steps != 0 ? config_.steps
                              : planner_steps(max_offset, config_.t_max_s);
  dt_ = config_.t_max_s / static_cast<double>(steps_);

  const std::size_t n = offsets_.size();
  const std::size_t trials = config_.mc_trials;
  phases_.resize(trials * n);
  sum_re_.assign(trials * steps_, 0);
  sum_im_.assign(trials * steps_, 0);
  peaks_.resize(trials);

  // Phase draws mirror peak_amplitude_samples: one stream base from a
  // score_seed Rng, one counter-derived sub-stream per trial, tone i pairs
  // with the trial's i-th draw.
  Rng seed_rng(config_.score_seed);
  const std::uint64_t base = seed_rng();
  obs::count("planner.evals");
  parallel_for(trials, [&](std::size_t t) {
    Rng trial_rng = Rng::stream(base, t);
    double* phases = phases_.data() + t * n;
    for (std::size_t i = 0; i < n; ++i) phases[i] = trial_rng.phase();
    std::int64_t* wre = sum_re_.data() + t * steps_;
    std::int64_t* wim = sum_im_.data() + t * steps_;
    accumulate_tones(wre, wim, steps_, dt_, offsets_, phases);
    peaks_[t] = trial_peak(wre, wim, nullptr, nullptr, steps_, dt_, nullptr,
                           0);
  });
  score_ = trial_mean(peaks_);
}

double DeltaEnvelopeState::score_move(std::size_t tone,
                                      double new_offset_hz) const {
  check_tone(tone, offsets_.size());
  const std::size_t n = offsets_.size();
  const double old_offset = offsets_[tone];
  obs::count("planner.evals");
  std::vector<double> peaks(config_.mc_trials);
  parallel_for(config_.mc_trials, [&](std::size_t t) {
    MoveAdj adj[2];
    adj[0] = {old_offset, phases_[t * n + tone], -1};
    adj[1] = {new_offset_hz, phases_[t * n + tone], +1};
    peaks[t] = trial_peak(sum_re_.data() + t * steps_,
                          sum_im_.data() + t * steps_, nullptr, nullptr,
                          steps_, dt_, adj, 2);
  });
  return trial_mean(peaks);
}

void DeltaEnvelopeState::commit_move(std::size_t tone, double new_offset_hz) {
  check_tone(tone, offsets_.size());
  const std::size_t n = offsets_.size();
  const double old_offset = offsets_[tone];
  parallel_for(config_.mc_trials, [&](std::size_t t) {
    MoveAdj adj[2];
    adj[0] = {old_offset, phases_[t * n + tone], -1};
    adj[1] = {new_offset_hz, phases_[t * n + tone], +1};
    std::int64_t* wre = sum_re_.data() + t * steps_;
    std::int64_t* wim = sum_im_.data() + t * steps_;
    peaks_[t] = trial_peak(wre, wim, wre, wim, steps_, dt_, adj, 2);
  });
  offsets_[tone] = new_offset_hz;
  score_ = trial_mean(peaks_);
}

double DeltaEnvelopeState::full_score(
    std::span<const double> offsets_hz) const {
  if (offsets_hz.size() != offsets_.size()) {
    throw std::invalid_argument(
        "DeltaEnvelopeState::full_score: " +
        std::to_string(offsets_hz.size()) + " offsets for a state of " +
        std::to_string(offsets_.size()) + " tones");
  }
  const std::size_t n = offsets_hz.size();
  obs::count("planner.evals");
  std::vector<double> peaks(config_.mc_trials);
  parallel_for(config_.mc_trials, [&](std::size_t t) {
    std::vector<std::int64_t> wre(steps_, 0);
    std::vector<std::int64_t> wim(steps_, 0);
    accumulate_tones(wre.data(), wim.data(), steps_, dt_, offsets_hz,
                     phases_.data() + t * n);
    peaks[t] = trial_peak(wre.data(), wim.data(), nullptr, nullptr, steps_,
                          dt_, nullptr, 0);
  });
  return trial_mean(peaks);
}

}  // namespace ivnet
