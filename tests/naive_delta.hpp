// Reference implementation of the delta evaluator's kernels — a TEST-ONLY
// oracle for the 8-trial block kernels in cib/delta_impl.hpp.
//
// These are the per-trial scalar kernels the block kernels replaced: one
// trial's lanes at a time, built a few tones per pass (accumulate_group),
// and one scan per trial that applies up to two move adjustments on the fly
// and keeps the running peak (trial_peak). DeltaOracle wraps them into the
// evaluator's state, one trial per lane array, with the same phase draws,
// grid and trial-order mean. tests/freq_planner_test.cpp pins every
// DeltaEnvelopeState score memcmp-equal to this oracle at every
// instruction-set level.
//
// Do NOT call these from production code.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "ivnet/cib/delta_objective.hpp"
#include "ivnet/common/rng.hpp"
#include "ivnet/common/units.hpp"

namespace ivnet::naive {

/// Re-anchor cadence, fixed-point scale and tones per build pass, as in
/// cib/delta_impl.hpp.
inline constexpr std::size_t kDeltaRenormInterval = 4096;
inline constexpr double kDeltaQuantScale = 1099511627776.0;  // 2^40
inline constexpr double kDeltaInvQuantScale = 1.0 / kDeltaQuantScale;
inline constexpr std::size_t kDeltaToneGroup = 4;

inline std::int64_t delta_quantize(double v) {
  return std::llround(v * kDeltaQuantScale);
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
/// quantized, into one trial's lanes in one pass. Every tone keeps its own
/// rotation op sequence (the one trial_peak runs).
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
    if (s != 0 && s % kDeltaRenormInterval == 0) {
      for (std::size_t k = 0; k < G; ++k) {
        const double ph = phases[k] + w[k] * static_cast<double>(s);
        re[k] = std::cos(ph);
        im[k] = std::sin(ph);
      }
    }
    std::int64_t qr = 0;
    std::int64_t qi = 0;
    for (std::size_t k = 0; k < G; ++k) {
      qr += delta_quantize(re[k]);
      qi += delta_quantize(im[k]);
      const double r = re[k] * cre[k] - im[k] * cim[k];
      im[k] = re[k] * cim[k] + im[k] * cre[k];
      re[k] = r;
    }
    wre[s] += qr;
    wim[s] += qi;
  }
}

/// Adds every tone of `offsets_hz` (tone i with phases[i]) into one trial's
/// lanes, kDeltaToneGroup at a time, then the remaining tones one at a time.
inline void accumulate_tones(std::int64_t* wre, std::int64_t* wim,
                             std::size_t steps, double dt,
                             std::span<const double> offsets_hz,
                             const double* phases) {
  const std::size_t n = offsets_hz.size();
  std::size_t i = 0;
  for (; i + kDeltaToneGroup <= n; i += kDeltaToneGroup) {
    accumulate_group<kDeltaToneGroup>(wre, wim, steps, dt, &offsets_hz[i],
                                      &phases[i]);
  }
  for (; i < n; ++i) {
    accumulate_group<1>(wre, wim, steps, dt, &offsets_hz[i], &phases[i]);
  }
}

/// Scans one trial's envelope from its lanes, with up to two move
/// adjustments applied on the fly, and returns the parabolic-refined peak
/// amplitude (same refinement as peak_envelope in cib/objective.cpp). When
/// `wre`/`wim` are non-null the adjusted sums are written back (aliasing
/// sre/sim is fine: each sample is read before it is written).
inline double trial_peak(const std::int64_t* sre, const std::int64_t* sim,
                         std::int64_t* wre, std::int64_t* wim,
                         std::size_t steps, double dt, MoveAdj* adj,
                         std::size_t n_adj) {
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
      if (s != 0 && s % kDeltaRenormInterval == 0) {
        const double ph = adj[a].phase +
                          kTwoPi * adj[a].offset_hz * dt *
                              static_cast<double>(s);
        adj[a].re = std::cos(ph);
        adj[a].im = std::sin(ph);
      }
      qr += adj[a].sign * delta_quantize(adj[a].re);
      qi += adj[a].sign * delta_quantize(adj[a].im);
      const double r = adj[a].re * adj[a].cre - adj[a].im * adj[a].cim;
      adj[a].im = adj[a].re * adj[a].cim + adj[a].im * adj[a].cre;
      adj[a].re = r;
    }
    if (wre != nullptr) {
      wre[s] = qr;
      wim[s] = qi;
    }
    const double x = static_cast<double>(qr) * kDeltaInvQuantScale;
    const double y = static_cast<double>(qi) * kDeltaInvQuantScale;
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

/// The evaluator's phase draws: phases[t * n + i] is tone i of trial t, the
/// i-th phase() of Rng::stream(base, t), base the first draw of a
/// score_seed Rng.
inline std::vector<double> delta_phases(std::uint64_t score_seed,
                                        std::size_t trials, std::size_t n) {
  Rng seed_rng(score_seed);
  const std::uint64_t base = seed_rng();
  std::vector<double> phases(trials * n);
  for (std::size_t t = 0; t < trials; ++t) {
    Rng trial_rng = Rng::stream(base, t);
    for (std::size_t i = 0; i < n; ++i) phases[t * n + i] = trial_rng.phase();
  }
  return phases;
}

/// DeltaEnvelopeState one trial at a time: trials x steps lanes, the same
/// grid, phases and trial-order mean, driven by the kernels above.
class DeltaOracle {
 public:
  DeltaOracle(std::span<const double> offsets_hz, DeltaEvalConfig config)
      : config_(config), offsets_(offsets_hz.begin(), offsets_hz.end()) {
    config_.mc_trials = std::max<std::size_t>(1, config_.mc_trials);
    double max_offset = 0.0;
    for (double f : offsets_) max_offset = std::max(max_offset, std::abs(f));
    steps_ = config_.steps != 0 ? config_.steps
                                : DeltaEnvelopeState::planner_steps(
                                      max_offset, config_.t_max_s);
    dt_ = config_.t_max_s / static_cast<double>(steps_);
    const std::size_t trials = config_.mc_trials;
    phases_ = delta_phases(config_.score_seed, trials, offsets_.size());
    sum_re_.assign(trials * steps_, 0);
    sum_im_.assign(trials * steps_, 0);
    peaks_.resize(trials);
    for (std::size_t t = 0; t < trials; ++t) {
      std::int64_t* wre = sum_re_.data() + t * steps_;
      std::int64_t* wim = sum_im_.data() + t * steps_;
      accumulate_tones(wre, wim, steps_, dt_, offsets_, trial_phases(t));
      peaks_[t] = trial_peak(wre, wim, nullptr, nullptr, steps_, dt_,
                             nullptr, 0);
    }
  }

  double score() const { return mean(peaks_); }

  double score_move(std::size_t tone, double new_offset_hz) const {
    std::vector<double> peaks(config_.mc_trials);
    for (std::size_t t = 0; t < peaks.size(); ++t) {
      MoveAdj adj[2] = {{offsets_[tone], trial_phases(t)[tone], -1},
                        {new_offset_hz, trial_phases(t)[tone], +1}};
      peaks[t] = trial_peak(sum_re_.data() + t * steps_,
                            sum_im_.data() + t * steps_, nullptr, nullptr,
                            steps_, dt_, adj, 2);
    }
    return mean(peaks);
  }

  void commit_move(std::size_t tone, double new_offset_hz) {
    for (std::size_t t = 0; t < peaks_.size(); ++t) {
      MoveAdj adj[2] = {{offsets_[tone], trial_phases(t)[tone], -1},
                        {new_offset_hz, trial_phases(t)[tone], +1}};
      std::int64_t* wre = sum_re_.data() + t * steps_;
      std::int64_t* wim = sum_im_.data() + t * steps_;
      peaks_[t] = trial_peak(wre, wim, wre, wim, steps_, dt_, adj, 2);
    }
    offsets_[tone] = new_offset_hz;
  }

  /// Largest |lane sum| over every trial and step: how far the fixed-point
  /// sums reach.
  std::int64_t max_abs_sum() const {
    std::int64_t most = 0;
    for (const auto* lanes : {&sum_re_, &sum_im_}) {
      for (const std::int64_t v : *lanes) most = std::max(most, v < 0 ? -v : v);
    }
    return most;
  }

 private:
  const double* trial_phases(std::size_t t) const {
    return phases_.data() + t * offsets_.size();
  }

  static double mean(const std::vector<double>& peaks) {
    double total = 0.0;
    for (double p : peaks) total += p;
    return total / static_cast<double>(peaks.size());
  }

  DeltaEvalConfig config_;
  std::vector<double> offsets_;
  std::size_t steps_ = 0;
  double dt_ = 0.0;
  std::vector<double> phases_;
  std::vector<std::int64_t> sum_re_;
  std::vector<std::int64_t> sum_im_;
  std::vector<double> peaks_;
};

}  // namespace ivnet::naive
