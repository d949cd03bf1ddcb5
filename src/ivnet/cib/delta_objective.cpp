// The delta evaluator's state, and the block kernels' baseline
// instruction-set level.
//
// This translation unit compiles delta_impl.hpp's block kernels with
// -O3 -ffp-contract=off and no -mavx2 on every build type
// (src/CMakeLists.txt), so it runs on any x86-64 CPU; delta_avx2.cpp and
// delta_avx512.cpp compile the same kernels with AVX2 and AVX-512F, and
// block_kernels() picks one as common/isa.hpp chooses.
#include "ivnet/cib/delta_objective.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

#include "ivnet/cib/delta_impl.hpp"
#include "ivnet/common/isa.hpp"
#include "ivnet/common/parallel.hpp"
#include "ivnet/obs/obs.hpp"

namespace ivnet {
namespace {

using detail::BlockKernels;
using detail::block_kernels;
using detail::kBlockTrials;
using detail::ToneMove;

/// Block b of a [block][row][lane] array with `rows` rows per block.
template <typename T>
T* block_of(T* data, std::size_t rows, std::size_t b) {
  return data + b * rows * kBlockTrials;
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

/// Sequential trial-order mean of the first `trials` peaks (the rest are
/// ghost lanes): bitwise identical across pool sizes.
double trial_mean(const std::vector<double>& peaks, std::size_t trials) {
  double total = 0.0;
  for (std::size_t t = 0; t < trials; ++t) total += peaks[t];
  return total / static_cast<double>(std::max<std::size_t>(1, trials));
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
  blocks_ = (trials + kBlockTrials - 1) / kBlockTrials;
  phases_.resize(blocks_ * n * kBlockTrials);
  sum_re_.reset(new std::int64_t[blocks_ * steps_ * kBlockTrials]);
  sum_im_.reset(new std::int64_t[blocks_ * steps_ * kBlockTrials]);
  peaks_.resize(blocks_ * kBlockTrials);

  // Phase draws mirror peak_amplitude_samples: one stream base from a
  // score_seed Rng, one counter-derived sub-stream per trial, tone i pairs
  // with the trial's i-th draw.
  Rng seed_rng(config_.score_seed);
  const std::uint64_t base = seed_rng();
  obs::count("planner.evals");
  const BlockKernels& k = block_kernels();
  parallel_for(blocks_, [&](std::size_t b) {
    double* phases = block_of(phases_.data(), n, b);
    detail::draw_block_phases(base, b, trials, n, phases);
    std::int64_t* re = block_of(sum_re_.get(), steps_, b);
    std::int64_t* im = block_of(sum_im_.get(), steps_, b);
    std::fill_n(re, steps_ * kBlockTrials, 0);
    std::fill_n(im, steps_ * kBlockTrials, 0);
    k.accumulate(re, im, steps_, dt_, offsets_.data(), n, phases);
    k.scan(re, im, steps_, dt_, nullptr, nullptr, nullptr,
           &peaks_[b * kBlockTrials]);
  });
  score_ = trial_mean(peaks_, trials);
}

double DeltaEnvelopeState::score_move(std::size_t tone,
                                      double new_offset_hz) const {
  const std::size_t n = offsets_.size();
  check_tone(tone, n);
  obs::count("planner.evals");
  const BlockKernels& k = block_kernels();
  std::vector<double> peaks(blocks_ * kBlockTrials);
  parallel_for(blocks_, [&](std::size_t b) {
    const ToneMove move{offsets_[tone], new_offset_hz,
                        block_of(phases_.data(), n, b) + tone * kBlockTrials};
    k.scan(block_of(sum_re_.get(), steps_, b),
           block_of(sum_im_.get(), steps_, b), steps_, dt_, &move, nullptr,
           nullptr, &peaks[b * kBlockTrials]);
  });
  return trial_mean(peaks, config_.mc_trials);
}

void DeltaEnvelopeState::commit_move(std::size_t tone, double new_offset_hz) {
  const std::size_t n = offsets_.size();
  check_tone(tone, n);
  const BlockKernels& k = block_kernels();
  parallel_for(blocks_, [&](std::size_t b) {
    const ToneMove move{offsets_[tone], new_offset_hz,
                        block_of(phases_.data(), n, b) + tone * kBlockTrials};
    std::int64_t* re = block_of(sum_re_.get(), steps_, b);
    std::int64_t* im = block_of(sum_im_.get(), steps_, b);
    k.scan(re, im, steps_, dt_, &move, re, im, &peaks_[b * kBlockTrials]);
  });
  offsets_[tone] = new_offset_hz;
  score_ = trial_mean(peaks_, config_.mc_trials);
}

double DeltaEnvelopeState::full_score(
    std::span<const double> offsets_hz) const {
  if (offsets_hz.size() != offsets_.size()) {
    throw std::invalid_argument(
        "DeltaEnvelopeState::full_score: " +
        std::to_string(offsets_hz.size()) + " offsets for a state of " +
        std::to_string(offsets_.size()) + " tones");
  }
  obs::count("planner.evals");
  const BlockKernels& k = block_kernels();
  std::vector<double> peaks(blocks_ * kBlockTrials);
  parallel_for(blocks_, [&](std::size_t b) {
    std::vector<std::int64_t> re(steps_ * kBlockTrials, 0);
    std::vector<std::int64_t> im(steps_ * kBlockTrials, 0);
    k.accumulate(re.data(), im.data(), steps_, dt_, offsets_hz.data(),
                 offsets_hz.size(),
                 block_of(phases_.data(), offsets_hz.size(), b));
    k.scan(re.data(), im.data(), steps_, dt_, nullptr, nullptr, nullptr,
           &peaks[b * kBlockTrials]);
  });
  return trial_mean(peaks, config_.mc_trials);
}

namespace detail {

const BlockKernels& block_kernels() {
  switch (isa_level()) {
    case IsaLevel::kAvx512:
      return *avx512_block_kernels();
    case IsaLevel::kAvx2Fma:
      return *avx2_block_kernels();
    case IsaLevel::kBaseline:
      break;
  }
  return kLevelKernels;
}

void draw_block_phases(std::uint64_t base, std::size_t b, std::size_t trials,
                       std::size_t n, double* phases) {
  for (std::size_t l = 0; l < kBlockTrials; ++l) {
    const std::size_t t = b * kBlockTrials + l;
    if (t >= trials) {
      for (std::size_t i = 0; i < n; ++i) phases[i * kBlockTrials + l] = 0.0;
      continue;
    }
    Rng trial_rng = Rng::stream(base, t);
    for (std::size_t i = 0; i < n; ++i) {
      phases[i * kBlockTrials + l] = trial_rng.phase();
    }
  }
}

void quantizer_llround(std::span<const double> x,
                       std::span<std::int64_t> q) {
  if (q.size() != x.size()) {
    throw std::invalid_argument("quantizer_llround: size mismatch");
  }
  const BlockKernels& k = block_kernels();
  for (std::size_t i = 0; i < x.size(); i += kBlockTrials) {
    const std::size_t m = std::min(kBlockTrials, x.size() - i);
    double in[kBlockTrials] = {};
    std::int64_t out[kBlockTrials];
    std::copy_n(x.data() + i, m, in);
    k.llround(in, out);
    std::copy_n(out, m, q.data() + i);
  }
}

}  // namespace detail
}  // namespace ivnet
