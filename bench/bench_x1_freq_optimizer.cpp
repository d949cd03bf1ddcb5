// X1 — Sec. 3.6 frequency-selection optimization: run the constrained
// Monte-Carlo search of Eq. 10 and validate the paper's published set
// {0, 7, 20, 49, 68, 73, 90, 113, 121, 137} Hz against it. Also ablates the
// flatness constraint (Eq. 9): an unconstrained set scores slightly higher
// peaks but violates the 199 Hz RMS bound that keeps queries decodable.
//
// The large-N sweep (argv[1] -> BENCH_planner.json) then gates the delta
// evaluator at N in {10, 32, 64, 128} on score identity: the delta score
// after a committed move sequence must be memcmp-identical to the
// from-scratch full_score rebuild, and must agree with an independently
// coded double-precision direct evaluation to 1e-6 relative. A failed gate
// exits 1. The evaluator's timings are perfbench rows
// (cib.delta.score_move_us, cib.anneal.s_n128).
#include <cmath>
#include <cstdio>
#include <cstring>
#include <vector>

#include "ivnet/cib/delta_objective.hpp"
#include "ivnet/cib/frequency_plan.hpp"
#include "ivnet/cib/objective.hpp"
#include "ivnet/cib/optimizer.hpp"
#include "ivnet/common/json.hpp"
#include "ivnet/common/units.hpp"

namespace {

using namespace ivnet;

/// Independent naive comparator: the original-style direct evaluation —
/// per sample, sum cos/sin over ALL N tones in double precision, then the
/// same peak scan + parabolic refinement. Deliberately coded from the
/// definition (no incremental rotation, no fixed point) so agreement with
/// the delta evaluator cross-checks both implementations.
double naive_score(const std::vector<double>& offsets,
                   const std::vector<double>& phases, std::size_t trials,
                   std::size_t steps, double dt) {
  const std::size_t n = offsets.size();
  double total = 0.0;
  for (std::size_t t = 0; t < trials; ++t) {
    const double* ph = phases.data() + t * n;
    double best_sq = -1.0;
    std::size_t best = 0;
    double prev_sq = 0.0, y0 = 0.0, y2 = 0.0;
    bool capture_next = false;
    for (std::size_t s = 0; s < steps; ++s) {
      const double time = dt * static_cast<double>(s);
      double re = 0.0, im = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        const double a = kTwoPi * offsets[i] * time + ph[i];
        re += std::cos(a);
        im += std::sin(a);
      }
      const double sq = re * re + im * im;
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
    double peak = std::sqrt(best_sq);
    if (best != 0 && best + 1 < steps) {
      const double y1 = best_sq;
      const double denom = y0 - 2.0 * y1 + y2;
      if (std::abs(denom) >= 1e-12) {
        const double delta = 0.5 * (y0 - y2) / denom;
        peak = std::sqrt(std::max(y1 - 0.25 * (y0 - y2) * delta, y1));
      }
    }
    total += peak;
  }
  return total / static_cast<double>(trials);
}

/// The delta state's phase draws, replicated per its documented contract
/// (one stream base from score_seed, one sub-stream per trial, tone i =
/// the trial's i-th phase draw).
std::vector<double> replicate_phases(std::uint64_t score_seed,
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

bool write_file(const char* path, const std::string& text) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_x1: cannot write %s\n", path);
    return false;
  }
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  return true;
}

}  // namespace

int main(int argc, char** argv) {

  const FlatnessConstraint constraint;
  std::printf("=== X1: Eq. 10 frequency optimization (N = 10) ===\n");
  std::printf("RMS limit (Eq. 9, alpha=0.5, dt=800us): %.1f Hz "
              "(paper: 199 Hz)\n\n",
              constraint.rms_limit_hz());

  OptimizerConfig cfg;
  cfg.num_antennas = 10;
  cfg.mc_trials = 48;
  cfg.iterations = 120;
  cfg.restarts = 2;
  FrequencyOptimizer opt(cfg);
  Rng rng(1);
  const auto result = opt.optimize(rng);

  std::printf("optimized set:");
  for (double f : result.offsets_hz) std::printf(" %.0f", f);
  std::printf("\n  E[peak amplitude] = %.2f / 10, RMS %.1f Hz, "
              "%zu evaluations\n\n",
              result.score, result.rms_hz, result.evaluations);

  const auto paper = FrequencyPlan::paper_default();
  const double paper_score = opt.score(paper.offsets_hz());
  std::printf("paper's published set:");
  for (double f : paper.offsets_hz()) std::printf(" %.0f", f);
  std::printf("\n  E[peak amplitude] = %.2f / 10, RMS %.1f Hz, satisfies "
              "Eq. 9: %s\n\n",
              paper_score, paper.rms_offset_hz(),
              paper.satisfies(constraint) ? "yes" : "NO");

  std::printf("paper set / optimized set score: %.1f%%\n",
              100.0 * paper_score / result.score);

  // Ablation: drop the constraint.
  OptimizerConfig loose = cfg;
  loose.constraint.query_duration_s = 80e-6;  // 10x looser RMS bound
  loose.mc_trials = 24;
  loose.iterations = 40;
  loose.restarts = 1;
  FrequencyOptimizer opt_loose(loose);
  Rng rng2(2);
  const auto unconstrained = opt_loose.optimize(rng2);
  std::printf("\nablation - 10x looser flatness bound (RMS limit %.0f Hz):\n",
              loose.constraint.rms_limit_hz());
  std::printf("  score %.2f vs constrained %.2f (+%.1f%%), but RMS %.0f Hz "
              "breaks 800 us query decoding (Eq. 9)\n",
              unconstrained.score, result.score,
              100.0 * (unconstrained.score / result.score - 1.0),
              unconstrained.rms_hz);

  // --- Large-N sweep: delta evaluator vs full rebuild and naive pass ----
  std::printf("\n=== Large-N planner: delta score identity ===\n");
  const char* out_path = argc > 1 ? argv[1] : "BENCH_planner.json";
  constexpr std::size_t kSweepN[] = {10, 32, 64, 128};
  constexpr std::size_t kTrials = 16;
  constexpr std::uint64_t kScoreSeed = 1234;
  bool gates_ok = true;

  JsonWriter w;
  w.begin_object();
  w.field("bench", "planner");
  w.field("mc_trials", kTrials);
  w.key("rows").begin_array();
  for (const std::size_t n : kSweepN) {
    const FlatnessConstraint c;
    const double limit = c.rms_limit_hz();
    const double cap =
        std::max(std::floor(limit * std::sqrt(static_cast<double>(n))),
                 static_cast<double>(n));
    DeltaEvalConfig eval;
    eval.mc_trials = kTrials;
    eval.score_seed = kScoreSeed;
    eval.steps = DeltaEnvelopeState::planner_steps(cap, eval.t_max_s);
    const double dt = eval.t_max_s / static_cast<double>(eval.steps);

    // Deterministic spread start set within the cap.
    std::vector<double> offsets(n);
    for (std::size_t i = 0; i < n; ++i) {
      offsets[i] = std::floor(cap * static_cast<double>(i) /
                              static_cast<double>(n));
    }
    DeltaEnvelopeState state(offsets, eval);

    // Walk a deterministic committed-move sequence, then gate: the delta
    // score must be memcmp-identical to the from-scratch rebuild.
    Rng walk(99 + n);
    constexpr std::size_t kCommits = 24;
    for (std::size_t m = 0; m < kCommits; ++m) {
      const auto tone = static_cast<std::size_t>(
          walk.uniform_int(1, static_cast<std::int64_t>(n) - 1));
      const double proposed = static_cast<double>(
          walk.uniform_int(1, static_cast<std::int64_t>(cap)));
      state.commit_move(tone, proposed);
    }
    const double delta_score = state.score();
    const double full = state.full_score(state.offsets_hz());
    const bool identical =
        std::memcmp(&delta_score, &full, sizeof(double)) == 0;

    // Naive agreement at the same set/grid/phases (tolerance oracle).
    const std::vector<double> current(state.offsets_hz().begin(),
                                      state.offsets_hz().end());
    const auto phases = replicate_phases(kScoreSeed, kTrials, n);
    const double naive = naive_score(current, phases, kTrials, eval.steps, dt);
    const double rel_err =
        std::abs(delta_score - naive) / std::max(std::abs(naive), 1e-300);
    const bool agrees = rel_err <= 1e-6;
    gates_ok = gates_ok && identical && agrees;

    w.begin_object();
    w.field("n", n);
    w.field("steps", eval.steps);
    w.field("score_delta", delta_score);
    w.field("score_full", full);
    w.field("score_naive", naive);
    w.field("memcmp_identical", identical);
    w.field("naive_rel_err", rel_err);
    w.end_object();

    std::printf("N=%3zu steps=%6zu  identity %s, naive rel err %.1e\n", n,
                eval.steps, identical ? "ok" : "FAIL", rel_err);
  }
  w.end_array();
  w.field("gates_ok", gates_ok);
  w.end_object();

  if (!write_file(out_path, w.str() + "\n")) return 1;
  std::printf("wrote %s\n", out_path);
  if (!gates_ok) {
    std::fprintf(stderr,
                 "bench_x1: score-identity gate FAILED (delta vs full/naive "
                 "disagreement above)\n");
    return 1;
  }
  return 0;
}
