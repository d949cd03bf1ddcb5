#include "ivnet/cib/optimizer.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <set>
#include <stdexcept>
#include <utility>

#include "ivnet/cib/delta_objective.hpp"
#include "ivnet/cib/objective.hpp"
#include "ivnet/common/parallel.hpp"
#include "ivnet/obs/obs.hpp"

namespace {

/// Smallest achievable RMS for n distinct non-negative integer offsets:
/// that of {0, 1, ..., n-1}, rms^2 = (n-1)(2n-1)/6.
double min_feasible_rms(std::size_t n) {
  const double nd = static_cast<double>(n);
  return std::sqrt(std::max(0.0, (nd - 1.0) * (2.0 * nd - 1.0) / 6.0));
}

}  // namespace

namespace ivnet {

FrequencyOptimizer::FrequencyOptimizer(OptimizerConfig config)
    : config_(config) {
  assert(config_.num_antennas >= 1);
  objective_ = [trials = config_.mc_trials, t_max = config_.t_max_s](
                   std::span<const double> offsets, Rng& rng) {
    return expected_peak_amplitude(offsets, trials, rng, t_max);
  };
}

void FrequencyOptimizer::set_objective(OffsetObjective objective) {
  objective_ = std::move(objective);
}

bool FrequencyOptimizer::feasible(std::span<const double> offsets_hz) const {
  if (offsets_hz.empty() || offsets_hz.front() != 0.0) return false;
  std::set<long long> seen;
  double sum_sq = 0.0;
  for (double f : offsets_hz) {
    if (f < 0.0 || std::abs(f - std::round(f)) > 1e-9) return false;
    if (!seen.insert(std::llround(f)).second) return false;
    sum_sq += f * f;
  }
  const double rms = std::sqrt(sum_sq / static_cast<double>(offsets_hz.size()));
  return rms <= config_.constraint.rms_limit_hz();
}

void FrequencyOptimizer::ensure_constraint_feasible() const {
  const double limit = config_.constraint.rms_limit_hz();
  const double min_rms = min_feasible_rms(config_.num_antennas);
  if (min_rms <= limit) return;
  char message[256];
  std::snprintf(message, sizeof(message),
                "frequency optimizer: no feasible offset set: %zu distinct "
                "integer offsets need RMS >= %.3f Hz, but the Eq. 9 flatness "
                "constraint (alpha=%.3g, query_duration_s=%.3g) caps RMS at "
                "%.3f Hz",
                config_.num_antennas, min_rms, config_.constraint.alpha,
                config_.constraint.query_duration_s, limit);
  throw std::invalid_argument(message);
}

std::vector<double> FrequencyOptimizer::random_feasible(Rng& rng) const {
  // Draw offsets uniformly below the RMS bound; since individual offsets at
  // the bound keep the set feasible on average, retry until feasible. The
  // attempt budget is bounded: when rejection sampling fails, fall back to
  // a deterministic arithmetic ramp, and when even the tightest set
  // {0, 1, ..., n-1} cannot satisfy the bound, throw instead of silently
  // returning an infeasible start.
  ensure_constraint_feasible();
  const double limit = config_.constraint.rms_limit_hz();
  std::vector<double> offsets(config_.num_antennas);
  if (offsets.size() == 1) return offsets;  // {0} is always feasible here
  if (static_cast<std::int64_t>(limit) >= 1) {
    for (int attempt = 0; attempt < 200; ++attempt) {
      offsets[0] = 0.0;
      for (std::size_t i = 1; i < offsets.size(); ++i) {
        offsets[i] = static_cast<double>(
            rng.uniform_int(1, static_cast<std::int64_t>(limit)));
      }
      std::sort(offsets.begin(), offsets.end());
      if (feasible(offsets)) return offsets;
    }
  }
  // Fallback: a sparse arithmetic ramp well inside the bound.
  for (std::size_t i = 0; i < offsets.size(); ++i) {
    offsets[i] = static_cast<double>(i) *
                 std::max(1.0, std::floor(limit / 2.0 /
                                          static_cast<double>(offsets.size())));
  }
  if (feasible(offsets)) return offsets;
  // Tightest distinct set; feasible by the ensure_constraint_feasible check.
  for (std::size_t i = 0; i < offsets.size(); ++i) {
    offsets[i] = static_cast<double>(i);
  }
  return offsets;
}

double FrequencyOptimizer::score(std::span<const double> offsets_hz) const {
  Rng scoring_rng(config_.score_seed);
  return objective_(offsets_hz, scoring_rng);
}

FrequencyOptimizer::RestartOutcome FrequencyOptimizer::run_restart(
    Rng& rng) const {
  const double limit = config_.constraint.rms_limit_hz();
  obs::count("cib.opt.restarts");
  RestartOutcome out;
  out.offsets_hz = random_feasible(rng);
  out.score = score(out.offsets_hz);
  out.evaluations = 1;
  obs::count("cib.opt.evaluations");

  for (std::size_t iter = 0; iter < config_.iterations; ++iter) {
    // Propose: move one offset by a random step (never the anchored 0th).
    if (out.offsets_hz.size() < 2) break;
    std::vector<double> candidate = out.offsets_hz;
    const auto idx = static_cast<std::size_t>(rng.uniform_int(
        1, static_cast<std::int64_t>(candidate.size()) - 1));
    const double magnitude = static_cast<double>(rng.uniform_int(1, 16));
    const double direction = rng.uniform() < 0.5 ? -1.0 : 1.0;
    candidate[idx] =
        std::clamp(candidate[idx] + direction * magnitude, 1.0,
                   std::floor(limit * std::sqrt(
                                  static_cast<double>(candidate.size()))));
    std::sort(candidate.begin(), candidate.end());
    if (!feasible(candidate)) {
      obs::count("cib.opt.rejected_infeasible");
      continue;
    }
    const double cand_score = score(candidate);
    ++out.evaluations;
    obs::count("cib.opt.evaluations");
    if (cand_score > out.score) {
      out.offsets_hz = std::move(candidate);
      out.score = cand_score;
      obs::count("cib.opt.accepted");
    } else {
      obs::count("cib.opt.rejected_score");
    }
  }
  return out;
}

OptimizerResult FrequencyOptimizer::finish(
    std::vector<RestartOutcome> outcomes) const {
  // Winner picked in restart order: deterministic whatever ran where.
  // Restart 0 is the incumbent, so an objective no restart lifts above 0
  // (a threshold the array cannot reach) still returns a feasible plan.
  OptimizerResult best;
  for (std::size_t r = 0; r < outcomes.size(); ++r) {
    best.evaluations += outcomes[r].evaluations;
    if (r == 0 || outcomes[r].score > best.score) {
      best.score = outcomes[r].score;
      best.offsets_hz = outcomes[r].offsets_hz;
    }
  }
  double sum_sq = 0.0;
  for (double f : best.offsets_hz) sum_sq += f * f;
  best.rms_hz = best.offsets_hz.empty()
                    ? 0.0
                    : std::sqrt(sum_sq /
                                static_cast<double>(best.offsets_hz.size()));
  obs::gauge_set("cib.opt.best_score", best.score);
  return best;
}

OptimizerResult FrequencyOptimizer::optimize(Rng& rng) {
  obs::count("cib.optimize.calls");
  ensure_constraint_feasible();
  // Each restart hill-climbs from its own counter-derived proposal stream,
  // so restarts are independent and can run concurrently; the winner is
  // picked in restart order. `rng` is consumed exactly once (the stream
  // base), making the result bitwise identical for any thread count.
  const std::uint64_t base = rng();
  std::vector<RestartOutcome> outcomes(config_.restarts);
  const bool restarts_wide = config_.restarts >= parallel_thread_count();
  if (restarts_wide) {
    // Enough restarts to fill the pool: parallelize at the restart level
    // (the nested scoring loops then run inline on each worker).
    parallel_for(config_.restarts, [&](std::size_t r) {
      Rng restart_rng = Rng::stream(base, r);
      outcomes[r] = run_restart(restart_rng);
    });
  } else {
    // Few restarts: run them sequentially and let the Monte-Carlo scoring
    // inside score() use the pool instead. Same streams, same result.
    for (std::size_t r = 0; r < config_.restarts; ++r) {
      Rng restart_rng = Rng::stream(base, r);
      outcomes[r] = run_restart(restart_rng);
    }
  }
  return finish(std::move(outcomes));
}

FrequencyOptimizer::RestartOutcome FrequencyOptimizer::run_annealed_restart(
    const AnnealConfig& anneal, Rng& rng) const {
  obs::count("cib.opt.restarts");
  const double limit = config_.constraint.rms_limit_hz();
  const std::size_t n = config_.num_antennas;
  // Single-offset cap (mirrors the hill-climb clamp). It also fixes the
  // evaluation grid for the whole restart: the delta state's partial sums
  // are only valid on one grid, so it is sized from the cap — the largest
  // offset any move can reach — not from the current set's maximum.
  const double cap =
      std::max(std::floor(limit * std::sqrt(static_cast<double>(n))),
               static_cast<double>(n));

  RestartOutcome out;
  out.offsets_hz = random_feasible(rng);

  DeltaEvalConfig eval;
  eval.mc_trials = config_.mc_trials;
  eval.t_max_s = config_.t_max_s;
  eval.score_seed = config_.score_seed;
  eval.steps = DeltaEnvelopeState::planner_steps(cap, config_.t_max_s);
  DeltaEnvelopeState state(out.offsets_hz, eval);
  out.score = state.score();
  out.evaluations = 1;
  if (n < 2 || anneal.moves == 0) return out;

  // Incrementally maintained feasibility state: the integer offsets in use
  // and the exact sum of squares (offsets are small integers, so the
  // squares and their sums are exact doubles).
  std::set<long long> used;
  double sum_sq = 0.0;
  for (double f : out.offsets_hz) {
    used.insert(std::llround(f));
    sum_sq += f * f;
  }
  const double max_sum_sq = limit * limit * static_cast<double>(n);

  double cur = out.score;
  std::vector<double> best = out.offsets_hz;
  double best_score = cur;
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  const double t_ratio = anneal.t_final / anneal.t_initial;
  for (std::size_t m = 0; m < anneal.moves; ++m) {
    const double frac =
        anneal.moves > 1
            ? static_cast<double>(m) / static_cast<double>(anneal.moves - 1)
            : 1.0;
    const double temp = anneal.t_initial * std::pow(t_ratio, frac);
    // Move size rides the schedule: lattice-spanning jumps while hot,
    // single-Hz refinement when cold.
    const auto step_max = std::max<std::int64_t>(
        1, std::llround(static_cast<double>(anneal.max_step_hz) * temp /
                        anneal.t_initial));
    const auto tone = static_cast<std::size_t>(
        rng.uniform_int(1, static_cast<std::int64_t>(n) - 1));
    const double magnitude =
        static_cast<double>(rng.uniform_int(1, step_max));
    const double direction = rng.uniform() < 0.5 ? -1.0 : 1.0;
    const double old_offset = state.offsets_hz()[tone];
    const double proposed =
        std::clamp(old_offset + direction * magnitude, 1.0, cap);
    const double cand_sum_sq =
        sum_sq - old_offset * old_offset + proposed * proposed;
    if (proposed == old_offset || used.count(std::llround(proposed)) > 0 ||
        cand_sum_sq > max_sum_sq) {
      ++rejected;  // infeasible: no evaluation spent
      continue;
    }
    const double cand = state.score_move(tone, proposed);
    ++out.evaluations;
    bool accept = cand > cur;
    if (!accept) {
      // Metropolis on the relative score change. The acceptance draw only
      // happens for downhill moves; determinism holds either way because
      // the restart's rng is strictly sequential.
      const double rel = (cand - cur) / std::max(std::abs(cur), 1e-12);
      accept = rng.uniform() < std::exp(rel / temp);
    }
    if (accept) {
      state.commit_move(tone, proposed);
      used.erase(std::llround(old_offset));
      used.insert(std::llround(proposed));
      sum_sq = cand_sum_sq;
      cur = cand;
      ++accepted;
      if (cur > best_score) {
        best_score = cur;
        best.assign(state.offsets_hz().begin(), state.offsets_hz().end());
      }
    } else {
      ++rejected;
    }
  }
  // Hooks stay outside the move loop: one batched count per restart.
  obs::count("planner.moves.accepted", accepted);
  obs::count("planner.moves.rejected", rejected);
  out.offsets_hz = std::move(best);
  std::sort(out.offsets_hz.begin(), out.offsets_hz.end());
  out.score = best_score;
  return out;
}

OptimizerResult FrequencyOptimizer::optimize_annealed(
    const AnnealConfig& anneal, Rng& rng) {
  obs::count("cib.optimize.calls");
  // Infeasibility surfaces here, before the fan-out, so the pool workers
  // never throw.
  ensure_constraint_feasible();
  const std::size_t restarts = std::max<std::size_t>(1, config_.restarts);
  const std::uint64_t base = rng();
  std::vector<RestartOutcome> outcomes(restarts);
  if (restarts >= parallel_thread_count()) {
    parallel_for(restarts, [&](std::size_t r) {
      Rng restart_rng = Rng::stream(base, r);
      outcomes[r] = run_annealed_restart(anneal, restart_rng);
    });
  } else {
    // Few restarts: run them sequentially and let the per-trial scoring
    // loops inside the delta state use the pool. Same streams, same result.
    for (std::size_t r = 0; r < restarts; ++r) {
      Rng restart_rng = Rng::stream(base, r);
      outcomes[r] = run_annealed_restart(anneal, restart_rng);
    }
  }
  return finish(std::move(outcomes));
}

}  // namespace ivnet
