#include "ivnet/impair/impairment.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "ivnet/common/units.hpp"
#include "ivnet/obs/obs.hpp"
#include "ivnet/signal/gauss.hpp"
#include "ivnet/signal/noise.hpp"

namespace ivnet {
namespace {

/// Random-walk phase of Lorentzian linewidth `linewidth_hz` over `n`
/// samples: N(0, 2*pi*linewidth/fs) increments, one raw draw each through
/// the gauss sampler, prefix-summed.
std::vector<double> phase_walk(std::size_t n, double sample_rate_hz,
                               double linewidth_hz, Rng& rng) {
  std::vector<double> phi(n, 0.0);
  signal::axpy_awgn(rng, std::sqrt(kTwoPi * linewidth_hz / sample_rate_hz),
                    phi);
  std::partial_sum(phi.begin(), phi.end(), phi.begin());
  return phi;
}

/// Noise power that puts `snr_db` of noise under a signal of mean power
/// `power`; negative when no noise should be added (infinite SNR or zero
/// power).
double awgn_power(double power, double snr_db) {
  if (!std::isfinite(snr_db) || power <= 0.0) return -1.0;
  return power * from_db(-snr_db);
}

/// Real AWGN at `snr_db` under a signal of mean power `power`. Real-envelope
/// AWGN is the Monte-Carlo hot loop: the deterministic inverse-CDF sampler
/// (signal/gauss.hpp), one raw draw per sample.
void add_real_awgn(std::vector<double>& x, double power, double snr_db,
                   Rng& rng) {
  const double noise_power = awgn_power(power, snr_db);
  if (noise_power < 0.0) return;
  signal::axpy_awgn(rng, std::sqrt(noise_power), x);
}

}  // namespace

double signal_mean_power(std::span<const double> x) {
  if (x.empty()) return 0.0;
  double sum = 0.0;
  for (double v : x) sum += v * v;
  return sum / static_cast<double>(x.size());
}

void apply_awgn(std::vector<double>& x, double snr_db, Rng& rng) {
  add_real_awgn(x, signal_mean_power(x), snr_db, rng);
}

void apply_awgn(Waveform& wave, double snr_db, Rng& rng) {
  const double noise_power = awgn_power(mean_power(wave), snr_db);
  if (noise_power < 0.0) return;
  add_awgn(wave, noise_power, rng);
}

void apply_carrier_offset(std::vector<double>& x, double sample_rate_hz,
                          double cfo_hz, double phase0_rad) {
  if (cfo_hz == 0.0 && phase0_rad == 0.0) return;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double t = static_cast<double>(i) / sample_rate_hz;
    x[i] *= std::cos(kTwoPi * cfo_hz * t + phase0_rad);
  }
}

void apply_carrier_offset(Waveform& wave, double cfo_hz, double phase0_rad) {
  if (cfo_hz == 0.0 && phase0_rad == 0.0) return;
  for (std::size_t i = 0; i < wave.size(); ++i) {
    const double t = wave.time_of(i);
    wave.samples[i] *= std::polar(1.0, kTwoPi * cfo_hz * t + phase0_rad);
  }
}

void apply_phase_noise(std::vector<double>& x, double sample_rate_hz,
                       double linewidth_hz, Rng& rng) {
  if (linewidth_hz <= 0.0) return;
  const auto phi = phase_walk(x.size(), sample_rate_hz, linewidth_hz, rng);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] *= std::cos(phi[i]);
}

void apply_phase_noise(Waveform& wave, double linewidth_hz, Rng& rng) {
  if (linewidth_hz <= 0.0) return;
  const auto phi =
      phase_walk(wave.size(), wave.sample_rate_hz, linewidth_hz, rng);
  for (std::size_t i = 0; i < wave.size(); ++i) {
    wave.samples[i] *= std::polar(1.0, phi[i]);
  }
}

std::vector<double> apply_clock_drift(std::span<const double> x,
                                      double drift_ppm) {
  if (drift_ppm == 0.0 || x.size() < 2) {
    return std::vector<double>(x.begin(), x.end());
  }
  // A clock running `drift_ppm` fast samples the waveform at instants
  // i * (1 + ppm*1e-6) of the nominal grid. The record length is set by the
  // receiver's own clock, so the output keeps the input length: a fast tag
  // clock compresses the content (the tail holds the final sample), a slow
  // one stretches it. Length preservation matters downstream — the
  // correlation decoders need the full frame span to search.
  const double step = 1.0 + drift_ppm * 1e-6;
  const double last = static_cast<double>(x.size() - 1);
  std::vector<double> out(x.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    const double pos = std::min(static_cast<double>(i) * step, last);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, x.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    out[i] = x[lo] * (1.0 - frac) + x[hi] * frac;
  }
  return out;
}

std::size_t apply_burst_erasures(std::vector<double>& x, double sample_rate_hz,
                                 const BurstErasureConfig& config, Rng& rng,
                                 std::size_t* erased) {
  if (config.rate_hz <= 0.0 || config.mean_duration_s <= 0.0 || x.empty()) {
    return 0;
  }
  const double duration_s =
      static_cast<double>(x.size()) / sample_rate_hz;
  const double gain = from_db(-config.depth_db / 2.0);  // amplitude inside
  std::size_t bursts = 0;
  double t = 0.0;
  while (true) {
    // Exponential inter-arrival, then exponential burst length.
    t += -std::log(1.0 - rng.uniform()) / config.rate_hz;
    if (t >= duration_s) break;
    const double len_s =
        -std::log(1.0 - rng.uniform()) * config.mean_duration_s;
    const auto lo = static_cast<std::size_t>(t * sample_rate_hz);
    const auto hi = std::min<std::size_t>(
        x.size(), static_cast<std::size_t>((t + len_s) * sample_rate_hz) + 1);
    for (std::size_t i = lo; i < hi; ++i) x[i] *= gain;
    if (erased != nullptr) *erased += hi - lo;
    ++bursts;
    t += len_s;
  }
  return bursts;
}

std::vector<bool> brownout_gate(std::span<const double> supply_envelope_v,
                                double sample_rate_hz,
                                const BrownoutConfig& config,
                                ImpairmentTrace* trace, BrownoutState* state) {
  std::vector<bool> gate(supply_envelope_v.size(), true);
  if (!config.enabled || supply_envelope_v.empty()) return gate;
  // The doubler rectifies an oscillating input: synthesize a scaled carrier
  // under the envelope (the quasi-static envelope alone would never pump).
  // Integrate `oversample`-fold finer than the envelope rate: the transient
  // model's explicit-Euler step is unstable at envelope-rate dt.
  const auto sub = static_cast<std::size_t>(std::max(1, config.oversample));
  const double fs_sub = sample_rate_hz * static_cast<double>(sub);
  std::vector<double> v_in(supply_envelope_v.size() * sub);
  const double w = kTwoPi * config.carrier_fraction / static_cast<double>(sub);
  for (std::size_t i = 0; i < v_in.size(); ++i) {
    v_in[i] = supply_envelope_v[i / sub] * std::cos(w * static_cast<double>(i));
  }
  const auto rail = simulate_doubler_waveform(
      config.doubler, v_in, fs_sub,
      state != nullptr ? state->doubler : DoublerState{});
  // Cold rails start off (the chip must charge before it can modulate);
  // a carried-over state resumes wherever the last record left the chip.
  bool on = state != nullptr && state->on;
  const bool started_on = on;
  std::size_t off_samples = 0;
  std::size_t trips = 0;
  std::ptrdiff_t first_on = -1;  // first off->on envelope sample from cold
  for (std::size_t i = 0; i < gate.size(); ++i) {
    // One envelope sample spans `sub` rail samples; a dip anywhere in the
    // window resets the chip, so judge the window by its minimum.
    double v = rail.v_out[i * sub];
    for (std::size_t k = 1; k < sub; ++k) {
      v = std::min(v, rail.v_out[i * sub + k]);
    }
    if (on && v < config.dropout_v) {
      on = false;
      ++trips;
    }
    if (!on && v >= config.recover_v) {
      on = true;
      ++trips;
      if (first_on < 0) first_on = static_cast<std::ptrdiff_t>(i);
    }
    gate[i] = on;
    if (!on) ++off_samples;
  }
  if (trace != nullptr) {
    trace->brownout_samples += off_samples;
    trace->browned_out = trace->browned_out || off_samples > 0;
  }
  // Comparator telemetry (simulated quantities — thread-count invariant).
  if (trips > 0) obs::count("brownout.comparator_trips", trips);
  if (off_samples > 0) obs::count("brownout.events");
  if (!started_on && first_on >= 0) {
    obs::observe("brownout.charge_time_s",
                 static_cast<double>(first_on) / sample_rate_hz);
  }
  if (state != nullptr) {
    state->doubler = rail.final_state;
    state->on = on;
  }
  return gate;
}

void apply_brownout(std::vector<double>& x, const std::vector<bool>& gate) {
  const std::size_t n = std::min(x.size(), gate.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (!gate[i]) x[i] = 0.0;
  }
}

ImpairmentChain::ImpairmentChain(ImpairmentConfig config) : config_(config) {}

std::vector<double> ImpairmentChain::apply(
    std::vector<double> x, double sample_rate_hz, Rng& rng,
    ImpairmentTrace* trace, std::optional<double> clean_power) const {
  // Any stage configured to reshape the record voids the clean power.
  const bool reshaped = config_.clock_drift_ppm != 0.0 ||
                        config_.cfo_hz != 0.0 || config_.cfo_phase_rad != 0.0 ||
                        config_.phase_noise_linewidth_hz != 0.0;
  if (config_.clock_drift_ppm != 0.0) {
    x = apply_clock_drift(x, config_.clock_drift_ppm);
  }
  if (config_.cfo_hz != 0.0 || config_.cfo_phase_rad != 0.0) {
    apply_carrier_offset(x, sample_rate_hz, config_.cfo_hz,
                         config_.cfo_phase_rad);
  }
  apply_phase_noise(x, sample_rate_hz, config_.phase_noise_linewidth_hz, rng);
  std::size_t erased = 0;
  const std::size_t bursts =
      apply_burst_erasures(x, sample_rate_hz, config_.bursts, rng, &erased);
  if (trace != nullptr) {
    trace->bursts += bursts;
    trace->erased_samples += erased;
  }
  const bool clean = clean_power.has_value() && !reshaped && bursts == 0;
  add_real_awgn(x, clean ? *clean_power : signal_mean_power(x), config_.snr_db,
                rng);
  return x;
}

Waveform ImpairmentChain::apply(const Waveform& in, Rng& rng,
                                ImpairmentTrace* trace) const {
  Waveform out;
  out.sample_rate_hz = in.sample_rate_hz;
  if (config_.clock_drift_ppm == 0.0) {
    out.samples = in.samples;
  } else {
    // Drift the real and imaginary rails on the same interpolation grid.
    std::vector<double> re(in.size()), im(in.size());
    for (std::size_t i = 0; i < in.size(); ++i) {
      re[i] = in.samples[i].real();
      im[i] = in.samples[i].imag();
    }
    const auto re_d = apply_clock_drift(re, config_.clock_drift_ppm);
    const auto im_d = apply_clock_drift(im, config_.clock_drift_ppm);
    out.samples.resize(re_d.size());
    for (std::size_t i = 0; i < re_d.size(); ++i) {
      out.samples[i] = cplx(re_d[i], im_d[i]);
    }
  }
  apply_carrier_offset(out, config_.cfo_hz, config_.cfo_phase_rad);
  apply_phase_noise(out, config_.phase_noise_linewidth_hz, rng);
  if (config_.bursts.rate_hz > 0.0 && config_.bursts.mean_duration_s > 0.0 &&
      !out.empty()) {
    // Reuse the real-path burst machinery on an all-ones mask.
    std::vector<double> mask(out.size(), 1.0);
    std::size_t erased = 0;
    const std::size_t bursts = apply_burst_erasures(
        mask, out.sample_rate_hz, config_.bursts, rng, &erased);
    for (std::size_t i = 0; i < out.size(); ++i) out.samples[i] *= mask[i];
    if (trace != nullptr) {
      trace->bursts += bursts;
      trace->erased_samples += erased;
    }
  }
  apply_awgn(out, config_.snr_db, rng);
  return out;
}

}  // namespace ivnet
