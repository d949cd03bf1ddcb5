// Composable link-impairment injection (Sec. 6.2's reality gap).
//
// The clean simulation paths model tissue as a fixed attenuation and the
// radios as ideal; real deep-tissue sessions fail for messier reasons:
// thermal noise at the out-of-band reader, residual carrier-frequency
// offset and oscillator phase noise after its downconversion, sample-clock
// drift between tag and reader, burst erasures from body motion, and
// harvester brownout when the rail sags mid-reply. Each impairment here is
// a standalone primitive; ImpairmentChain composes an arbitrary subset and
// can wrap any real envelope or IQ stream between the CIB transmitter, the
// tag state machine, and the oob_reader RX chain.
//
// Determinism: every stochastic primitive draws from an explicitly passed
// Rng, so an impaired run is reproducible from a seed and safe inside the
// parallel Monte-Carlo loops (per-trial Rng::stream).
#pragma once

#include <cstddef>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "ivnet/common/rng.hpp"
#include "ivnet/harvester/transient.hpp"
#include "ivnet/signal/waveform.hpp"

namespace ivnet {

/// Burst erasures: body motion / polarization fades that blank the link for
/// milliseconds at a time. Arrivals are Poisson (exponential inter-arrival),
/// durations exponential, attenuation `depth_db` inside a burst.
struct BurstErasureConfig {
  double rate_hz = 0.0;          ///< mean bursts per second (0 = off)
  double mean_duration_s = 0.0;  ///< mean burst length
  double depth_db = 40.0;        ///< attenuation inside a burst
};

/// Harvester brownout driven by the transient energy model: the supply
/// envelope feeds the Fig. 1 voltage doubler and the tag's modulator is
/// gated off whenever the simulated rail sags below `dropout_v` (with
/// hysteresis: it must recover past `recover_v` to turn back on).
struct BrownoutConfig {
  bool enabled = false;
  /// The harvester/transient energy model. Defaults differ from the bare
  /// DoublerConfig: storage-scale caps and a chip-scale load, so the rail
  /// rides out one carrier cycle but sags within ~100 us of a supply fade.
  DoublerConfig doubler{.c1_f = 10e-9, .c2_f = 10e-9, .load_ohm = 10e3};
  double dropout_v = 0.35;   ///< rail voltage below which the chip resets
  double recover_v = 0.45;   ///< rail voltage required to resume
  /// The doubler pumps on an oscillating input, so the gate synthesizes a
  /// scaled carrier cos(2*pi*f*t) under the supply envelope, with
  /// f = carrier_fraction * sample_rate (>= ~6 samples per cycle).
  double carrier_fraction = 0.125;
  /// Transient-integration substeps per envelope sample. The doubler's
  /// explicit-Euler update is only stable for steps below ~2*C*Rs, far
  /// finer than the envelope rate; the gate integrates at
  /// sample_rate * oversample and decimates the rail back down.
  int oversample = 32;
};

/// One composable set of impairments. Fields at their defaults are no-ops,
/// so `ImpairmentConfig{}` is the clean channel.
struct ImpairmentConfig {
  /// AWGN at this SNR [dB], referenced to the mean power of the clean input
  /// signal. +inf = noiseless.
  double snr_db = std::numeric_limits<double>::infinity();
  /// Residual carrier-frequency offset after the reader's downconversion.
  double cfo_hz = 0.0;
  double cfo_phase_rad = 0.0;  ///< initial CFO phase
  /// Lorentzian linewidth of the RX oscillator (random-walk phase noise).
  double phase_noise_linewidth_hz = 0.0;
  /// Sample-clock drift between tag and reader [parts per million].
  double clock_drift_ppm = 0.0;
  BurstErasureConfig bursts;
  BrownoutConfig brownout;
};

/// What the chain actually injected into one stream (for session reports).
struct ImpairmentTrace {
  std::size_t bursts = 0;
  std::size_t erased_samples = 0;
  std::size_t brownout_samples = 0;
  bool browned_out = false;
};

/// Mean power sum(x^2)/n of a real signal (0 for empty input).
double signal_mean_power(std::span<const double> x);

/// Add real AWGN at `snr_db` relative to the CURRENT mean power of `x`.
/// No-op for +inf SNR, empty, or all-zero input. Every noise primitive here
/// draws through signal/gauss: one raw Rng draw per real lane.
void apply_awgn(std::vector<double>& x, double snr_db, Rng& rng);

/// Complex AWGN at `snr_db` relative to the waveform's mean power: add_awgn
/// (signal/noise.hpp) with that noise power, 2 draws per sample.
void apply_awgn(Waveform& wave, double snr_db, Rng& rng);

/// Residual CFO on a REAL downconverted baseband: x[i] *= cos(2*pi*f*t+p0).
/// (After a real mixer, an offset carrier beats against the signal.)
void apply_carrier_offset(std::vector<double>& x, double sample_rate_hz,
                          double cfo_hz, double phase0_rad);

/// CFO on complex baseband: rotate by exp(j*(2*pi*f*t + p0)).
void apply_carrier_offset(Waveform& wave, double cfo_hz, double phase0_rad);

/// Random-walk phase noise of Lorentzian linewidth `linewidth_hz`: phase
/// increments are N(0, 2*pi*linewidth/fs) per sample, one draw each. Real
/// signals are multiplied by cos(phi), complex ones rotated by exp(j*phi).
void apply_phase_noise(std::vector<double>& x, double sample_rate_hz,
                       double linewidth_hz, Rng& rng);
void apply_phase_noise(Waveform& wave, double linewidth_hz, Rng& rng);

/// Resample `x` as seen through a receiver whose clock runs `drift_ppm`
/// fast (positive) or slow (negative), via linear interpolation. The output
/// keeps the input length (the record is timed by the receiver's clock):
/// fast clocks compress the content and hold the final sample at the tail,
/// slow clocks stretch it. Returns the input unchanged when drift_ppm == 0.
std::vector<double> apply_clock_drift(std::span<const double> x,
                                      double drift_ppm);

/// Attenuate Poisson-arriving exponential-length bursts in place. Returns
/// the number of bursts that intersected the record; `erased` (if non-null)
/// accumulates the number of attenuated samples.
std::size_t apply_burst_erasures(std::vector<double>& x, double sample_rate_hz,
                                 const BurstErasureConfig& config, Rng& rng,
                                 std::size_t* erased = nullptr);

/// Brownout carry-over between successive records of one session: the
/// doubler's capacitor charge and the hysteresis flag survive from the
/// charge window into each backscatter reply.
struct BrownoutState {
  DoublerState doubler;
  bool on = false;  ///< chip above the hysteresis threshold
};

/// Per-sample on/off gate from the transient doubler driven by
/// `supply_envelope_v`: off while the rail is below dropout, back on only
/// after it recovers past recover_v. Fills `trace` brownout fields if given.
/// `state` (if non-null) seeds the run and receives the final rail state;
/// a null state starts from a cold rail.
std::vector<bool> brownout_gate(std::span<const double> supply_envelope_v,
                                double sample_rate_hz,
                                const BrownoutConfig& config,
                                ImpairmentTrace* trace = nullptr,
                                BrownoutState* state = nullptr);

/// Zero x[i] wherever gate[i] is off (sizes may differ; the overlap is used).
void apply_brownout(std::vector<double>& x, const std::vector<bool>& gate);

/// Applies a fixed ImpairmentConfig to real or complex streams, in the
/// physical order a receiver sees them: clock drift, then CFO, then phase
/// noise, then burst erasures, then AWGN. Brownout is NOT applied here — it
/// needs the supply envelope, which is a different stream; use
/// brownout_gate/apply_brownout (the session layer does).
class ImpairmentChain {
 public:
  explicit ImpairmentChain(ImpairmentConfig config);

  const ImpairmentConfig& config() const { return config_; }

  /// Impairs a real record in place and returns it: move the record in
  /// and no stage copies it. `clean_power`, when given, must be the
  /// record's exact mean power (signal_mean_power bit for bit; PIE
  /// envelopes and +/-1 FM0/Miller records know theirs). AWGN then skips
  /// its measuring pass unless an earlier stage may have changed the
  /// record: clock drift, CFO or phase offset, phase noise, or a burst
  /// that hit it.
  std::vector<double> apply(
      std::vector<double> x, double sample_rate_hz, Rng& rng,
      ImpairmentTrace* trace = nullptr,
      std::optional<double> clean_power = std::nullopt) const;
  Waveform apply(const Waveform& in, Rng& rng,
                 ImpairmentTrace* trace = nullptr) const;

 private:
  ImpairmentConfig config_;
};

}  // namespace ivnet
