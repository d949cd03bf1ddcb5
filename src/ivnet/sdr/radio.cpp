#include "ivnet/sdr/radio.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>

#include "ivnet/common/units.hpp"
#include "ivnet/signal/phasor.hpp"

namespace ivnet {

RadioArray::RadioArray(std::size_t num_devices, const RadioArrayConfig& config,
                       Rng& rng)
    : config_(config),
      pa_(config.pa_gain_db, config.pa_p1db_dbm),
      offsets_hz_(num_devices, 0.0) {
  device_clocks_ = config_.clocks.distribute(num_devices, rng);
  plls_.reserve(num_devices);
  for (std::size_t i = 0; i < num_devices; ++i) {
    plls_.emplace_back(config_.center_hz, rng);
  }
}

void RadioArray::tune(std::span<const double> offsets_hz) {
  if (offsets_hz.size() != plls_.size()) {
    throw std::invalid_argument(
        "RadioArray::tune: " + std::to_string(offsets_hz.size()) +
        " offsets for " + std::to_string(plls_.size()) + " devices");
  }
  offsets_hz_.assign(offsets_hz.begin(), offsets_hz.end());
}

std::vector<double> RadioArray::actual_offsets_hz() const {
  std::vector<double> actual(plls_.size());
  for (std::size_t i = 0; i < plls_.size(); ++i) {
    // Reference error shifts the full carrier; at baseband that appears as
    // an extra offset of center * ppm * 1e-6.
    actual[i] = offsets_hz_[i] +
                config_.center_hz * device_clocks_[i].ppm_error * 1e-6;
  }
  return actual;
}

std::vector<double> RadioArray::initial_phases() const {
  std::vector<double> phases(plls_.size());
  for (std::size_t i = 0; i < plls_.size(); ++i) {
    phases[i] = plls_[i].initial_phase();
  }
  return phases;
}

/// Everything a transmission plays, set up once for all devices.
struct RadioArray::Playback {
  /// Samples per device: the envelope plus the worst clock skew.
  std::size_t length = 0;
  /// PA output of every sample a device can play: the envelope's levels
  /// framed by idle (zero-drive) output, so that device i at array time n
  /// plays played[first[i] + n] whatever its PPS skew.
  std::vector<double> played;
  std::vector<std::size_t> first;
  std::vector<PhasorRotator> carriers;

  /// Calls emit(n, s) for every array time n, in order, where s is what
  /// device i emits at n: transmit()'s device-major loop, the oracle of
  /// transmit_through()'s lockstep pass.
  template <class Emit>
  void device(std::size_t i, Emit&& emit) const {
    const double* a = played.data() + first[i];
    // A local copy keeps the carrier in registers: stores through the
    // caller's cplx pointer could otherwise alias it.
    PhasorRotator rot = carriers[i];
    for (std::size_t n = 0; n < length; ++n) {
      emit(n, a[n] * rot.value());
      rot.advance();
    }
  }
};

RadioArray::Playback RadioArray::play(std::span<const double> envelope,
                                      double start_time_s) const {
  const double fs = config_.sample_rate_hz;
  Playback p;
  // Device i plays envelope[n - skew_i] at array time n; pad all waveforms
  // to a common length covering the worst clock skew.
  std::ptrdiff_t max_skew = 0;
  std::vector<std::ptrdiff_t> skews(plls_.size());
  for (std::size_t i = 0; i < plls_.size(); ++i) {
    skews[i] = static_cast<std::ptrdiff_t>(
        std::llround(device_clocks_[i].start_offset_s * fs));
    max_skew = std::max(max_skew, std::abs(skews[i]));
  }
  p.length = envelope.size() + static_cast<std::size_t>(max_skew);
  for (const std::ptrdiff_t skew : skews) {
    p.first.push_back(static_cast<std::size_t>(max_skew - skew));
  }

  // The PA runs once per run of equal levels (PIE and CW envelopes hold a
  // few long runs), not once per sample. Runs compare bit patterns, so
  // -0.0 and 0.0 keep their own outputs, exactly as a per-sample
  // output_amplitude(drive_amp * env) gives them.
  const double drive_amp = std::sqrt(dbm_to_watts(config_.drive_dbm));
  const std::size_t pad = static_cast<std::size_t>(max_skew);
  double level = 0.0;
  double out = pa_.output_amplitude(drive_amp * level);
  p.played.assign(envelope.size() + 3 * pad, out);
  for (std::size_t k = 0; k < envelope.size(); ++k) {
    if (std::bit_cast<std::uint64_t>(envelope[k]) !=
        std::bit_cast<std::uint64_t>(level)) {
      level = envelope[k];
      out = pa_.output_amplitude(drive_amp * level);
    }
    p.played[pad + k] = out;
  }

  const auto actual = actual_offsets_hz();
  p.carriers.reserve(plls_.size());
  for (std::size_t i = 0; i < plls_.size(); ++i) {
    p.carriers.emplace_back(
        plls_[i].initial_phase() + kTwoPi * actual[i] * start_time_s,
        kTwoPi * actual[i] / fs);
  }
  return p;
}

std::vector<Waveform> RadioArray::transmit(std::span<const double> envelope,
                                           double start_time_s) const {
  const Playback p = play(envelope, start_time_s);
  std::vector<Waveform> waves(plls_.size());
  for (std::size_t i = 0; i < waves.size(); ++i) {
    waves[i].sample_rate_hz = config_.sample_rate_hz;
    waves[i].samples.resize(p.length);
    p.device(i, [out = waves[i].samples.data()](std::size_t n, cplx s) {
      out[n] = s;
    });
  }
  return waves;
}

namespace {

/// Two doubles as one GCC vector (SSE2 width). +, - and * act per element
/// with the scalar IEEE semantics.
using Pair = double __attribute__((vector_size(16)));

Pair load_pair(const double* p) {
  Pair v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

void store_pair(void* p, Pair v) { std::memcpy(p, &v, sizeof v); }

/// The halves of a 2x2 transpose: {a[0], b[0]} and {a[1], b[1]}.
Pair low_lanes(Pair a, Pair b) { return Pair{a[0], b[0]}; }
Pair high_lanes(Pair a, Pair b) { return Pair{a[1], b[1]}; }

/// Samples per tile of the sample-major pass. A tile never straddles a
/// carrier re-anchor, and its partial sums stay in L1 while every device
/// pair adds into them.
constexpr std::size_t kTile = 512;
static_assert(PhasorRotator::kRenormInterval % kTile == 0 && kTile % 2 == 0);

/// Two devices in the two lanes of each vector: lane 0 is device i, lane 1
/// device i + 1, or an all-zero lane that is never added when device i is
/// the last of an odd array.
struct DeviceLanes {
  Pair vr, vi;       ///< carrier value
  Pair sr, si;       ///< carrier step
  Pair gr, gi;       ///< channel gain
  const double* a0;  ///< PA levels lane 0 plays, indexed by array time
  const double* a1;
};

/// Split re/im parts of one array time's products, in device lanes.
struct Products {
  Pair re, im;
};

/// One array time of a lane pair: returns g * (a * carrier), then advances
/// carrier *= step, each as std::complex computes it (a plain scale for
/// real * complex, (ac - bd, ad + bc) for complex * complex).
inline Products lane_step(DeviceLanes& d, Pair a) {
  const Pair xr = a * d.vr, xi = a * d.vi;
  const Products p{d.gr * xr - d.gi * xi, d.gr * xi + d.gi * xr};
  const Pair next_r = d.vr * d.sr - d.vi * d.si;
  d.vi = d.vr * d.si + d.vi * d.sr;
  d.vr = next_r;
  return p;
}

/// Array times n and n + 1 of a lane pair, added onto the sample-lane sums
/// {sum[n], sum[n + 1]}: a 2x2 transpose turns two samples of device lanes
/// into two devices of sample lanes, added lane 0 then lane 1 (kTwo).
template <bool kTwo>
inline void add_two_samples(DeviceLanes& d, std::size_t n, Pair& sum_r,
                            Pair& sum_i) {
  const Pair l0 = load_pair(d.a0 + n), l1 = load_pair(d.a1 + n);
  const Products p0 = lane_step(d, low_lanes(l0, l1));
  const Products p1 = lane_step(d, high_lanes(l0, l1));
  sum_r += low_lanes(p0.re, p1.re);
  sum_i += low_lanes(p0.im, p1.im);
  if constexpr (kTwo) {
    sum_r += high_lanes(p0.re, p1.re);
    sum_i += high_lanes(p0.im, p1.im);
  }
}

/// Array time n alone: an odd length's last sample.
template <bool kTwo>
inline void add_one_sample(DeviceLanes& d, std::size_t n, double& sum_r,
                           double& sum_i) {
  const Products p = lane_step(d, Pair{d.a0[n], d.a1[n]});
  sum_r += p.re[0];
  sum_i += p.im[0];
  if constexpr (kTwo) {
    sum_r += p.re[1];
    sum_i += p.im[1];
  }
}

/// Samples [n0, n0 + count) of one tile through one lane pair, whose second
/// lane holds a device when kTwo. The pair's carrier chain, a multiply then
/// an add per sample, bounds the loop by its latency and leaves the
/// multiply ports slack. Two pairs side by side are faster on an idle core
/// but saturate those ports, so their speed follows whatever else the host
/// runs: on a shared 2.1 GHz Xeon they took the 8-device 0.2 s charge
/// window from 2.5 to 1.8 ms in the host's quietest seconds, yet slowed up
/// to 1.8x under load against 1.4x for one pair (as for the device-major
/// loop), and spread vitals rounds per second 1.7x wider.
///
/// A sample's sum starts at +0 in the first pair (kFirst) and otherwise
/// resumes from the partial the pair before left in re/im; the last pair
/// (kLast) writes the finished samples to out[0, count).
template <bool kTwo, bool kFirst, bool kLast>
void hear_pair(DeviceLanes& lanes, std::size_t n0, std::size_t count,
               double* re, double* im, cplx* out) {
  DeviceLanes d = lanes;
  std::size_t k = 0;
  for (; k + 2 <= count; k += 2) {
    Pair sum_r = kFirst ? Pair{0.0, 0.0} : load_pair(re + k);
    Pair sum_i = kFirst ? Pair{0.0, 0.0} : load_pair(im + k);
    add_two_samples<kTwo>(d, n0 + k, sum_r, sum_i);
    if constexpr (kLast) {
      store_pair(out + k, low_lanes(sum_r, sum_i));
      store_pair(out + k + 1, high_lanes(sum_r, sum_i));
    } else {
      store_pair(re + k, sum_r);
      store_pair(im + k, sum_i);
    }
  }
  if (k < count) {
    double sum_r = kFirst ? 0.0 : re[k];
    double sum_i = kFirst ? 0.0 : im[k];
    add_one_sample<kTwo>(d, n0 + k, sum_r, sum_i);
    if constexpr (kLast) {
      out[k] = cplx{sum_r, sum_i};
    } else {
      re[k] = sum_r;
      im[k] = sum_i;
    }
  }
  lanes = d;
}

using PairFn = void (*)(DeviceLanes&, std::size_t, std::size_t, double*,
                        double*, cplx*);

template <bool kTwo>
PairFn pair_fn(bool first, bool last) {
  if (first) {
    return last ? hear_pair<kTwo, true, true> : hear_pair<kTwo, true, false>;
  }
  return last ? hear_pair<kTwo, false, true> : hear_pair<kTwo, false, false>;
}

/// The kernel for a lane pair holding two devices or one.
PairFn pair_fn(bool two, bool first, bool last) {
  return two ? pair_fn<true>(first, last) : pair_fn<false>(first, last);
}

}  // namespace

Waveform RadioArray::transmit_through(std::span<const double> envelope,
                                      double start_time_s,
                                      std::span<const cplx> gains) const {
  if (gains.size() != plls_.size()) {
    throw std::invalid_argument(
        "RadioArray::transmit_through: one gain per device required");
  }
  const Playback p = play(envelope, start_time_s);
  Waveform rx;
  rx.sample_rate_hz = config_.sample_rate_hz;
  const std::size_t devices = gains.size();
  if (devices == 0) {
    rx.samples.resize(p.length);
    return rx;
  }

  // Seed two devices per lane pair from their carriers; an odd array's
  // last pair has a zero second lane. Each pair gets its kernel.
  std::vector<DeviceLanes> lanes((devices + 1) / 2);
  std::vector<PairFn> hear(lanes.size());
  for (std::size_t b = 0; b < lanes.size(); ++b) {
    const std::size_t i = 2 * b;
    const std::size_t j = std::min(i + 1, devices - 1);
    const bool two = j != i;
    const PhasorRotator& c0 = p.carriers[i];
    const PhasorRotator& c1 = p.carriers[j];
    const auto lane1 = [two](double x) { return two ? x : 0.0; };
    lanes[b] = DeviceLanes{
        .vr = {c0.value().real(), lane1(c1.value().real())},
        .vi = {c0.value().imag(), lane1(c1.value().imag())},
        .sr = {c0.step().real(), lane1(c1.step().real())},
        .si = {c0.step().imag(), lane1(c1.step().imag())},
        .gr = {gains[i].real(), lane1(gains[j].real())},
        .gi = {gains[i].imag(), lane1(gains[j].imag())},
        .a0 = p.played.data() + p.first[i],
        .a1 = p.played.data() + p.first[j],
    };
    hear[b] = pair_fn(two, b == 0, b + 1 == lanes.size());
  }

  // Sample-major: each tile passes through every pair in device order, so
  // each sample sums devices 0..N-1 from +0 as receive() does, and the
  // finished tile is appended to rx, which is written once. play() builds
  // fresh carriers, so every carrier re-anchors at the array times that
  // are multiples of kRenormInterval, which are tile starts.
  alignas(16) double re[kTile] = {};
  alignas(16) double im[kTile] = {};
  cplx tile[kTile];
  rx.samples.reserve(p.length);
  for (std::size_t n0 = 0; n0 < p.length; n0 += kTile) {
    if (n0 > 0 && n0 % PhasorRotator::kRenormInterval == 0) {
      for (std::size_t b = 0; b < lanes.size(); ++b) {
        const std::size_t i = 2 * b;
        const cplx v0 = p.carriers[i].anchor(n0);
        lanes[b].vr[0] = v0.real();
        lanes[b].vi[0] = v0.imag();
        if (i + 1 < devices) {
          const cplx v1 = p.carriers[i + 1].anchor(n0);
          lanes[b].vr[1] = v1.real();
          lanes[b].vi[1] = v1.imag();
        }
      }
    }
    const std::size_t count = std::min(kTile, p.length - n0);
    for (std::size_t b = 0; b < lanes.size(); ++b) {
      hear[b](lanes[b], n0, count, re, im, tile);
    }
    rx.samples.insert(rx.samples.end(), tile, tile + count);
  }
  return rx;
}

void RadioArray::retune(Rng& rng) {
  for (auto& pll : plls_) pll.relock(rng);
}

}  // namespace ivnet
