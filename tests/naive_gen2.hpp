// Reference implementations of the Gen2 record kernels — TEST-ONLY oracles
// for the one-pass record synthesis and the streaming decoders in pie.cpp,
// fm0.cpp and miller.cpp.
//
// These are the loops the fast kernels replaced: PIE built one level run
// at a time with vector inserts, FM0/Miller samples inserted one half-bit
// (chip) at a time (the two expansions were the same loop, kept once
// here), the three-pass PIE slicer that collects every falling edge and
// every interval before classifying them, and the FM0 decoder that builds
// its preamble filter per call and integrates one half-bit at a time.
// tests/gen2_test.cpp pins each fast kernel exactly equal to its oracle
// here (memcmp records, field-by-field decode results).
//
// Do NOT call these from production code.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

#include "ivnet/gen2/fm0.hpp"
#include "ivnet/gen2/miller.hpp"
#include "ivnet/gen2/pie.hpp"
#include "ivnet/signal/correlate.hpp"

namespace ivnet::naive {

inline void pie_append_level(std::vector<double>& env, double level,
                             double duration_s, double fs) {
  const auto n = static_cast<std::size_t>(std::llround(duration_s * fs));
  env.insert(env.end(), n, level);
}

/// One PIE symbol: high for (length - PW), low for PW.
inline void pie_append_symbol(std::vector<double>& env, double length_s,
                              const gen2::PieTiming& t, double fs) {
  pie_append_level(env, 1.0, length_s - t.pw_s(), fs);
  pie_append_level(env, 0.0, t.pw_s(), fs);
}

inline std::vector<double> pie_encode(const gen2::Bits& bits,
                                      const gen2::PieTiming& timing,
                                      double sample_rate_hz,
                                      bool with_preamble) {
  std::vector<double> env;
  pie_append_level(env, 1.0, 4.0 * timing.tari_s, sample_rate_hz);
  pie_append_level(env, 0.0, timing.delimiter_s, sample_rate_hz);
  pie_append_symbol(env, timing.data0_s(), timing, sample_rate_hz);
  pie_append_symbol(env, timing.rtcal_s(), timing, sample_rate_hz);
  if (with_preamble) {
    pie_append_symbol(env, timing.trcal_s(), timing, sample_rate_hz);
  }
  for (bool bit : bits) {
    pie_append_symbol(env, bit ? timing.data1_s() : timing.data0_s(), timing,
                      sample_rate_hz);
  }
  pie_append_level(env, 1.0, 4.0 * timing.tari_s, sample_rate_hz);
  return env;
}

/// +/-1.0 samples, one vector insert per level (half-bit or chip).
inline std::vector<double> levels_to_samples(const std::vector<bool>& levels,
                                             double blf_hz, double fs) {
  const double duration = 1.0 / (2.0 * blf_hz);
  const auto per_level =
      static_cast<std::size_t>(std::llround(duration * fs));
  std::vector<double> samples;
  samples.reserve(levels.size() * per_level);
  for (bool h : levels) {
    samples.insert(samples.end(), per_level, h ? 1.0 : -1.0);
  }
  return samples;
}

/// FM0 half-bit levels of `bits`: preamble, then every symbol inverts the
/// previous level at its boundary and data-0 inverts again mid-symbol, then
/// the closing dummy data-1.
inline std::vector<bool> fm0_encode_halfbits(const gen2::Bits& bits) {
  std::vector<bool> halves = gen2::fm0_preamble_halfbits();
  bool level = halves.back();
  auto encode_symbol = [&](bool bit) {
    level = !level;
    halves.push_back(level);
    if (!bit) level = !level;
    halves.push_back(level);
  };
  for (bool bit : bits) encode_symbol(bit);
  encode_symbol(true);
  return halves;
}

inline std::vector<double> fm0_modulate(const gen2::Bits& bits, double blf_hz,
                                        double sample_rate_hz) {
  return levels_to_samples(fm0_encode_halfbits(bits), blf_hz, sample_rate_hz);
}

/// The half-bit levels the production gen2::fm0_modulate emits for `bits`,
/// read one sample per half-bit (it runs two samples per half-bit at
/// fs = 4 * BLF, its minimum).
inline std::vector<bool> fm0_modulated_halfbits(const gen2::Bits& bits) {
  const auto samples = gen2::fm0_modulate(bits, 40e3, 160e3);
  std::vector<bool> halves;
  for (std::size_t i = 0; i < samples.size(); i += 2) {
    halves.push_back(samples[i] > 0.0);
  }
  return halves;
}

inline std::vector<double> miller_modulate(gen2::Miller mode,
                                           const gen2::Bits& bits,
                                           double blf_hz,
                                           double sample_rate_hz) {
  return levels_to_samples(gen2::miller_encode_chips(mode, bits), blf_hz,
                           sample_rate_hz);
}

inline gen2::Fm0DecodeResult fm0_decode(std::span<const double> signal,
                                        std::size_t num_bits, double blf_hz,
                                        double sample_rate_hz,
                                        double min_correlation = 0.8) {
  gen2::Fm0DecodeResult result;
  const auto tmpl = levels_to_samples(gen2::fm0_preamble_halfbits(), blf_hz,
                                      sample_rate_hz);
  const double half_duration = 1.0 / (2.0 * blf_hz);
  const auto spb = static_cast<std::size_t>(
      std::llround(half_duration * sample_rate_hz));
  const std::size_t total_halves =
      gen2::fm0_preamble_halfbits().size() + 2 * num_bits + 2;
  if (signal.size() < total_halves * spb) return result;

  const CorrelationNeedle cached(tmpl);
  double best = 0.0;
  std::size_t best_off = 0;
  bool inverted = false;
  const std::size_t last_start = signal.size() - total_halves * spb;
  for (std::size_t off = 0; off <= last_start; ++off) {
    const double c = cached.correlate(signal.subspan(off, tmpl.size()));
    if (std::abs(c) > std::abs(best)) {
      best = c;
      best_off = off;
      inverted = c < 0.0;
    }
  }
  result.preamble_correlation = std::abs(best);
  result.preamble_offset = best_off;
  result.inverted = inverted;
  if (result.preamble_correlation < min_correlation) return result;

  const double polarity = inverted ? -1.0 : 1.0;
  auto half_level = [&](std::size_t half_index) {
    const std::size_t start = best_off + half_index * spb;
    double sum = 0.0;
    for (std::size_t i = 0; i < spb; ++i) sum += signal[start + i];
    return polarity * sum > 0.0;
  };

  const std::size_t preamble_halves = gen2::fm0_preamble_halfbits().size();
  bool prev_last = half_level(preamble_halves - 1);
  for (std::size_t b = 0; b < num_bits; ++b) {
    const std::size_t base = preamble_halves + 2 * b;
    const bool h0 = half_level(base);
    const bool h1 = half_level(base + 1);
    result.bits.push_back(h0 == h1);
    if (h0 == prev_last) {
      result.bits.clear();
      return result;
    }
    prev_last = h1;
  }
  result.valid = true;
  return result;
}

/// The three-pass slicer: extrema, high-state fluctuation, then every
/// falling edge and every interval collected before classification.
inline gen2::PieDecodeResult pie_decode(std::span<const double> envelope,
                                        double sample_rate_hz,
                                        double max_fluctuation = 0.5) {
  gen2::PieDecodeResult result;
  if (envelope.size() < 8) return result;

  double hi0 = envelope[0], hi1 = envelope[0], hi2 = envelope[0],
         hi3 = envelope[0];
  double lo0 = envelope[0], lo1 = envelope[0], lo2 = envelope[0],
         lo3 = envelope[0];
  std::size_t i = 0;
  for (; i + 4 <= envelope.size(); i += 4) {
    hi0 = std::max(hi0, envelope[i]);
    lo0 = std::min(lo0, envelope[i]);
    hi1 = std::max(hi1, envelope[i + 1]);
    lo1 = std::min(lo1, envelope[i + 1]);
    hi2 = std::max(hi2, envelope[i + 2]);
    lo2 = std::min(lo2, envelope[i + 2]);
    hi3 = std::max(hi3, envelope[i + 3]);
    lo3 = std::min(lo3, envelope[i + 3]);
  }
  for (; i < envelope.size(); ++i) {
    hi0 = std::max(hi0, envelope[i]);
    lo0 = std::min(lo0, envelope[i]);
  }
  const double hi = std::max(std::max(hi0, hi1), std::max(hi2, hi3));
  const double lo = std::min(std::min(lo0, lo1), std::min(lo2, lo3));
  if (hi <= 0.0) return result;
  const double threshold = 0.5 * (hi + lo);

  double hm0 = hi, hm1 = hi, hm2 = hi, hm3 = hi;
  i = 0;
  for (; i + 4 <= envelope.size(); i += 4) {
    hm0 = std::min(hm0, envelope[i] >= threshold ? envelope[i] : hi);
    hm1 = std::min(hm1, envelope[i + 1] >= threshold ? envelope[i + 1] : hi);
    hm2 = std::min(hm2, envelope[i + 2] >= threshold ? envelope[i + 2] : hi);
    hm3 = std::min(hm3, envelope[i + 3] >= threshold ? envelope[i + 3] : hi);
  }
  for (; i < envelope.size(); ++i) {
    hm0 = std::min(hm0, envelope[i] >= threshold ? envelope[i] : hi);
  }
  const double high_min = std::min(std::min(hm0, hm1), std::min(hm2, hm3));
  if ((hi - high_min) / hi >= max_fluctuation) return result;

  std::vector<std::size_t> falls;
  for (std::size_t k = 1; k < envelope.size(); ++k) {
    const bool prev = envelope[k - 1] >= threshold;
    const bool curr = envelope[k] >= threshold;
    if (prev && !curr) falls.push_back(k);
  }
  if (falls.size() < 3) return result;

  std::vector<double> intervals;
  intervals.reserve(falls.size() - 1);
  for (std::size_t k = 1; k < falls.size(); ++k) {
    intervals.push_back(static_cast<double>(falls[k] - falls[k - 1]) /
                        sample_rate_hz);
  }

  const double rtcal = intervals[1];
  if (rtcal <= intervals[0]) return result;
  result.measured_rtcal_s = rtcal;
  const double pivot = rtcal / 2.0;

  std::size_t data_start = 2;
  if (intervals.size() > 2 && intervals[2] > rtcal * 1.1) {
    result.saw_preamble = true;
    result.measured_trcal_s = intervals[2];
    data_start = 3;
  }
  for (std::size_t k = data_start; k < intervals.size(); ++k) {
    result.bits.push_back(intervals[k] > pivot);
  }
  result.valid = true;
  return result;
}

}  // namespace ivnet::naive
