// FM0 (bi-phase space) baseband — the tag->reader backscatter encoding.
//
// FM0 inverts the baseband level at every symbol boundary; data-0 adds a
// mid-symbol inversion. The 6-symbol preamble expands to the 12 half-bit
// pattern 110100100011 — exactly the string the paper correlates against to
// declare in-vivo decode success (Sec. 6.2, threshold 0.8).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "ivnet/gen2/crc.hpp"

namespace ivnet::gen2 {

/// The 12 half-bit levels of the FM0 preamble ("110100100011").
const std::vector<bool>& fm0_preamble_halfbits();

/// Expand levels (FM0 half-bits, Miller chips) to runs of `per_level`
/// samples of +1.0 (true) or -1.0 (false), written in one sized pass.
std::vector<double> levels_to_samples(const std::vector<bool>& levels,
                                      std::size_t per_level);

/// FM0-encode `bits` as +/-1.0 half-bit levels (preamble, data starting
/// with a boundary inversion off the preamble's final high level, and the
/// standard closing dummy data-1) sampled at `sample_rate_hz` with a
/// backscatter link frequency `blf_hz` (half-bit duration = 1/(2*BLF)).
std::vector<double> fm0_modulate(const Bits& bits, double blf_hz,
                                 double sample_rate_hz);

/// Matched-filter template of the preamble alone (+/-1.0 samples).
std::vector<double> fm0_preamble_template(double blf_hz, double sample_rate_hz);

/// Result of demodulating an FM0 burst.
struct Fm0DecodeResult {
  bool valid = false;
  Bits bits;
  double preamble_correlation = 0.0;  ///< best |normalized correlation|
  std::size_t preamble_offset = 0;    ///< sample index where preamble starts
  bool inverted = false;              ///< polarity flip detected
};

/// Decode `num_bits` FM0 data bits from a real-valued signal: locate the
/// preamble by sliding normalized correlation (accepting either polarity),
/// declare success only above `min_correlation` (the paper uses 0.8), then
/// slice half-bits and apply the FM0 rules.
Fm0DecodeResult fm0_decode(std::span<const double> signal, std::size_t num_bits,
                           double blf_hz, double sample_rate_hz,
                           double min_correlation = 0.8);

}  // namespace ivnet::gen2
