#include "ivnet/gen2/miller.hpp"

#include <cassert>
#include <cmath>

#include "ivnet/gen2/fm0.hpp"
#include "ivnet/signal/correlate.hpp"

namespace ivnet::gen2 {
namespace {

/// Append one Miller symbol (2*M chips) to `chips`, updating the baseband
/// phase `p`. `prev_bit` enables the between-two-zeros boundary inversion.
void append_symbol(std::vector<bool>& chips, bool& p, bool bit, bool prev_bit,
                   bool have_prev, std::size_t m) {
  if (have_prev && !prev_bit && !bit) p = !p;  // invert between two data-0s
  for (std::size_t j = 0; j < 2 * m; ++j) {
    if (bit && j == m) p = !p;  // data-1: mid-symbol inversion
    chips.push_back(p != ((j & 1) != 0));
  }
}

std::vector<double> chips_to_samples(const std::vector<bool>& chips,
                                     double blf_hz, double fs) {
  // Chip rate = 2 * BLF (two chips per subcarrier cycle).
  const double chip_duration = 1.0 / (2.0 * blf_hz);
  const auto spc = static_cast<std::size_t>(std::llround(chip_duration * fs));
  assert(spc >= 2 && "sample rate too low for the subcarrier");
  return levels_to_samples(chips, spc);
}

const Bits& preamble_bits() {
  // TRext = 0 Miller preamble payload: four data-0s then 010111.
  static const Bits bits = {false, false, false, false,
                            false, true,  false, true, true, true};
  return bits;
}

}  // namespace

std::size_t miller_m(Miller mode) {
  switch (mode) {
    case Miller::kFm0:
      return 1;
    case Miller::kM2:
      return 2;
    case Miller::kM4:
      return 4;
    case Miller::kM8:
      return 8;
  }
  return 1;
}

std::vector<bool> miller_preamble_chips(Miller mode) {
  const std::size_t m = miller_m(mode);
  std::vector<bool> chips;
  bool p = false;
  bool prev = false;
  bool have_prev = false;
  for (bool b : preamble_bits()) {
    append_symbol(chips, p, b, prev, have_prev, m);
    prev = b;
    have_prev = true;
  }
  return chips;
}

std::vector<bool> miller_encode_chips(Miller mode, const Bits& bits) {
  const std::size_t m = miller_m(mode);
  std::vector<bool> chips;
  chips.reserve((preamble_bits().size() + bits.size() + 1) * 2 * m);
  bool p = false;
  bool prev = false;
  bool have_prev = false;
  for (bool b : preamble_bits()) {
    append_symbol(chips, p, b, prev, have_prev, m);
    prev = b;
    have_prev = true;
  }
  for (bool b : bits) {
    append_symbol(chips, p, b, prev, have_prev, m);
    prev = b;
    have_prev = true;
  }
  append_symbol(chips, p, true, prev, have_prev, m);  // closing dummy-1
  return chips;
}

std::vector<double> miller_modulate(Miller mode, const Bits& bits,
                                    double blf_hz, double sample_rate_hz) {
  return chips_to_samples(miller_encode_chips(mode, bits), blf_hz,
                          sample_rate_hz);
}

Fm0DecodeResult miller_decode(Miller mode, std::span<const double> signal,
                              std::size_t num_bits, double blf_hz,
                              double sample_rate_hz, double min_correlation) {
  Fm0DecodeResult result;
  const std::size_t m = miller_m(mode);
  const double chip_duration = 1.0 / (2.0 * blf_hz);
  const auto spc = static_cast<std::size_t>(
      std::llround(chip_duration * sample_rate_hz));
  const auto tmpl =
      chips_to_samples(miller_preamble_chips(mode), blf_hz, sample_rate_hz);
  const std::size_t preamble_chips = miller_preamble_chips(mode).size();
  const std::size_t total_chips = preamble_chips + 2 * m * (num_bits + 1);
  if (signal.size() < total_chips * spc) return result;

  // Hoist the template-side correlation statistics out of the scan
  // (bitwise-identical results).
  const CorrelationNeedle cached(tmpl);
  double best = 0.0;
  std::size_t best_off = 0;
  const std::size_t last = signal.size() - total_chips * spc;
  for (std::size_t off = 0; off <= last; ++off) {
    const double c = cached.correlate(signal.subspan(off, tmpl.size()));
    if (std::abs(c) > std::abs(best)) {
      best = c;
      best_off = off;
    }
  }
  result.preamble_correlation = std::abs(best);
  result.preamble_offset = best_off;
  result.inverted = best < 0.0;
  if (result.preamble_correlation < min_correlation) return result;

  const double polarity = result.inverted ? -1.0 : 1.0;
  auto chip_level = [&](std::size_t chip_index) {
    const std::size_t start = best_off + chip_index * spc;
    double sum = 0.0;
    for (std::size_t i = 0; i < spc; ++i) sum += signal[start + i];
    return polarity * sum > 0.0;
  };

  // A bit is 1 iff the subcarrier phase flips at mid-symbol: compare the
  // parity-adjusted level of the two halves by majority vote.
  for (std::size_t b = 0; b < num_bits; ++b) {
    const std::size_t base = preamble_chips + b * 2 * m;
    int first = 0, second = 0;
    for (std::size_t j = 0; j < m; ++j) {
      const bool parity = (j & 1) != 0;
      first += (chip_level(base + j) != parity) ? 1 : -1;
      const std::size_t k = m + j;
      const bool parity2 = (k & 1) != 0;
      second += (chip_level(base + k) != parity2) ? 1 : -1;
    }
    result.bits.push_back((first > 0) != (second > 0));
  }
  result.valid = true;
  return result;
}

std::vector<double> uplink_modulate(Miller mode, const Bits& bits,
                                    double blf_hz, double sample_rate_hz) {
  return mode == Miller::kFm0
             ? fm0_modulate(bits, blf_hz, sample_rate_hz)
             : miller_modulate(mode, bits, blf_hz, sample_rate_hz);
}

Fm0DecodeResult uplink_decode(Miller mode, std::span<const double> signal,
                              std::size_t num_bits, double blf_hz,
                              double sample_rate_hz, double min_correlation) {
  return mode == Miller::kFm0
             ? fm0_decode(signal, num_bits, blf_hz, sample_rate_hz,
                          min_correlation)
             : miller_decode(mode, signal, num_bits, blf_hz, sample_rate_hz,
                             min_correlation);
}

double miller_processing_gain_db(Miller mode) {
  return 10.0 * std::log10(static_cast<double>(miller_m(mode)));
}

}  // namespace ivnet::gen2
