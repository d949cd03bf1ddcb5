#include "ivnet/gen2/fm0.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <optional>

#include "ivnet/signal/correlate.hpp"

namespace ivnet::gen2 {

const std::vector<bool>& fm0_preamble_halfbits() {
  static const std::vector<bool> preamble = {true, true,  false, true,
                                             false, false, true,  false,
                                             false, false, true,  true};
  return preamble;
}

namespace {

/// The FM0 rules, stated once: emit(level) for every half-bit of `bits` in
/// order, preamble first.
template <typename Emit>
void for_each_fm0_halfbit(const Bits& bits, Emit&& emit) {
  const std::vector<bool>& preamble = fm0_preamble_halfbits();
  for (bool h : preamble) emit(h);
  // FM0 state: level of the most recent half-bit. The preamble ends high;
  // every symbol starts with a boundary inversion.
  bool level = preamble.back();
  auto encode_symbol = [&](bool bit) {
    level = !level;  // boundary inversion
    emit(level);
    if (!bit) level = !level;  // data-0: mid-symbol inversion
    emit(level);
  };
  for (bool bit : bits) encode_symbol(bit);
  encode_symbol(true);  // closing dummy data-1
}

std::size_t fm0_halfbit_count(std::size_t num_bits) {
  return fm0_preamble_halfbits().size() + 2 * (num_bits + 1);
}

/// Writes `n` samples of +1.0 (high) or -1.0 and returns the end. Stores go
/// out as two-sample vector pairs (a scalar fill of ~10 samples ran one
/// store per sample), and the level is a table lookup, not a branch on
/// random data.
double* write_level(double* p, std::size_t n, bool high) {
  using Pair = double __attribute__((vector_size(16)));
  static constexpr double kLevel[2] = {-1.0, 1.0};
  const double level = kLevel[high];
  const Pair pair = {level, level};
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) std::memcpy(p + i, &pair, sizeof pair);
  if (i < n) p[i] = level;
  return p + n;
}

/// Samples per half-bit (half-bit duration = 1/(2*BLF)).
std::size_t samples_per_halfbit(double blf_hz, double fs) {
  const double half_duration = 1.0 / (2.0 * blf_hz);
  const auto spb = static_cast<std::size_t>(std::llround(half_duration * fs));
  assert(spb >= 2 && "sample rate too low for the BLF");
  return spb;
}

/// The preamble's matched filter, rebuilt only when this thread's decoder
/// sees a new samples-per-half-bit.
const CorrelationNeedle& preamble_needle(std::size_t spb) {
  thread_local std::size_t needle_spb = 0;
  thread_local std::optional<CorrelationNeedle> needle;
  if (!needle || needle_spb != spb) {
    needle.emplace(levels_to_samples(fm0_preamble_halfbits(), spb));
    needle_spb = spb;
  }
  return *needle;
}

}  // namespace

std::vector<double> levels_to_samples(const std::vector<bool>& levels,
                                      std::size_t per_level) {
  std::vector<double> samples(levels.size() * per_level);
  double* p = samples.data();
  for (bool high : levels) p = write_level(p, per_level, high);
  return samples;
}

std::vector<double> fm0_modulate(const Bits& bits, double blf_hz,
                                 double sample_rate_hz) {
  // The levels go straight into one buffer sized up front, without
  // materializing the half-bit vector.
  const std::size_t spb = samples_per_halfbit(blf_hz, sample_rate_hz);
  std::vector<double> samples(fm0_halfbit_count(bits.size()) * spb);
  double* p = samples.data();
  for_each_fm0_halfbit(bits, [&](bool h) { p = write_level(p, spb, h); });
  return samples;
}

std::vector<double> fm0_preamble_template(double blf_hz, double sample_rate_hz) {
  return levels_to_samples(fm0_preamble_halfbits(),
                           samples_per_halfbit(blf_hz, sample_rate_hz));
}

Fm0DecodeResult fm0_decode(std::span<const double> signal, std::size_t num_bits,
                           double blf_hz, double sample_rate_hz,
                           double min_correlation) {
  Fm0DecodeResult result;
  const std::size_t spb = samples_per_halfbit(blf_hz, sample_rate_hz);
  // Total half-bits: preamble + 2 per data bit + 2 for the dummy bit.
  const std::size_t total_halves = fm0_halfbit_count(num_bits);
  if (signal.size() < total_halves * spb) return result;

  // Locate the preamble at either polarity. The template-side correlation
  // statistics are hoisted out of the scan (bitwise-identical results).
  const CorrelationNeedle& cached = preamble_needle(spb);
  double best = 0.0;
  std::size_t best_off = 0;
  bool inverted = false;
  const std::size_t last_start = signal.size() - total_halves * spb;
  for (std::size_t off = 0; off <= last_start; ++off) {
    const double c = cached.correlate(signal.subspan(off, cached.size()));
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

  // Slice half-bit levels by integrating each half period. Two symbols'
  // four halves integrate side by side: each sum still adds its own
  // samples in order, but the four add chains overlap.
  const double polarity = inverted ? -1.0 : 1.0;
  const std::size_t preamble_halves = fm0_preamble_halfbits().size();
  const double* data = signal.data() + best_off + preamble_halves * spb;
  double last_sum = 0.0;
  for (std::size_t i = 0; i < spb; ++i) last_sum += (data - spb)[i];
  bool prev_last = polarity * last_sum > 0.0;
  // One symbol from its two half sums; false on an FM0 violation.
  auto accept = [&](double sum0, double sum1) {
    const bool h0 = polarity * sum0 > 0.0;
    const bool h1 = polarity * sum1 > 0.0;
    // Equal halves -> data-1; a mid-symbol inversion -> data-0.
    result.bits.push_back(h0 == h1);
    // FM0 well-formedness: each symbol starts with a boundary inversion.
    if (h0 == prev_last) {
      // Boundary violation inside data: treat as decode failure.
      result.bits.clear();
      return false;
    }
    prev_last = h1;
    return true;
  };
  // An odd final symbol's group also integrates the dummy data-1's halves,
  // which the length check above keeps in bounds; their sums are unused.
  for (std::size_t b = 0; b < num_bits; b += 2) {
    const double* h = data + 2 * b * spb;
    double sum0 = 0.0, sum1 = 0.0, sum2 = 0.0, sum3 = 0.0;
    for (std::size_t i = 0; i < spb; ++i) {
      sum0 += h[i];
      sum1 += h[spb + i];
      sum2 += h[2 * spb + i];
      sum3 += h[3 * spb + i];
    }
    if (!accept(sum0, sum1)) return result;
    if (b + 1 < num_bits && !accept(sum2, sum3)) return result;
  }
  result.valid = true;
  return result;
}

}  // namespace ivnet::gen2
