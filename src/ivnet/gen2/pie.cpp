#include "ivnet/gen2/pie.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

namespace ivnet::gen2 {
namespace {

/// Two doubles as one GCC vector (SSE2 width). `<`, `>=` and `?:` act per
/// element with the scalar semantics.
using Pair = double __attribute__((vector_size(16)));

Pair load_pair(const double* p) {
  Pair v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

/// Samples in a level run of `duration_s` at `fs`.
std::size_t run_samples(double duration_s, double fs) {
  const long long n = std::llround(duration_s * fs);
  if (n < 0) throw std::invalid_argument("pie_encode: negative PIE interval");
  return static_cast<std::size_t>(n);
}

}  // namespace

std::vector<double> pie_encode(const Bits& bits, const PieTiming& timing,
                               double sample_rate_hz, bool with_preamble,
                               std::size_t* high_samples) {
  const double fs = sample_rate_hz;
  // Every run length once. A symbol is high for (length - PW), then low
  // for PW; CW lead-in and trailer are 4 Tari high, the delimiter is low.
  const std::size_t cw = run_samples(4.0 * timing.tari_s, fs);
  const std::size_t delimiter = run_samples(timing.delimiter_s, fs);
  const std::size_t pw = run_samples(timing.pw_s(), fs);
  const std::size_t data0 = run_samples(timing.data0_s() - timing.pw_s(), fs);
  const std::size_t data1 = run_samples(timing.data1_s() - timing.pw_s(), fs);
  const std::size_t rtcal = run_samples(timing.rtcal_s() - timing.pw_s(), fs);
  const std::size_t trcal =
      with_preamble ? run_samples(timing.trcal_s() - timing.pw_s(), fs) : 0;
  const auto ones =
      static_cast<std::size_t>(std::count(bits.begin(), bits.end(), true));
  const std::size_t symbols = 2 + (with_preamble ? 1 : 0) + bits.size();
  const std::size_t high = 2 * cw + data0 + rtcal + trcal + ones * data1 +
                           (bits.size() - ones) * data0;

  // Lows are the zero fill; only the high runs are written.
  std::vector<double> env(high + delimiter + symbols * pw);
  double* p = std::fill_n(env.data(), cw, 1.0) + delimiter;
  auto symbol = [&](std::size_t high_run) {
    p = std::fill_n(p, high_run, 1.0) + pw;
  };
  symbol(data0);  // data-0 reference
  symbol(rtcal);
  if (with_preamble) symbol(trcal);
  for (bool bit : bits) symbol(bit ? data1 : data0);
  std::fill_n(p, cw, 1.0);  // trailing CW: the tag backscatters against it
  if (high_samples != nullptr) *high_samples = high;
  return env;
}

PieDecodeResult pie_decode(std::span<const double> envelope,
                           double sample_rate_hz, double max_fluctuation) {
  PieDecodeResult result;
  const std::size_t n = envelope.size();
  if (n < 8) return result;
  const double* x = envelope.data();

  // Extrema over four accumulator lanes: sample i feeds lane i % 4, the
  // last n % 4 samples lane 0. The lanes live in two vector pairs (lanes
  // 0-1 and 2-3), which stay in registers as packed maxpd/minpd; scalar
  // lanes ran one maxsd/minsd per sample, and array lanes compiled to
  // packed ops on accumulators in memory. Each lane sees the same samples
  // in the same order under std::max/std::min's comparisons, so hi and lo
  // (NaN and signed zeros included) equal the scalar four-lane walk's.
  const Pair first = {x[0], x[0]};
  Pair hi01 = first, hi23 = first, lo01 = first, lo23 = first;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const Pair a = load_pair(x + i);
    const Pair b = load_pair(x + i + 2);
    hi01 = hi01 < a ? a : hi01;  // std::max(hi, v)
    hi23 = hi23 < b ? b : hi23;
    lo01 = a < lo01 ? a : lo01;  // std::min(lo, v)
    lo23 = b < lo23 ? b : lo23;
  }
  double hi0 = hi01[0];
  double lo0 = lo01[0];
  for (; i < n; ++i) {
    hi0 = std::max(hi0, x[i]);
    lo0 = std::min(lo0, x[i]);
  }
  const double hi =
      std::max(std::max(hi0, hi01[1]), std::max(hi23[0], hi23[1]));
  const double lo =
      std::min(std::min(lo0, lo01[1]), std::min(lo23[0], lo23[1]));
  if (hi <= 0.0) return result;
  const double threshold = 0.5 * (hi + lo);

  // The tag's detector cannot track a carrier whose "high" level swings more
  // than the modulation depth margin (Eq. 7): measure the high-state
  // fluctuation and reject commands beyond the tolerance. Same lanes; a
  // sample below threshold contributes hi, the identity for min over the
  // high state.
  const Pair hi_pair = {hi, hi};
  const Pair threshold_pair = {threshold, threshold};
  Pair hm01 = hi_pair, hm23 = hi_pair;
  for (i = 0; i + 4 <= n; i += 4) {
    const Pair a0 = load_pair(x + i);
    const Pair b0 = load_pair(x + i + 2);
    const Pair a = a0 >= threshold_pair ? a0 : hi_pair;
    const Pair b = b0 >= threshold_pair ? b0 : hi_pair;
    hm01 = a < hm01 ? a : hm01;
    hm23 = b < hm23 ? b : hm23;
  }
  double hm0 = hm01[0];
  for (; i < n; ++i) hm0 = std::min(hm0, x[i] >= threshold ? x[i] : hi);
  const double high_min =
      std::min(std::min(hm0, hm01[1]), std::min(hm23[0], hm23[1]));
  if ((hi - high_min) / hi >= max_fluctuation) return result;

  // Falling edges of the sliced envelope, each interval classified as it
  // arrives: the first is the data-0 reference, the second RTcal, a third
  // beyond 1.1 RTcal is TRcal, and every other one is a data bit.
  std::size_t falls = 0;
  std::size_t last_fall = 0;
  double data0 = 0.0;
  double pivot = 0.0;
  std::size_t k = 0;
  while (true) {
    while (k < n && !(x[k] >= threshold)) ++k;  // skip a low run
    while (k < n && x[k] >= threshold) ++k;     // skip a high run
    if (k == n) break;
    // x[k - 1] is high and x[k] low: a falling edge at k.
    if (falls > 0) {
      const double interval =
          static_cast<double>(k - last_fall) / sample_rate_hz;
      if (falls == 1) {
        data0 = interval;
      } else if (falls == 2) {
        if (interval <= data0) return result;
        result.measured_rtcal_s = interval;
        pivot = interval / 2.0;
      } else if (falls == 3 && interval > result.measured_rtcal_s * 1.1) {
        result.saw_preamble = true;
        result.measured_trcal_s = interval;
      } else {
        result.bits.push_back(interval > pivot);
      }
    }
    last_fall = k;
    ++falls;
  }
  result.valid = falls >= 3;
  return result;
}

}  // namespace ivnet::gen2
