// Pulse-Interval Encoding (PIE) — the reader->tag downlink modulation.
//
// Tags decode PIE with a bare envelope detector: symbols are distinguished by
// the interval between falling edges (data-0 is one Tari long, data-1 is two),
// which is why the CIB amplitude-flatness constraint of Eq. 7/9 exists — the
// beamformed envelope must not fluctuate so much that interval slicing fails.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "ivnet/gen2/crc.hpp"

namespace ivnet::gen2 {

/// PIE air-interface timing.
struct PieTiming {
  double tari_s = 25e-6;      ///< reference interval (data-0 length)
  double data1_factor = 2.0;  ///< data-1 length as a multiple of Tari (1.5-2)
  double pw_factor = 0.5;     ///< low-pulse width as a fraction of Tari
  double delimiter_s = 12.5e-6;
  double trcal_factor = 5.0;  ///< TRcal in Tari (sets the backscatter BLF)

  double data0_s() const { return tari_s; }
  double data1_s() const { return tari_s * data1_factor; }
  double pw_s() const { return tari_s * pw_factor; }
  /// RTcal is DEFINED as data0 + data1 (ISO 18000-63), so the decode pivot
  /// RTcal/2 always separates the two symbol lengths.
  double rtcal_s() const { return data0_s() + data1_s(); }
  double trcal_s() const { return tari_s * trcal_factor; }
};

/// Encode `bits` as a PIE envelope (values 1.0 / 0.0) at `sample_rate_hz`,
/// prefixed by a preamble (delimiter + data-0 + RTcal + TRcal) when
/// `with_preamble`, else by a frame-sync (delimiter + data-0 + RTcal).
/// Query uses the preamble; all other commands use frame-sync.
/// `high_samples` (if non-null) receives the number of 1.0 samples, so the
/// envelope's mean power is exactly high_samples / size().
std::vector<double> pie_encode(const Bits& bits, const PieTiming& timing,
                               double sample_rate_hz, bool with_preamble,
                               std::size_t* high_samples = nullptr);

/// Result of envelope-detecting a PIE transmission.
struct PieDecodeResult {
  bool valid = false;
  bool saw_preamble = false;  ///< true: full preamble; false: frame-sync only
  Bits bits;
  double measured_rtcal_s = 0.0;
  double measured_trcal_s = 0.0;
};

/// Decode a received envelope (arbitrary positive amplitude) the way a tag
/// does: slice at the midpoint threshold, find falling edges, classify
/// intervals against RTcal/2 as they arrive. Decoding fails (valid=false)
/// when the envelope fluctuation exceeds `max_fluctuation` (Eq. 7's alpha;
/// tags tolerate < 0.5) because the slicer threshold no longer separates
/// highs from lows.
PieDecodeResult pie_decode(std::span<const double> envelope,
                           double sample_rate_hz,
                           double max_fluctuation = 0.5);

}  // namespace ivnet::gen2
