// Miller-modulated subcarrier uplink encodings (M = 2, 4, 8).
//
// The Gen2 Query's M field selects the tag's uplink modulation: FM0 (M=1)
// or Miller with 2/4/8 subcarrier cycles per bit. IVN's prototype uses FM0,
// but deep-tissue links are exactly where Miller's extra processing gain
// matters (each bit spreads over more chip transitions), so the full set is
// implemented here and exercised by the uplink robustness tests.
//
// Miller baseband rules (ISO 18000-63): the baseband inverts at a bit
// boundary only between two consecutive data-0s; data-1 inverts in the
// middle of the bit. The baseband is then multiplied by a square subcarrier
// of M half-cycles per half-bit... equivalently each bit spans 2*M half
// chips. We implement the standard sequence generator and a correlation
// decoder symmetric to the FM0 one.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "ivnet/gen2/commands.hpp"
#include "ivnet/gen2/crc.hpp"
#include "ivnet/gen2/fm0.hpp"

namespace ivnet::gen2 {

/// Number of subcarrier cycles per symbol for a Miller mode.
std::size_t miller_m(Miller mode);

/// Miller preamble chip levels for the given mode (TRext = 0: 4 symbols of
/// data-0 baseband followed by the sync pattern "010111" encoded per spec).
std::vector<bool> miller_preamble_chips(Miller mode);

/// Encode data bits to chip levels (preamble + data + dummy-1).
std::vector<bool> miller_encode_chips(Miller mode, const Bits& bits);

/// Expand chips to +/-1.0 samples. The chip rate is BLF * 2 (two chips per
/// subcarrier cycle); each data bit spans 2*M chips.
std::vector<double> miller_modulate(Miller mode, const Bits& bits,
                                    double blf_hz, double sample_rate_hz);

/// Correlation-gated Miller decoder.
Fm0DecodeResult miller_decode(Miller mode, std::span<const double> signal,
                              std::size_t num_bits, double blf_hz,
                              double sample_rate_hz,
                              double min_correlation = 0.8);

/// The uplink a Query's M field selects: FM0 for Miller::kFm0 (fm0_modulate
/// / fm0_decode), Miller with M subcarrier cycles otherwise.
std::vector<double> uplink_modulate(Miller mode, const Bits& bits,
                                    double blf_hz, double sample_rate_hz);
Fm0DecodeResult uplink_decode(Miller mode, std::span<const double> signal,
                              std::size_t num_bits, double blf_hz,
                              double sample_rate_hz,
                              double min_correlation = 0.8);

/// Processing gain of mode over FM0 in dB: 10*log10(M) (each bit carries M
/// times more chip transitions at the same BLF).
double miller_processing_gain_db(Miller mode);

}  // namespace ivnet::gen2
