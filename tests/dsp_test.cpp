// Checks decimate's anti-alias filter end to end: an in-band tone survives,
// an aliasing tone is removed, factor 1 is the identity, and a tone just
// past the new Nyquist comes out >= 40 dB down. dsp_fastpath_test pins the
// same kernel bitwise against its naive oracle.
#include <gtest/gtest.h>

#include <cmath>

#include "goertzel.hpp"
#include "ivnet/common/units.hpp"
#include "ivnet/signal/dsp_workspace.hpp"
#include "ivnet/signal/resampler.hpp"
#include "ivnet/signal/waveform.hpp"

namespace ivnet {
namespace {

TEST(Decimate, PreservesInBandTone) {
  const auto tone = make_tone(1000.0, 0.0, 8192, 80e3);
  DspWorkspace ws;
  const auto out = decimate(tone, 4, ws);
  EXPECT_DOUBLE_EQ(out.sample_rate_hz, 20e3);
  EXPECT_EQ(out.size(), tone.size() / 4);
  EXPECT_NEAR(std::abs(goertzel(out, 1000.0)), 1.0, 0.05);
}

TEST(Decimate, SuppressesAliasingTone) {
  // 35 kHz at 80 kS/s would alias to -5 kHz after /4; the anti-alias filter
  // must remove it first.
  const auto tone = make_tone(35e3, 0.0, 8192, 80e3);
  DspWorkspace ws;
  const auto out = decimate(tone, 4, ws);
  EXPECT_LT(std::abs(goertzel(out, -5e3)), 0.05);
}

TEST(Decimate, FactorOneIsIdentity) {
  const auto tone = make_tone(100.0, 0.3, 64, 1e3);
  DspWorkspace ws;
  const auto out = decimate(tone, 1, ws);
  EXPECT_EQ(out.samples, tone.samples);
}

TEST(Decimate, AliasRejectionAtLeast40dB) {
  // decimation_taps puts the cutoff at 0.45 * out_rate with 34 * factor + 1
  // taps. A tone 10% above the post-decimation Nyquist must come out
  // >= 40 dB down at its alias bin.
  const double fs = 80e3;
  DspWorkspace ws;
  for (std::size_t factor : {2u, 4u, 8u}) {
    const double out_rate = fs / static_cast<double>(factor);
    const double tone_hz = 1.1 * (out_rate / 2.0);
    const auto tone = make_tone(tone_hz, 0.0, 1 << 14, fs);
    const auto out = decimate(tone, factor, ws);
    // A complex tone above the new Nyquist wraps to tone_hz - out_rate.
    const double alias = std::abs(goertzel(out, tone_hz - out_rate));
    EXPECT_LT(amplitude_to_db(alias), -40.0)
        << "factor " << factor << ": alias only "
        << amplitude_to_db(alias) << " dB down";
  }
}

}  // namespace
}  // namespace ivnet
