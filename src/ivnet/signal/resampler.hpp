// Integer decimation with anti-alias filtering.
//
// No session, campaign or service request changes sample rate: decimate
// stays, beside fir_filter (fir.hpp), for the benchmark's FIR probes.
//
// decimate runs the polyphase fast path: it evaluates the anti-alias FIR
// only at the kept output samples (factor x fewer MACs). Per-output
// accumulation order matches the filter-everything kernel, so results are
// bitwise-identical — pinned against the tests/naive_dsp.hpp oracle by
// tests/dsp_fastpath_test.cpp. See docs/ARCHITECTURE.md, "DSP fast path".
#pragma once

#include <cstddef>
#include <vector>

#include "ivnet/signal/dsp_workspace.hpp"
#include "ivnet/signal/waveform.hpp"

namespace ivnet {

/// The anti-alias design decimate uses: cutoff at 90% of the
/// post-decimation Nyquist (0.45 * out_rate) with 34*factor + 1 taps.
/// Exposed so the test oracle can reproduce decimation exactly.
std::vector<double> decimation_taps(double in_rate_hz, std::size_t factor);

/// Decimate by `factor` with a windowed-sinc anti-alias low-pass (cutoff at
/// 0.45 * output Nyquist), split-lane scratch checked out of `ws`.
/// factor == 1 returns the input unchanged. Output length is
/// ceil(in.size() / factor) (kept indices 0, factor, ...).
Waveform decimate(const Waveform& in, std::size_t factor, DspWorkspace& ws);

}  // namespace ivnet
