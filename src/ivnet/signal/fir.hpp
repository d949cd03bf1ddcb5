// Windowed-sinc FIR design and the complex "same"-aligned FIR kernel.
//
// No session, campaign or service request filters in the sample domain:
// the out-of-band reader models its SAW filter as a scalar rejection
// (reader/oob_reader.hpp). This kernel and decimate (resampler.hpp) stay
// for the benchmark's FIR probes.
//
// fir_filter is the three-region fast path: edge outputs (where the tap
// window overhangs the signal) run the textbook bounds-checked loop,
// interior outputs run a branch-free core with no bounds checks, and the
// re/im parts run as split (SoA) lanes. Per-output accumulation order is
// unchanged, so results are bitwise-identical to the naive loop — pinned
// against the oracle in tests/naive_dsp.hpp by tests/dsp_fastpath_test.cpp.
// See docs/ARCHITECTURE.md, "DSP fast path".
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "ivnet/signal/dsp_workspace.hpp"
#include "ivnet/signal/waveform.hpp"

namespace ivnet {

/// Windowed-sinc low-pass FIR taps. `num_taps` odd (rounded up if even).
/// Hamming window. Throws std::invalid_argument — in release builds too —
/// unless 0 < cutoff_hz < sample_rate_hz/2 and num_taps >= 1.
std::vector<double> design_lowpass(double cutoff_hz, double sample_rate_hz,
                                   std::size_t num_taps);

/// Convolve a complex waveform with real taps ("same" alignment: output has
/// the same length, group delay compensated by (num_taps-1)/2 samples),
/// writing into `out` (resized; must not alias `wave`) with split-lane
/// scratch checked out of `ws`.
void fir_filter(const Waveform& wave, std::span<const double> taps,
                Waveform& out, DspWorkspace& ws);

}  // namespace ivnet
