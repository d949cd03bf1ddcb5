// Incremental unit-phasor rotation with periodic exact re-anchoring.
//
// The sample-domain loops rotate a phasor one sample at a time
// (`rot *= step`) to avoid a sin/cos pair per sample. Each multiply adds
// O(eps) rounding, so after k steps the phasor has drifted off the unit
// circle in amplitude AND off its true angle in phase by roughly k * eps —
// unbounded over long waveforms. Normalizing the magnitude
// (`rot /= abs(rot)`) fixes only the amplitude half. The CIB envelope
// kernel (cib/objective.cpp, kRenormInterval) instead re-anchors the
// phasor from std::polar every 4096 steps, bounding both errors by
// O(4096 * eps); PhasorRotator packages that same policy and is the one
// oscillator of the sample-domain loops:
//
//   sdr/radio.cpp      RadioArray::transmit (each device's carrier, one
//                      shared set-up) and transmit_through, whose vector
//                      lanes are seeded from each device's rotator (value,
//                      step) and re-anchored through anchor()
//   signal/waveform    make_tone, make_multitone (amplitude applied outside)
//
// Drift regression: tests pin the 2^20-step error below 1e-9 for the
// rotator, for each site above and for the tests' single-bin DFT
// (tests/goertzel.hpp); the naive product drifts ~100x worse and keeps
// growing.
#pragma once

#include <complex>
#include <cstddef>

#include "ivnet/signal/waveform.hpp"

namespace ivnet {

class PhasorRotator {
 public:
  /// Matches cib/objective.cpp's anchor cadence.
  static constexpr std::size_t kRenormInterval = 4096;

  /// Phasor value() = exp(j * (phase0_rad + k * dphi_rad)) after k
  /// advance() calls.
  PhasorRotator(double phase0_rad, double dphi_rad)
      : phase0_(phase0_rad),
        dphi_(dphi_rad),
        step_(std::polar(1.0, dphi_rad)),
        value_(std::polar(1.0, phase0_rad)) {}

  cplx value() const { return value_; }

  /// The rotation advance() multiplies value() by.
  cplx step() const { return step_; }

  /// exp(j * (phase0_rad + k * dphi_rad)) from std::polar: the phasor
  /// that value() tracks after k advance() calls, and what advance()
  /// re-anchors value() to whenever k is a multiple of kRenormInterval.
  cplx anchor(std::size_t k) const {
    return std::polar(1.0, phase0_ + dphi_ * static_cast<double>(k));
  }

  void advance() {
    value_ *= step_;
    if (++count_ % kRenormInterval == 0) value_ = anchor(count_);
  }

 private:
  double phase0_;
  double dphi_;
  cplx step_;
  cplx value_;
  std::size_t count_ = 0;
};

}  // namespace ivnet
