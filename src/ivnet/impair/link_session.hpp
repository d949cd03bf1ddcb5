// Impaired Gen2 link session: the full charge -> Query -> RN16 -> ACK ->
// EPC dialogue over a lossy, time-varying link, with the reader-side
// recovery the paper's in-vivo runs needed (retry on the next CIB period,
// per-command timeouts, adaptive Q).
//
// This is the waveform-link middle ground between the analytic runner
// (sim/experiment) and the sample-accurate radio path
// (sim/waveform_session): commands and replies are real PIE / FM0 / Miller
// waveforms pushed through an ImpairmentChain, but the RF front ends are
// folded into an SNR budget (array gain, tissue loss, downlink advantage),
// which keeps one session in the tens of microseconds of CPU — fast enough
// for the media x SNR x antennas Monte-Carlo matrices the test suite runs.
#pragma once

#include <cstdint>

#include "ivnet/common/rng.hpp"
#include "ivnet/gen2/commands.hpp"
#include "ivnet/gen2/pie.hpp"
#include "ivnet/gen2/tag_sm.hpp"
#include "ivnet/impair/impairment.hpp"
#include "ivnet/impair/recovery.hpp"
#include "ivnet/reader/inventory.hpp"

namespace ivnet {

/// Link budget + impairments + recovery policy of one impaired session.
struct ImpairedLinkConfig {
  double blf_hz = 40e3;            ///< backscatter link frequency
  double sample_rate_hz = 800e3;
  gen2::PieTiming pie;
  gen2::Miller uplink = gen2::Miller::kFm0;

  /// Reference uplink SNR [dB]: one antenna, zero tissue loss. The budget
  /// seen by the decoder is snr_db + 10*log10(antennas) - 2*medium_loss_db
  /// (the backscatter round trip crosses the tissue twice).
  double snr_db = 30.0;
  std::size_t num_antennas = 1;
  /// One-way excess tissue loss [dB] (media x depth; see waterfall.hpp).
  double medium_loss_db = 0.0;
  /// The downlink is reader-powered and decodes on a bare envelope
  /// detector; it sits this many dB above the uplink budget.
  double downlink_snr_advantage_db = 12.0;
  double min_correlation = 0.75;   ///< reader's preamble decode gate

  /// Charging model: nominal single-antenna clean-channel amplitude at the
  /// tag [V]; the tag powers when the array/loss-scaled amplitude clears
  /// power_up_threshold_v (or, with impair.brownout.enabled, when the
  /// transient-doubler rail clears its recover voltage).
  double charge_amplitude_v = 1.0;
  double power_up_threshold_v = 0.35;
  double charge_time_s = 2e-3;

  ImpairmentConfig impair;    ///< CFO, drift, bursts, AWGN, brownout
  RecoveryPolicy recovery;    ///< retries / backoff / timeout
  AdaptiveQConfig adaptive_q{.initial_q = 0.0};  ///< single tag: start at 0

  gen2::Bits epc;             ///< tag identity (96 defaults bits when empty)
};

/// Everything one impaired session reports back to the Monte-Carlo layer.
struct LinkSessionReport {
  bool success = false;       ///< CRC-clean EPC recovered
  bool powered = false;
  std::uint16_t rn16 = 0;     ///< RN16 the reader believes it decoded
  gen2::Bits epc;             ///< recovered EPC payload (when success)
  double last_correlation = 0.0;  ///< preamble correlation of last decode
  double elapsed_s = 0.0;     ///< air time incl. backoff waits
  int commands_sent = 0;
  RecoveryStats recovery;     ///< retries / timeouts / q_trajectory / stage
  ImpairmentTrace trace;      ///< bursts hit, samples erased, brownout
};

/// The 96-bit EPC an empty ImpairedLinkConfig::epc resolves to. Exposed so
/// callers can model a tag with the identical identity.
const gen2::Bits& default_link_epc();

/// Run one full impaired session. Consumes exactly ONE draw from `rng`
/// (the stream base): every command attempt derives its own counter-keyed
/// sub-stream, so identical configs at different SNRs see the *same* noise
/// shapes scaled to different powers — the common-random-numbers property
/// the waterfall monotonicity tests rely on.
LinkSessionReport run_impaired_link_session(const ImpairedLinkConfig& config,
                                            Rng& rng);

}  // namespace ivnet
