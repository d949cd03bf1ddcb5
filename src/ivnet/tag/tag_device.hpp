// A complete battery-free backscatter tag: antenna aperture (Eq. 3) ->
// N-stage harvester with diode threshold (Eq. 1) -> envelope-detector Gen2
// demodulator -> FM0 backscatter modulator.
//
// Two calibrated presets mirror the paper's devices (Sec. 5(c)): the
// Avery Dennison AD-238u8 standard tag and the Xerafy Dash-On XS miniature
// tag. Their antenna apertures and chip sensitivities set where power-up
// fails — the effect every figure in the evaluation hinges on.
#pragma once

#include <optional>
#include <vector>

#include "ivnet/gen2/fm0.hpp"
#include "ivnet/gen2/pie.hpp"
#include "ivnet/gen2/tag_sm.hpp"
#include "ivnet/harvester/harvester.hpp"
#include "ivnet/rf/antenna.hpp"

namespace ivnet {

/// Static description of a tag model.
struct TagConfig {
  Antenna antenna = antennas::standard_tag_antenna();
  HarvesterConfig harvester;
  double input_resistance_ohm = 1500.0;  ///< chip RF input resistance
  /// Passive voltage boost of the antenna-chip matching network (the L-match
  /// Q-gain every UHF tag uses to lift the antenna voltage over V_th).
  double matching_voltage_gain = 2.2;
  /// Matching shift [dB, power] applied when the tag's test tube is immersed
  /// in a high-permittivity medium (eps_r > 20). The miniature Dash-On XS is
  /// a ceramic hard tag designed for high-permittivity (on-metal) backing:
  /// immersion IMPROVES its matching; the air-tuned standard dipole is
  /// unaffected inside its tube.
  double wet_matching_gain_db = 0.0;
  double backscatter_depth = 0.8;  ///< reflection-coefficient swing |dGamma|
  double blf_hz = 40e3;            ///< backscatter link frequency
  gen2::Bits epc;                  ///< tag identity (96 bits)
  std::uint64_t seed = 1;          ///< RN16 generator seed
};

/// The paper's standard tag (1.4 cm x 7 cm).
TagConfig standard_tag();

/// The paper's miniature tag (1.2 cm x 0.3 cm x 0.22 cm).
TagConfig miniature_tag();

/// Result of exposing the tag to a downlink window.
struct TagDownlinkResult {
  bool powered = false;            ///< rail reached the operate voltage
  bool command_decoded = false;    ///< PIE decode succeeded
  std::optional<gen2::Bits> reply; ///< bits the tag will backscatter
  HarvestResult harvest;           ///< rail trace for inspection
};

/// Runtime tag instance.
class TagDevice {
 public:
  explicit TagDevice(TagConfig config);

  const TagConfig& config() const { return config_; }
  const Harvester& harvester() const { return harvester_; }
  gen2::TagStateMachine& state_machine() { return sm_; }
  const gen2::TagStateMachine& state_machine() const { return sm_; }

  /// Peak input-voltage amplitude [V] the chip needs before the rail can
  /// reach the operate voltage (the tag's power-up threshold).
  double min_peak_voltage() const { return harvester_.min_steady_amplitude(); }

  /// Expose the tag to a received envelope (harvester input volts, sampled
  /// at `fs`): runs the rail, and if the tag powers up, attempts to decode
  /// one PIE command and feeds the state machine. Harvester state (the rail)
  /// persists across calls until power_loss().
  TagDownlinkResult receive_downlink(std::span<const double> envelope_v,
                                     double fs);

  /// The reflection-coefficient waveform for a reply: FM0-modulated between
  /// Gamma_low and Gamma_high (centered on 0, swing backscatter_depth).
  std::vector<double> backscatter_reflection(const gen2::Bits& reply,
                                             double fs) const;

  /// Drop the rail (out of field): volatile state resets.
  void power_loss();

  /// Current rail voltage.
  double rail_voltage() const { return rail_v_; }

 private:
  TagConfig config_;
  Harvester harvester_;
  gen2::TagStateMachine sm_;
  double rail_v_ = 0.0;
};

}  // namespace ivnet
