// Sample-accurate Gen2 session: the full pipeline a real IVN deployment
// runs, with no analytic shortcuts on the downlink.
//
//   RadioArray (PLL phases, PA compression, clock skew)
//     -> blind multipath Channel
//       -> received waveform -> envelope detector -> TagDevice
//         (harvester rail + PIE decode + state machine)
//           -> FM0 backscatter reflection
//             -> OobReader (SAW, jamming, averaging, 0.8-correlation)
//
// The analytic runner in experiment.hpp evaluates the same physics through
// the closed-form CIB envelope; this class is the reference implementation
// the tests cross-validate it against, and the one to extend when modelling
// new RF impairments.
#pragma once

#include "ivnet/cib/transmitter.hpp"
#include "ivnet/gen2/pie.hpp"
#include "ivnet/impair/recovery.hpp"
#include "ivnet/reader/oob_reader.hpp"
#include "ivnet/sim/experiment.hpp"

namespace ivnet {

struct WaveformSessionConfig {
  FrequencyPlan plan = FrequencyPlan::paper_default().truncated(8);
  RadioArrayConfig radio;  ///< 800 kHz, 30 dBm drive, Octoclock by default
  OobReaderConfig reader;
  gen2::PieTiming pie;
  /// CW charging window preceding the query. Full-rate samples; keep this
  /// to O(100 ms) unless you want multi-second runs.
  double charge_time_s = 0.25;
  /// Per-command retry/backoff/timeout used by run_sensor_read. Each retry
  /// rides a later CIB period (the paper's reader re-queries on the next
  /// envelope peak).
  RecoveryPolicy recovery;
};

struct WaveformSessionReport {
  bool powered = false;
  bool command_decoded = false;
  bool replied = false;
  bool rn16_decoded = false;
  double preamble_correlation = 0.0;
  std::uint16_t rn16 = 0;
  double peak_envelope_v = 0.0;  ///< from the real received waveform
  double peak_rail_v = 0.0;
  OobDecodeReport reader_report;
};

/// Outcome of a full sensor-read dialogue:
/// Query -> RN16 -> ACK -> EPC -> Req_RN -> handle -> Read -> sensor words.
struct SensorReadReport {
  bool powered = false;
  bool inventoried = false;   ///< RN16 decoded and EPC ACKed
  bool secured = false;       ///< handle obtained via Req_RN
  bool read_ok = false;       ///< sensor words decoded and CRC-clean
  std::uint16_t handle = 0;
  std::vector<std::uint16_t> words;  ///< USER bank words 0..3
  double temperature_c = 0.0;        ///< decoded from word 0
  double ph = 0.0;                   ///< decoded from word 1
  double pressure_mmhg = 0.0;        ///< decoded from word 2
  int commands_sent = 0;
  RecoveryStats recovery;            ///< retries / timeouts / failure stage
};

/// Runs sample-accurate sessions. One instance owns the radio array (PLL
/// phases persist across runs until new_trial()). The charge window and
/// every command reach the tag through RadioArray::transmit_through, which
/// adds each antenna's channel-weighted output straight into the received
/// waveform instead of building N per-antenna waveforms.
class WaveformSession {
 public:
  WaveformSession(WaveformSessionConfig config, Rng& rng);

  const WaveformSessionConfig& config() const { return config_; }
  CibTransmitter& transmitter() { return tx_; }

  /// Run one full session against a fresh blind channel draw in `scenario`.
  WaveformSessionReport run(const Scenario& scenario, const TagConfig& tag,
                            Rng& rng);

  /// Run a complete monitoring dialogue against a sensor-bearing tag:
  /// inventory it, secure a handle, and Read the four USER sensor words
  /// (see tag/sensor.hpp for the layout). `sensor_time_s` stamps the
  /// measurement the sensor publishes before the read.
  SensorReadReport run_sensor_read(const Scenario& scenario,
                                   const TagConfig& tag, double sensor_time_s,
                                   Rng& rng);

  /// Re-draw PLL phases (a fresh trial of the same deployment).
  void new_trial(Rng& rng) { tx_.new_trial(rng); }

 private:
  WaveformSessionConfig config_;
  CibTransmitter tx_;
};

}  // namespace ivnet
