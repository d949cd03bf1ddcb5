// vitals: sample-accurate sensor-read rounds through WaveformSession, as
// `ivnet vitals` runs them. One caller, closed loop.
#include <cmath>
#include <optional>

#include "harness.hpp"
#include "ivnet/common/units.hpp"
#include "ivnet/common/parallel.hpp"
#include "ivnet/sim/calibration.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

/// Rounds per pass (about 2.5 s).
constexpr std::size_t kRounds = 24;

bool physiological(const ivnet::SensorReadReport& r) {
  return r.words.size() == 4 && r.temperature_c > 30.0 &&
         r.temperature_c < 45.0 && r.ph > 0.5 && r.ph < 8.0 &&
         r.pressure_mmhg > -10.0 && r.pressure_mmhg < 60.0;
}

}  // namespace

ivnet::WaveformSessionConfig vitals_config() {
  ivnet::WaveformSessionConfig config;
  config.plan = ivnet::FrequencyPlan::paper_default().truncated(8);
  config.charge_time_s = 0.2;
  config.reader.averaging_periods = 10;
  return config;
}

ivnet::Scenario vitals_scenario(ivnet::Rng& rng) {
  // Placement jitter around the calibrated implant: up to 2 cm deeper and
  // 45 degrees off boresight. Nearly every round then powers up and runs
  // the full dialogue, so round times do not split into a short mode
  // (below threshold: charge only) and a long one whose mix varies by seed.
  ivnet::Scenario scenario = ivnet::swine_gastric_scenario(
      ivnet::calib::kSwineStandoffM, rng.uniform(0.0, 0.02));
  scenario.orientation_rad = rng.uniform(0.0, ivnet::kPi / 4.0);
  return scenario;
}

void run_vitals(Context& ctx) {
  Report& report = ctx.report;
  ivnet::set_parallel_threads(1);
  report.knobs["IVNET_THREADS"] = "1";
  report.knobs["IVNET_BATCH"] = "unset (library default)";
  report.knobs["IVNET_SHARDS"] = "1";
  report.knobs["rounds_per_pass"] = std::to_string(kRounds);
  report.tail_percentile = 0.90;
  const ivnet::TagConfig tag = ivnet::standard_tag();
  std::size_t powered = 0;
  std::size_t read_ok = 0;

  run_passes(ctx, 1, 3, [&](PassKind kind) {
    PassResult result;
    // --- setup: the session (radio array, PLL phases) and the scenarios;
    // the last set-up is the one the rounds use.
    std::optional<ivnet::WaveformSession> session;
    ivnet::Rng rng;
    std::vector<ivnet::Scenario> scenarios;
    for (std::size_t s = 0; s < kSetupRepeats; ++s) {
      const double t0 = now_s();
      rng = ivnet::Rng(derive_seed(ctx.seed, 300, 0));
      session.emplace(vitals_config(), rng);
      scenarios.clear();
      for (std::size_t k = 0; k < kRounds; ++k) {
        scenarios.push_back(vitals_scenario(rng));
      }
      result.setup_s.push_back(now_s() - t0);
    }

    // --- timed: the rounds, each new_trial + run_sensor_read.
    std::uint64_t digest = 0;
    double round_sum = 0.0;
    std::vector<double> round_ms;
    std::size_t bad = 0;
    powered = 0;
    read_ok = 0;
    {
      Timed root(ctx.spans, "pass.vitals", static_cast<double>(kRounds));
      for (std::size_t k = 0; k < kRounds; ++k) {
        Timed round(ctx.spans, "bench.round", 1.0, k);
        {
          Timed trial(ctx.spans, "sim.waveform.new_trial", 1.0, k);
          session->new_trial(rng);
        }
        ivnet::SensorReadReport r;
        {
          Timed read(ctx.spans, "sim.waveform.run_sensor_read", 1.0, k);
          r = session->run_sensor_read(scenarios[k], tag,
                                       static_cast<double>(k) * 10.0, rng);
        }
        const double dt = round.stop();
        round_sum += dt;
        round_ms.push_back(1e3 * dt);
        powered += r.powered;
        read_ok += r.read_ok;
        if (r.read_ok && !physiological(r)) ++bad;
        digest = mix64(digest ^ (static_cast<std::uint64_t>(r.read_ok) << 1 |
                                 static_cast<std::uint64_t>(r.powered)));
        for (const std::uint16_t w : r.words) digest = mix64(digest ^ w);
        digest = mix64(digest ^ static_cast<std::uint64_t>(r.commands_sent));
      }
    }
    report.check("vitals: read_ok rounds carry 4 CRC-clean words in "
                 "physiological ranges",
                 bad == 0, kRounds, bad);
    if (kind == PassKind::kMeasured) {
      report.rate_per_s.push_back(kRounds / round_sum);
      report.latency_ms.push_back(round_ms);
    }
    result.cost = round_sum / kRounds;
    result.digest = digest;
    return result;
  });

  report.quality = powered > 0 ? static_cast<double>(read_ok) /
                                     static_cast<double>(powered)
                               : 0.0;
  report.named["powered_share"] =
      static_cast<double>(powered) / static_cast<double>(kRounds);
}

}  // namespace perfbench
