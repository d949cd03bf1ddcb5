// ivnet — command-line front end to the IVN reproduction.
//
//   ivnet plan     [--antennas N] [--trials K] [--moves M] [--restarts R]
//                  [--seed S] [--journal FILE] [--out FILE] [--json]
//                  run the Eq. 10 planner through the content-hashed plan
//                  store (an identical request is a cache hit: zero
//                  objective evaluations, byte-identical stored plan)
//   ivnet media    [--json]                   dielectric property table
//   ivnet range    --tag std|mini --medium air|water [--antennas N] [--json]
//   ivnet session  --scenario air|water|gastric|subcut [--tag std|mini]
//                  [--antennas N] [--distance M | --depth M] [--json]
//   ivnet vitals   [--rounds K]               sensor-read dialogues (swine)
//   ivnet safety   [--antennas N] [--duty D] [--distance M] [--json]
//   ivnet deploy   --scenario air|water|gastric|subcut [--tag std|mini]
//                  [--depth M | --distance M] [--reads-per-minute R]
//                  [--burst-uj E] [--max-antennas N] [--seed S] [--json]
//   ivnet campaign run|status|resume|worker|merge --bench fig9|fig13|x13
//                  [--journal FILE] [--out FILE] [--trials N] [--fresh]
//                  [--shards N] [--shard K]   (worker: one shard's process)
//   ivnet serve    [--workers N] [--queue-depth D] [--requests N|--duration S]
//                  [--rate R] [--trials K] [--closed-loop [C]] [--json]
//                  [--telemetry-out FILE] [--telemetry-interval S]
//                  [--exemplars-out FILE] [--flight-out FILE] [--follow]
//   ivnet replay-exemplar --in FILE [--id N | --index K] [--json]
//   ivnet help
//
// Global flags (any command):
//   --metrics-out FILE     write a metrics-registry snapshot (JSON)
//   --trace-out FILE       write a Chrome trace_event file of the simulated
//                          timeline (load in chrome://tracing or
//                          ui.perfetto.dev)
//
// A flag the command does not read (a typo, or one a command never took)
// prints the flag and exits 2 before any work starts; so does an unknown
// command (with the help, on stderr) or a positional token past the ones
// the command reads (campaign's subcommand, replay-exemplar's file).
//
// Numeric flag values are parsed whole (std::from_chars) into the type the
// command uses: trailing junk, a negative count or an out-of-range value
// prints the flag and exits 2. A token that parses as a number is taken as
// the preceding flag's value even when it starts with '-' (`--snr -5`). A
// switch (--json, --fresh, --follow) takes no value: the token after it is
// positional, so `ivnet media --json extra` exits 2 like `ivnet media
// extra`. --closed-loop takes an optional value.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "ivnet/common/json.hpp"
#include "ivnet/common/parallel.hpp"
#include "ivnet/common/units.hpp"
#include "ivnet/cib/optimizer.hpp"
#include "ivnet/obs/flight_recorder.hpp"
#include "ivnet/obs/obs.hpp"
#include "ivnet/obs/telemetry.hpp"
#include "ivnet/sim/calibration.hpp"
#include "ivnet/sim/campaign.hpp"
#include "ivnet/sim/experiment.hpp"
#include "ivnet/sim/planner.hpp"
#include "ivnet/sim/safety.hpp"
#include "ivnet/sim/waveform_session.hpp"
#include "ivnet/svc/loadgen.hpp"
#include "ivnet/svc/service.hpp"

namespace {

using namespace ivnet;

/// True when all of `token` parses as a T; a floating-point value must also
/// be finite. Unsigned types reject a leading '-', and a value outside T's
/// range fails instead of wrapping.
template <typename T>
bool parse_number(std::string_view token, T& value) {
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (ec != std::errc{} || ptr != end) return false;
  if constexpr (std::is_floating_point_v<T>) return std::isfinite(value);
  return true;
}

/// A numeric flag whose value does not parse; main() reports it, exit 2.
struct FlagError : std::runtime_error {
  FlagError(const std::string& name, const std::string& value)
      : std::runtime_error("invalid value '" + value + "' for --" + name) {}
};

struct Args {
  std::string command;
  std::vector<std::string> positional;  ///< non-flag tokens after the command
  /// A flag given without a value maps to nullopt: has() sees it, and
  /// get()/get_num() return their fallback (`--closed-loop` alone runs the
  /// default window).
  std::map<std::string, std::optional<std::string>> flags;

  bool has(const std::string& name) const { return flags.count(name) > 0; }
  std::string get(const std::string& name, const std::string& fallback) const {
    const auto it = flags.find(name);
    return it == flags.end() || !it->second ? fallback : *it->second;
  }
  /// Numeric flag as T (an integer type or double); throws FlagError.
  template <typename T>
  T get_num(const std::string& name, T fallback) const {
    const auto it = flags.find(name);
    if (it == flags.end() || !it->second) return fallback;
    T value{};
    if (!parse_number(*it->second, value)) throw FlagError(name, *it->second);
    return value;
  }
};

/// A count flag below `minimum` is a bad value like a malformed one (a
/// campaign of zero trials would report statistics of nothing; a plan of
/// one antenna has no beat to search). Throws FlagError naming the flag.
std::size_t count_flag(const Args& args, const std::string& name,
                       std::size_t fallback, std::size_t minimum = 1) {
  const auto count = args.get_num<std::size_t>(name, fallback);
  if (count < minimum) throw FlagError(name, args.get(name, ""));
  return count;
}

/// The tokens after the command; a flag in `switches` never takes the next
/// token as its value.
Args parse_args(int argc, char** argv,
                const std::vector<std::string_view>& switches) {
  Args args;
  if (argc >= 2) args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string token = argv[i];
    if (token.rfind("--", 0) != 0) {
      args.positional.push_back(token);  // e.g. `campaign run`
      continue;
    }
    token.erase(0, 2);
    const bool is_switch =
        std::find(switches.begin(), switches.end(), token) != switches.end();
    double number = 0.0;
    if (!is_switch && i + 1 < argc &&
        (argv[i + 1][0] != '-' || parse_number(argv[i + 1], number))) {
      args.flags[token] = argv[++i];
    } else {
      args.flags[token] = std::nullopt;
    }
  }
  return args;
}

TagConfig tag_from(const Args& args) {
  return args.get("tag", "std") == "mini" ? miniature_tag() : standard_tag();
}

/// Read `path` into `out`; returns false on open failure.
bool read_file(const std::string& path, std::string& out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  char buf[4096];
  std::size_t n = 0;
  out.clear();
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  std::fclose(f);
  return true;
}

/// Write `text` to `path`; returns false (with a message) on failure. Both
/// the write and the close are checked: a full device typically accepts the
/// buffered fwrite and only fails when fclose flushes.
bool write_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "ivnet: cannot write %s: %s\n", path.c_str(),
                 std::strerror(errno));
    return false;
  }
  const bool wrote =
      std::fwrite(text.data(), 1, text.size(), f) == text.size();
  const int write_errno = errno;
  if (std::fclose(f) != 0 || !wrote) {
    std::fprintf(stderr, "ivnet: cannot write %s: %s\n", path.c_str(),
                 std::strerror(wrote ? errno : write_errno));
    return false;
  }
  return true;
}

int cmd_plan(const Args& args) {
  // The Eq. 10 search through the plan store: with --journal, an identical
  // request is served from the journal with zero objective evaluations (and
  // a byte-identical stored plan record — `--out` writes it verbatim, so
  // two runs' outputs `cmp` equal). Without --journal the plan is still
  // memoized for this process.
  FrequencyPlanRequest request;
  request.antennas = count_flag(args, "antennas", 10, 2);
  request.mc_trials = count_flag(args, "trials", 48);
  request.moves = count_flag(args, "moves", 400);
  request.restarts = count_flag(args, "restarts", 2);
  request.seed = args.get_num<std::uint64_t>("seed", 7);

  FrequencyPlanOutcome plan;
  try {
    plan = plan_frequencies(request, args.get("journal", ""));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ivnet plan: %s\n", e.what());
    return 1;
  }

  const std::string out = args.get("out", "");
  if (!out.empty() && !write_file(out, plan.plan_json + "\n")) return 1;

  char hash_hex[32];
  std::snprintf(hash_hex, sizeof(hash_hex), "%016llx",
                static_cast<unsigned long long>(plan.scenario_hash));
  if (args.has("json")) {
    JsonWriter w;
    w.begin_object();
    w.field("antennas", request.antennas);
    w.key("offsets_hz").begin_array();
    for (double f : plan.offsets_hz) w.value(f);
    w.end_array();
    w.field("expected_peak_amplitude", plan.score);
    w.field("rms_hz", plan.rms_hz);
    w.field("rms_limit_hz", request.constraint.rms_limit_hz());
    w.field("evaluations", plan.evaluations);
    w.field("cached", plan.cached);
    w.field("scenario_hash", hash_hex);
    w.end_object();
    std::printf("%s\n", w.str().c_str());
    return 0;
  }
  std::printf("offsets [Hz]:");
  for (double f : plan.offsets_hz) std::printf(" %.0f", f);
  std::printf("\nE[peak] = %.2f / %zu, RMS %.1f Hz (limit %.1f Hz)\n",
              plan.score, request.antennas, plan.rms_hz,
              request.constraint.rms_limit_hz());
  std::printf("plan %s: %s (%zu evaluations)\n", hash_hex,
              plan.cached ? "served from plan store" : "computed",
              plan.evaluations);
  return 0;
}

int cmd_media(const Args& args) {
  const Medium list[] = {media::air(),     media::water(),
                         media::gastric_fluid(), media::intestinal_fluid(),
                         media::steak(),   media::bacon(),
                         media::chicken(), media::skin(),
                         media::fat(),     media::muscle(),
                         media::stomach_wall()};
  const double f = calib::kCibCenterHz;
  if (args.has("json")) {
    JsonWriter w;
    w.begin_array();
    for (const auto& m : list) {
      w.begin_object();
      w.field("name", m.name());
      w.field("eps_r", m.eps_r());
      w.field("sigma_s_per_m", m.sigma());
      w.field("alpha_np_per_m", m.alpha(f));
      w.field("loss_db_per_cm", m.power_loss_db_per_cm(f));
      w.end_object();
    }
    w.end_array();
    std::printf("%s\n", w.str().c_str());
    return 0;
  }
  std::printf("%-18s %-8s %-10s %-14s %s\n", "medium", "eps_r", "sigma",
              "alpha [Np/m]", "loss [dB/cm]");
  for (const auto& m : list) {
    std::printf("%-18s %-8.1f %-10.2f %-14.1f %.2f\n", m.name().c_str(),
                m.eps_r(), m.sigma(), m.alpha(f),
                m.power_loss_db_per_cm(f));
  }
  return 0;
}

int cmd_range(const Args& args) {
  const auto tag = tag_from(args);
  const auto n = args.get_num<std::size_t>("antennas", 8);
  const auto plan = FrequencyPlan::paper_default().truncated(n);
  Rng rng(17);
  const bool water = args.get("medium", "air") == "water";
  const double result = water ? max_water_depth(tag, plan, 15, rng)
                              : max_air_range(tag, plan, 15, rng, 120.0);
  if (args.has("json")) {
    JsonWriter w;
    w.begin_object();
    w.field("tag", tag.antenna.name());
    w.field("medium", water ? "water" : "air");
    w.field("antennas", n);
    w.field(water ? "max_depth_m" : "max_range_m", result);
    w.end_object();
    std::printf("%s\n", w.str().c_str());
  } else if (water) {
    std::printf("%s, %zu antennas: max water depth %.1f cm\n",
                tag.antenna.name().c_str(), n, result * 100.0);
  } else {
    std::printf("%s, %zu antennas: max air range %.1f m\n",
                tag.antenna.name().c_str(), n, result);
  }
  return 0;
}

int cmd_session(const Args& args) {
  const auto tag = tag_from(args);
  const auto n = args.get_num<std::size_t>("antennas", 8);
  const std::string kind = args.get("scenario", "air");
  Scenario scen;
  if (kind == "water") {
    scen = water_tank_scenario(args.get_num("depth", 0.05),
                               calib::kRangeSetupStandoffM);
  } else if (kind == "gastric") {
    scen = swine_gastric_scenario(calib::kSwineStandoffM);
  } else if (kind == "subcut") {
    scen = swine_subcutaneous_scenario(calib::kSwineStandoffM);
  } else {
    scen = air_scenario(args.get_num("distance", 2.0));
  }
  SessionConfig cfg;
  cfg.plan = FrequencyPlan::paper_default().truncated(n);
  cfg.reader.averaging_periods = args.get_num<std::size_t>("averaging", 10);
  Rng rng(args.get_num<std::uint64_t>("seed", 99));
  const auto r = run_gen2_session(scen, tag, cfg, rng);
  if (args.has("json")) {
    JsonWriter w;
    w.begin_object();
    w.field("scenario", scen.name);
    w.field("tag", tag.antenna.name());
    w.field("antennas", n);
    w.field("powered", r.powered);
    w.field("command_decoded", r.command_decoded);
    w.field("rn16_decoded", r.rn16_decoded);
    w.field("preamble_correlation", r.preamble_correlation);
    w.field("peak_envelope_v", r.peak_envelope_v);
    w.field("peak_rail_v", r.peak_rail_v);
    w.end_object();
    std::printf("%s\n", w.str().c_str());
    return r.rn16_decoded ? 0 : 1;
  }
  std::printf("scenario %s, %s, %zu antennas\n", scen.name.c_str(),
              tag.antenna.name().c_str(), n);
  std::printf("powered=%s decoded=%s corr=%.2f env=%.2fV rail=%.2fV\n",
              r.powered ? "yes" : "no", r.rn16_decoded ? "yes" : "no",
              r.preamble_correlation, r.peak_envelope_v, r.peak_rail_v);
  return r.rn16_decoded ? 0 : 1;
}

int cmd_vitals(const Args& args) {
  const unsigned rounds = args.get_num<unsigned>("rounds", 5);
  WaveformSessionConfig cfg;
  cfg.plan = FrequencyPlan::paper_default().truncated(8);
  cfg.charge_time_s = 0.2;
  cfg.reader.averaging_periods = 10;
  Rng rng(4242);
  WaveformSession session(cfg, rng);
  unsigned ok = 0;
  for (unsigned k = 0; k < rounds; ++k) {
    Scenario scen = swine_gastric_scenario(calib::kSwineStandoffM,
                                           rng.uniform(0.0, 0.05));
    scen.orientation_rad = rng.uniform(0.0, kPi);
    session.new_trial(rng);
    const auto r =
        session.run_sensor_read(scen, standard_tag(), k * 10.0, rng);
    if (r.read_ok) {
      ++ok;
      std::printf("round %u: T=%.2f C, pH=%.2f, P=%.1f mmHg\n", k,
                  r.temperature_c, r.ph, r.pressure_mmhg);
    } else {
      std::printf("round %u: %s\n", k,
                  r.powered ? "uplink/access lost" : "below threshold");
    }
  }
  std::printf("vitals read %u/%u rounds\n", ok, rounds);
  return ok > 0 ? 0 : 1;
}

int cmd_safety(const Args& args) {
  const auto n = args.get_num<std::size_t>("antennas", 8);
  const double duty = args.get_num("duty", 0.1);
  const double distance = args.get_num("distance", 1.0);
  const auto r = assess_exposure(n, dbm_to_watts(calib::kTxPowerDbm),
                                 calib::kTxGainDbi, distance, media::skin(),
                                 calib::kCibCenterHz, duty);
  if (args.has("json")) {
    JsonWriter w;
    w.begin_object();
    w.field("antennas", n);
    w.field("duty", duty);
    w.field("skin_distance_m", distance);
    w.field("avg_density_w_per_m2", r.avg_density_w_per_m2);
    w.field("peak_density_w_per_m2", r.peak_density_w_per_m2);
    w.field("surface_sar_w_per_kg", r.surface_sar_w_per_kg);
    w.field("eirp_dbm", r.eirp_dbm);
    w.field("mpe_ok", r.mpe_ok);
    w.field("sar_ok", r.sar_ok);
    w.field("eirp_ok", r.eirp_ok);
    w.end_object();
    std::printf("%s\n", w.str().c_str());
    return 0;
  }
  std::printf("%zu antennas, duty %.2f, skin at %.2f m:\n", n, duty,
              distance);
  std::printf("  avg %.3f W/m^2 (MPE %s), peak %.1f W/m^2, SAR %.4f W/kg "
              "(%s), EIRP %.1f dBm (%s)\n",
              r.avg_density_w_per_m2, r.mpe_ok ? "ok" : "VIOLATION",
              r.peak_density_w_per_m2, r.surface_sar_w_per_kg,
              r.sar_ok ? "ok" : "VIOLATION", r.eirp_dbm,
              r.eirp_ok ? "ok" : "over Part-15 cap");
  return 0;
}

int cmd_deploy(const Args& args) {
  const auto tag = tag_from(args);
  const std::string kind = args.get("scenario", "water");
  Scenario scen;
  if (kind == "air") {
    scen = air_scenario(args.get_num("distance", 2.0));
  } else if (kind == "gastric") {
    scen = swine_gastric_scenario(calib::kSwineStandoffM);
  } else if (kind == "subcut") {
    scen = swine_subcutaneous_scenario(calib::kSwineStandoffM);
  } else {
    scen = water_tank_scenario(args.get_num("depth", 0.10),
                               calib::kRangeSetupStandoffM);
  }
  DeploymentRequirements req;
  req.min_reads_per_minute = args.get_num("reads-per-minute", 1.0);
  req.burst_energy_j = args.get_num("burst-uj", 3.0) * 1e-6;
  req.max_antennas = args.get_num<std::size_t>("max-antennas", 10);
  Rng rng(args.get_num<std::uint64_t>("seed", 5));
  const auto plan = plan_deployment(scen, tag, req, rng);
  if (args.has("json")) {
    JsonWriter w;
    w.begin_object();
    w.field("scenario", scen.name);
    w.field("tag", tag.antenna.name());
    w.field("feasible", plan.feasible);
    w.field("antennas", plan.antennas);
    w.field("power_up_probability", plan.power_up_probability);
    w.field("energy_per_period_j", plan.energy_per_period_j);
    w.field("reads_per_minute", plan.expected_reads_per_minute);
    w.field("limiting_factor", plan.limiting_factor);
    w.end_object();
    std::printf("%s\n", w.str().c_str());
  } else {
    std::printf("deployment for %s / %s:\n  %s\n", scen.name.c_str(),
                tag.antenna.name().c_str(), describe(plan).c_str());
  }
  return plan.feasible ? 0 : 1;
}

/// Build the requested figure campaign. Unknown bench => empty name.
CampaignSpec campaign_from(const Args& args) {
  const std::string bench = args.get("bench", "fig9");
  if (bench == "fig9") return fig9_campaign(count_flag(args, "trials", 150));
  if (bench == "fig13") {
    return fig13_campaign(count_flag(args, "trials", 150),
                          count_flag(args, "range-trials", 15));
  }
  if (bench == "x13") return x13_campaign(count_flag(args, "trials", 48));
  return {};
}

/// Emit the merged results (file / stdout / summary line), shared by the
/// coordinator and the standalone merge subcommand.
int emit_campaign_results(const Args& args, const CampaignReport& report,
                          const std::string& sink_label) {
  const std::string results = report.results_json();
  const std::string out = args.get("out", "");
  if (!out.empty() && !write_file(out, results)) return 1;
  if (args.has("json")) {
    std::printf("%s\n", results.c_str());
    return 0;
  }
  std::printf("campaign %s: %zu cells (%zu computed, %zu resumed, "
              "%zu cache hits) -> %s\n",
              report.name.c_str(), report.cells_total, report.cells_computed,
              report.cells_resumed, report.cache_hits,
              out.empty() ? sink_label.c_str() : out.c_str());
  return 0;
}

int cmd_campaign(const Args& args) {
  const std::string sub =
      args.positional.empty() ? "run" : args.positional.front();
  const CampaignSpec spec = campaign_from(args);
  if (spec.name.empty()) {
    std::fprintf(stderr,
                 "ivnet campaign: unknown --bench '%s' "
                 "(expected fig9|fig13|x13)\n",
                 args.get("bench", "fig9").c_str());
    return 2;
  }
  const std::string journal =
      args.get("journal", "campaign_" + spec.name + ".jsonl");
  const std::size_t shards = count_flag(args, "shards", 1);
  ShardOptions shard_options;
  shard_options.journal_path = journal;
  shard_options.n_shards = shards;

  if (sub == "status") {
    // Report journal coverage without evaluating anything. With --shards,
    // coverage counts a cell done when ANY shard journal holds it.
    std::vector<JournalEntry> entries;
    if (shards > 1) {
      for (std::size_t k = 0; k < shards; ++k) {
        for (auto& entry :
             read_campaign_journal(shard_journal_path(journal, k))) {
          entries.push_back(std::move(entry));
        }
      }
    } else {
      entries = read_campaign_journal(journal);
    }
    std::size_t done = 0;
    for (const auto& cell : spec.cells) {
      const std::uint64_t hash = cell.content_hash();
      for (const auto& entry : entries) {
        if (entry.hash == hash) {
          ++done;
          break;
        }
      }
    }
    if (args.has("json")) {
      JsonWriter w;
      w.begin_object();
      w.field("campaign", spec.name);
      w.field("journal", journal);
      w.field("shards", shards);
      w.field("cells_total", spec.cells.size());
      w.field("cells_done", done);
      w.field("journal_records", entries.size());
      w.end_object();
      std::printf("%s\n", w.str().c_str());
    } else {
      std::printf("campaign %s: %zu/%zu cells journaled in %s (%zu shards)\n",
                  spec.name.c_str(), done, spec.cells.size(), journal.c_str(),
                  shards);
    }
    return 0;
  }

  if (sub == "worker") {
    // One shard's worker, runnable (and killable) as its own process — the
    // coordinator forks these, and ci.sh SIGKILLs one mid-run.
    if (!args.has("shard")) {
      std::fprintf(stderr, "ivnet campaign worker: --shard K required\n");
      return 2;
    }
    const auto shard = args.get_num<std::size_t>("shard", 0);
    if (shard >= shards) throw FlagError("shard", args.get("shard", ""));
    try {
      const ShardWorkerReport report =
          run_campaign_shard(spec, shard_options, shard);
      std::printf("campaign %s shard %zu/%zu: %zu owned, %zu computed "
                  "(%zu stolen, %zu from cache), %zu resumed\n",
                  spec.name.c_str(), report.shard, shards, report.cells_owned,
                  report.cells_computed, report.cells_stolen,
                  report.cells_from_cache, report.cells_resumed);
      return 0;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "ivnet campaign worker: %s\n", e.what());
      return 1;
    }
  }

  if (sub == "merge") {
    const ShardMergeReport merged = merge_campaign_shards(spec, shard_options);
    if (!merged.complete()) {
      std::fprintf(stderr,
                   "ivnet campaign merge: %zu cells missing from the shard "
                   "journals (resume with --shards %zu to fill them)\n",
                   merged.cells_missing, shards);
      return 1;
    }
    return emit_campaign_results(args, merged.report, journal);
  }

  if (sub != "run" && sub != "resume") {
    std::fprintf(stderr,
                 "ivnet campaign: unknown subcommand '%s' "
                 "(expected run|status|resume|worker|merge)\n",
                 sub.c_str());
    return 2;
  }

  // `run --fresh` discards the checkpoint; `resume` never does.
  const bool fresh = sub == "run" && args.has("fresh");

  if (shards <= 1) {
    CampaignOptions options;
    options.journal_path = journal;
    options.fresh = fresh;
    const CampaignReport report = run_campaign(spec, options);
    return emit_campaign_results(args, report, journal);
  }

  // Coordinator: start a fresh claims generation, fork one worker process
  // per shard, wait, then merge the shard journals in spec order. A dead or
  // failed worker leaves holes the merge reports; `campaign resume --shards
  // N` re-runs the fleet over the surviving journals.
  shard_options.fresh = fresh;
  reset_campaign_claims(shard_options);
  std::fflush(stdout);
  std::fflush(stderr);
  std::vector<pid_t> pids;
  for (std::size_t k = 0; k < shards; ++k) {
    const pid_t pid = ::fork();
    if (pid == 0) {
      // Worker child: compute, then exit without running the parent's
      // artifact-writing tail (std::_Exit skips atexit and stdio flush —
      // nothing buffered here; the journal is already fsync'd).
      int rc = 1;
      try {
        run_campaign_shard(spec, shard_options, k);
        rc = 0;
      } catch (const std::exception& e) {
        std::fprintf(stderr, "ivnet campaign shard %zu: %s\n", k, e.what());
      }
      std::_Exit(rc);
    }
    if (pid < 0) {
      std::fprintf(stderr, "ivnet campaign: fork failed for shard %zu\n", k);
      break;  // wait for the workers that did start, then report holes
    }
    pids.push_back(pid);
  }
  bool workers_ok = pids.size() == shards;
  for (const pid_t pid : pids) {
    int status = 0;
    if (::waitpid(pid, &status, 0) < 0 || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
      workers_ok = false;
    }
  }

  const ShardMergeReport merged = merge_campaign_shards(spec, shard_options);
  if (!merged.complete() || !workers_ok) {
    std::fprintf(stderr,
                 "ivnet campaign: sharded %s incomplete (%zu cells missing, "
                 "workers %s) — `ivnet campaign resume --shards %zu` to "
                 "finish\n",
                 sub.c_str(), merged.cells_missing,
                 workers_ok ? "ok" : "failed", shards);
    return 1;
  }
  if (!args.has("json")) {
    std::printf("campaign %s: merged %zu shards (%zu cells stolen)\n",
                spec.name.c_str(), shards, merged.cells_stolen);
  }
  return emit_campaign_results(args, merged.report, journal);
}

/// One `top`-style status line from the rolling windows at time `now_s`.
void print_follow_line(const obs::ServiceTelemetry& telemetry, double now_s) {
  const obs::TelemetryWindow last = telemetry.window(1.0, now_s);
  const obs::TelemetryWindow minute = telemetry.window(60.0, now_s);
  const auto ms = [](const obs::Histogram::View& row, double q) {
    return obs::Histogram::quantile_of(row, obs::latency_bounds(), q) * 1e3;
  };
  std::fprintf(stderr,
               "[t=%8.2fs] rps %8.1f  shed %6.1f/s | wait p50 %8.3fms "
               "p99 %8.3fms | svc p99 %8.3fms | 60s rps %8.1f\n",
               now_s, static_cast<double>(last.completed()),
               static_cast<double>(last.shed), ms(last.queue_wait, 0.50),
               ms(last.queue_wait, 0.99), ms(last.service_time, 0.99),
               static_cast<double>(minute.completed()) / 60.0);
}

int cmd_serve(const Args& args) {
  const auto workers =
      std::max<std::size_t>(1, args.get_num<std::size_t>("workers", 4));
  const auto queue_depth =
      std::max<std::size_t>(2, args.get_num<std::size_t>("queue-depth", 256));
  const double rate = std::max(1e-3, args.get_num("rate", 500.0));
  const double duration_s = args.get_num("duration", 0.0);
  const auto requests =
      std::max<std::size_t>(1, args.get_num<std::size_t>("requests", 1000));
  const bool closed = args.has("closed-loop");
  const auto window = std::max<std::size_t>(
      1, args.get_num<std::size_t>("closed-loop", 4 * workers));
  const double time_scale = std::max(1e-6, args.get_num("time-scale", 1.0));

  // 2-state MMPP over the decode template: calm (0.5x) and surge (1.5x)
  // around the requested mean rate, sticky states so bursts last ~10
  // arrivals. The schedule is deterministic in --seed alone.
  svc::LoadState calm;
  calm.rate_rps = 0.5;
  calm.trials =
      std::max<std::uint32_t>(1, args.get_num<std::uint32_t>("trials", 1));
  calm.antennas =
      std::max<std::uint16_t>(1, args.get_num<std::uint16_t>("antennas", 2));
  calm.snr_db = args.get_num("snr", 14.0);
  calm.medium_loss_db = args.get_num("loss", 0.0);
  svc::LoadState surge = calm;
  surge.rate_rps = 1.5;

  svc::LoadGenConfig load;
  load.states = {calm, surge};
  load.transition = {0.9, 0.1, 0.1, 0.9};
  load.seed = args.get_num<std::uint64_t>("seed", 41);
  load.rate_scale = rate;
  if (duration_s > 0.0) {
    // Duration-bounded: oversample the schedule, then cut it at the clock.
    load.requests = static_cast<std::size_t>(rate * duration_s * 2.0) + 64;
  } else {
    load.requests = requests;
  }
  auto schedule = svc::generate_schedule(load);
  if (duration_s > 0.0) {
    std::size_t n = 0;
    while (n < schedule.size() && schedule[n].t_s <= duration_s) ++n;
    schedule.resize(n);
  }

  svc::ServiceConfig config;
  config.workers = workers;
  config.queue_depth = queue_depth;
  config.plan_journal_path = args.get("plan-journal", "");

  // Live telemetry bundle: rolling windows + exemplars when any consumer
  // asked for them, flight recorder when a dump path is given. Ingests are
  // stamped with each request's offered schedule time, so the emitted
  // series is deterministic in --seed.
  const std::string telemetry_out = args.get("telemetry-out", "");
  const std::string exemplars_out = args.get("exemplars-out", "");
  const std::string flight_out = args.get("flight-out", "");
  const bool follow = args.has("follow");
  const double interval_s =
      std::max(0.05, args.get_num("telemetry-interval", 1.0));
  const bool want_telemetry =
      !telemetry_out.empty() || !exemplars_out.empty() || follow ||
      !flight_out.empty();
  std::optional<obs::ServiceTelemetry> telemetry;
  std::optional<obs::FlightRecorder> flight;
  if (want_telemetry) {
    telemetry.emplace(std::min(1.0, interval_s));
    config.telemetry = &*telemetry;
  }
  if (!flight_out.empty()) {
    flight.emplace(workers + 1);
    config.flight = &*flight;
  }

  svc::LatencyCollector collector;
  svc::InventoryService service(config, collector.sink());
  if (closed && window > service.queue_capacity()) {
    // run_closed_loop refuses a window the queue cannot hold (it would
    // shed); reject the flag before any thread or crash handler starts.
    std::fprintf(stderr,
                 "ivnet serve: --closed-loop %zu exceeds the queue capacity "
                 "%zu (--queue-depth)\n",
                 window, service.queue_capacity());
    return 2;
  }
  if (flight) {
    // Fatal-signal forensics: a crash mid-run still leaves a trace behind.
    obs::FlightRecorder::install_crash_handler(
        &*flight, (flight_out + ".crash").c_str());
  }

  svc::ReplayResult replay;
  if (closed) {
    replay = svc::run_closed_loop(service, collector, schedule, window);
  } else {
    replay = svc::run_open_loop(service, schedule, time_scale);
  }
  service.stop();  // graceful: drains every accepted request
  std::string series;
  if (want_telemetry) {
    // Post-hoc series: samples at the interval grid covering the schedule
    // span. Byte-stable run-to-run for one seed.
    const double span =
        schedule.empty() ? 0.0 : schedule.back().t_s;
    const std::size_t samples = static_cast<std::size_t>(span / interval_s) + 1;
    for (std::size_t k = 1; k <= samples; ++k) {
      const double now_s = static_cast<double>(k) * interval_s;
      series += telemetry->sample_json(now_s);
      series += '\n';
      if (follow) print_follow_line(*telemetry, now_s);
    }
  }
  if (flight) {
    // Disarm before the recorder goes out of scope.
    obs::FlightRecorder::install_crash_handler(nullptr, nullptr);
  }

  const std::size_t completed = collector.completed();
  const double span_s = schedule.empty() ? 0.0 : schedule.back().t_s;
  const double throughput =
      replay.wall_s > 0.0 ? static_cast<double>(completed) / replay.wall_s : 0.0;
  char digest_hex[32];
  std::snprintf(digest_hex, sizeof(digest_hex), "%016llx",
                static_cast<unsigned long long>(collector.digest()));

  bool artifacts_ok = true;
  if (!telemetry_out.empty()) {
    artifacts_ok &= write_file(telemetry_out, series);
  }
  if (!exemplars_out.empty()) {
    artifacts_ok &= write_file(exemplars_out, telemetry->exemplars_jsonl());
  }
  if (!flight_out.empty()) {
    // On-demand dump; the same document the anomaly/crash paths produce.
    artifacts_ok &= write_file(flight_out, flight->dump_json());
  }

  if (args.has("json")) {
    JsonWriter w;
    w.begin_object();
    w.field("workers", workers);
    w.field("queue_depth", service.queue_capacity());
    w.field("mode", closed ? "closed-loop" : "open-loop");
    if (closed) w.field("window", window);
    w.field("offered_rate_rps", rate);
    w.field("schedule_span_s", span_s);
    w.field("submitted", replay.submitted);
    w.field("accepted", replay.accepted);
    w.field("rejected", replay.rejected);
    w.field("completed", completed);
    w.field("succeeded_sessions",
            static_cast<std::size_t>(collector.succeeded_sessions()));
    w.field("wall_s", replay.wall_s);
    w.field("throughput_rps", throughput);
    w.field("queue_wait_p50_s", collector.queue_wait_quantile(0.50));
    w.field("queue_wait_p99_s", collector.queue_wait_quantile(0.99));
    w.field("service_p50_s", collector.service_quantile(0.50));
    w.field("service_p99_s", collector.service_quantile(0.99));
    w.field("latency_p99_s", collector.latency_quantile(0.99));
    w.field("sim_elapsed_total_s", collector.sim_elapsed_total_s());
    w.field("digest", digest_hex);
    if (want_telemetry) {
      w.field("anomalies",
              static_cast<std::size_t>(telemetry->anomaly_episodes()));
      w.field("exemplars", telemetry->exemplars().size());
    }
    if (flight) {
      w.field("flight_events",
              static_cast<std::size_t>(flight->total_events()));
    }
    w.end_object();
    std::printf("%s\n", w.str().c_str());
  } else {
    std::printf("serve (%s): %zu workers, queue %zu, %.0f req/s offered\n",
                closed ? "closed-loop" : "open-loop", workers,
                service.queue_capacity(), rate);
    std::printf("  %zu submitted, %zu accepted, %zu rejected, %zu completed "
                "in %.2f s (%.0f req/s)\n",
                replay.submitted, replay.accepted, replay.rejected, completed,
                replay.wall_s, throughput);
    std::printf("  queue wait p50/p99: %.3f / %.3f ms, service p50/p99: "
                "%.3f / %.3f ms\n",
                collector.queue_wait_quantile(0.50) * 1e3,
                collector.queue_wait_quantile(0.99) * 1e3,
                collector.service_quantile(0.50) * 1e3,
                collector.service_quantile(0.99) * 1e3);
    std::printf("  response digest %s\n", digest_hex);
    if (want_telemetry) {
      std::printf("  anomalies %llu, exemplars retained %zu\n",
                  static_cast<unsigned long long>(
                      telemetry->anomaly_episodes()),
                  telemetry->exemplars().size());
    }
  }
  // Every accepted request must have completed: the drain guarantee.
  if (completed != replay.accepted) return 1;
  return artifacts_ok ? 0 : 1;
}

int cmd_replay_exemplar(const Args& args) {
  const std::string in = args.get(
      "in", args.positional.empty() ? "" : args.positional.front());
  if (in.empty()) {
    std::fprintf(stderr,
                 "ivnet replay-exemplar: --in FILE required (JSONL from "
                 "`ivnet serve --exemplars-out`)\n");
    return 2;
  }
  std::string text;
  if (!read_file(in, text)) {
    std::fprintf(stderr, "ivnet replay-exemplar: cannot read %s\n",
                 in.c_str());
    return 2;
  }
  std::vector<obs::Exemplar> exemplars;
  std::size_t start = 0;
  for (std::size_t line_no = 1; start <= text.size(); ++line_no) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::string_view line(text.data() + start, end - start);
    obs::Exemplar exemplar;
    if (obs::parse_exemplar_line(line, exemplar)) {
      exemplars.push_back(exemplar);
    } else if (line.find('{') != std::string_view::npos) {
      // A JSON record that does not parse is a damaged exemplar, not a
      // blank or header line: replaying the rest would hide it.
      std::fprintf(stderr,
                   "ivnet replay-exemplar: %s:%zu: not a well-formed "
                   "exemplar\n",
                   in.c_str(), line_no);
      return 2;
    }
    if (end == text.size()) break;
    start = end + 1;
  }
  if (args.has("id")) {
    const auto want = args.get_num<std::uint64_t>("id", 0);
    std::vector<obs::Exemplar> keep;
    for (const obs::Exemplar& e : exemplars) {
      if (e.id == want) keep.push_back(e);
    }
    exemplars = std::move(keep);
  } else if (args.has("index")) {
    const auto k = args.get_num<std::size_t>("index", 0);
    if (k >= exemplars.size()) {
      std::fprintf(stderr,
                   "ivnet replay-exemplar: --index %zu out of range "
                   "(%zu exemplars)\n",
                   k, exemplars.size());
      return 2;
    }
    exemplars = {exemplars[k]};
  }
  if (exemplars.empty()) {
    std::fprintf(stderr, "ivnet replay-exemplar: no exemplars selected\n");
    return 2;
  }
  // Every request is built before any replays, so an exemplar its request
  // cannot hold exits 2 with nothing replayed.
  std::vector<svc::Request> requests;
  try {
    for (const obs::Exemplar& exemplar : exemplars) {
      requests.push_back(svc::request_from_exemplar(exemplar));
    }
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "ivnet replay-exemplar: %s\n", e.what());
    return 2;
  }

  // Re-execute through the exact service code path. The response is a pure
  // function of (request, seed): the default link template reproduces the
  // captured bytes, whatever the capturing service's worker count or queue
  // depth were. kPlan's optimizer parallel_for runs inline, matching the
  // worker-thread environment.
  ScopedInlineParallel inline_parallel;
  svc::ServiceConfig config;
  DspWorkspace workspace;
  std::size_t matched = 0;
  JsonWriter w;
  w.begin_object();
  w.key("replays").begin_array();
  for (std::size_t i = 0; i < exemplars.size(); ++i) {
    const obs::Exemplar& exemplar = exemplars[i];
    const auto start_at = std::chrono::steady_clock::now();
    const svc::Response response =
        svc::execute_request(config, requests[i], workspace);
    const double replay_s = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - start_at)
                                .count();
    const std::uint64_t hash = svc::response_hash(response);
    const bool match = hash == exemplar.response_hash;
    matched += match ? 1 : 0;
    char expected_hex[32], actual_hex[32];
    std::snprintf(expected_hex, sizeof(expected_hex), "%016llx",
                  static_cast<unsigned long long>(exemplar.response_hash));
    std::snprintf(actual_hex, sizeof(actual_hex), "%016llx",
                  static_cast<unsigned long long>(hash));
    if (args.has("json")) {
      w.begin_object();
      w.field("id", static_cast<std::size_t>(exemplar.id));
      w.field("kind", static_cast<int>(exemplar.kind));
      w.field("trials", static_cast<std::size_t>(exemplar.trials));
      w.field("expected_hash", expected_hex);
      w.field("actual_hash", actual_hex);
      w.field("match", match);
      w.field("captured_latency_s", exemplar.total_latency_s());
      w.field("replay_s", replay_s);
      w.end_object();
    } else {
      std::printf("id %llu kind %u trials %u: captured %.3f ms "
                  "(wait %.3f + svc %.3f), replay %.3f ms, hash %s %s\n",
                  static_cast<unsigned long long>(exemplar.id), exemplar.kind,
                  exemplar.trials, exemplar.total_latency_s() * 1e3,
                  exemplar.queue_wait_s * 1e3, exemplar.service_s * 1e3,
                  replay_s * 1e3, actual_hex,
                  match ? "MATCH" : "MISMATCH");
    }
  }
  w.end_array();
  w.field("replayed", exemplars.size());
  w.field("matched", matched);
  w.end_object();
  if (args.has("json")) {
    std::printf("%s\n", w.str().c_str());
  } else {
    std::printf("%zu/%zu exemplars reproduced their response hash\n", matched,
                exemplars.size());
  }
  return matched == exemplars.size() ? 0 : 1;
}

void print_help(std::FILE* out) {
  std::fprintf(
      out,
      "ivnet — In-Vivo Networking (SIGCOMM'18) reproduction CLI\n\n"
      "  plan     [--antennas N] [--trials K] [--moves M] [--restarts R]\n"
      "           [--seed S] [--journal FILE] [--out FILE] [--json]\n"
      "           Eq. 10 planner via the content-hashed plan store (an\n"
      "           identical request re-plans for free: zero evaluations,\n"
      "           byte-identical plan JSON — `--out` files cmp equal)\n"
      "  media    [--json]                  dielectric property table\n"
      "  range    --tag std|mini --medium air|water [--antennas N]\n"
      "  session  --scenario air|water|gastric|subcut [--tag std|mini]\n"
      "           [--antennas N] [--distance M|--depth M] [--json]\n"
      "  vitals   [--rounds K]              gastric sensor-read dialogues\n"
      "  safety   [--antennas N] [--duty D] [--distance M] [--json]\n"
      "  deploy   --scenario air|water|gastric|subcut [--tag std|mini]\n"
      "           [--depth M] [--reads-per-minute R] [--json]\n"
      "  campaign run|status|resume|worker|merge --bench fig9|fig13|x13\n"
      "           [--journal FILE] [--out FILE] [--trials N]\n"
      "           [--range-trials N] [--fresh] [--json]\n"
      "           [--shards N]   run/resume fork N worker processes, each\n"
      "                          journaling <journal>.shard<k>.jsonl, then\n"
      "                          merge (byte-identical to --shards 1)\n"
      "           worker --shard K --shards N   one shard's worker process\n"
      "           merge  --shards N             merge shard journals only\n"
      "  serve    [--workers N] [--queue-depth D] [--requests N|--duration S]\n"
      "           [--rate R] [--trials K] [--snr DB] [--closed-loop [C]]\n"
      "           [--seed S] [--json]   MMPP load against the service\n"
      "           [--telemetry-out FILE]      rolling-window JSONL series\n"
      "           [--telemetry-interval S]    sample period (default 1 s)\n"
      "           [--exemplars-out FILE]      K-slowest exemplars (JSONL)\n"
      "           [--flight-out FILE]         flight-recorder Chrome trace\n"
      "           [--follow]                  top-style status line per sample\n"
      "           [--plan-journal FILE]       durable kPlan plan store\n"
      "  replay-exemplar --in FILE [--id N | --index K] [--json]\n"
      "           re-execute captured exemplars; response hash must match\n\n"
      "global: --metrics-out FILE  --trace-out FILE (simulated timeline)\n");
}

int cmd_help(const Args& /*args*/) {
  print_help(stdout);
  return 0;
}

/// A command, the flags it reads (those that take a value, then the
/// switches, which never do) and how many positional tokens it reads.
/// main() reads --metrics-out and --trace-out for every command.
struct Command {
  std::string_view name;
  int (*run)(const Args&);
  std::vector<std::string_view> flags;
  std::vector<std::string_view> switches;
  std::size_t positional = 0;

  bool reads(std::string_view flag) const {
    return flag == "metrics-out" || flag == "trace-out" ||
           std::find(flags.begin(), flags.end(), flag) != flags.end() ||
           std::find(switches.begin(), switches.end(), flag) != switches.end();
  }
};

/// The command named `name`, or null.
const Command* find_command(std::string_view name) {
  static const std::vector<Command> commands = {
      {"plan", cmd_plan,
       {"antennas", "trials", "moves", "restarts", "seed", "journal", "out"},
       {"json"}},
      {"media", cmd_media, {}, {"json"}},
      {"range", cmd_range, {"tag", "medium", "antennas"}, {"json"}},
      {"session", cmd_session,
       {"tag", "scenario", "depth", "distance", "antennas", "averaging",
        "seed"},
       {"json"}},
      {"vitals", cmd_vitals, {"rounds"}, {}},
      {"safety", cmd_safety, {"antennas", "duty", "distance"}, {"json"}},
      {"deploy", cmd_deploy,
       {"tag", "scenario", "depth", "distance", "reads-per-minute",
        "burst-uj", "max-antennas", "seed"},
       {"json"}},
      {"campaign", cmd_campaign,
       {"bench", "trials", "range-trials", "journal", "shards", "shard",
        "out"},
       {"fresh", "json"},
       /*positional=*/1},
      {"serve", cmd_serve,
       {"workers", "queue-depth", "rate", "duration", "requests",
        "closed-loop", "time-scale", "trials", "antennas", "snr", "loss",
        "seed", "plan-journal", "telemetry-out", "telemetry-interval",
        "exemplars-out", "flight-out"},
       {"follow", "json"}},
      {"replay-exemplar", cmd_replay_exemplar, {"in", "id", "index"},
       {"json"}, /*positional=*/1},
      {"help", cmd_help, {}, {}},
  };
  for (const Command& command : commands) {
    if (command.name == name) return &command;
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2 || argv[1][0] == '\0') return cmd_help(Args{});
  const Command* command = find_command(argv[1]);
  // An unknown command, a flag the command does not read or a token past
  // its positional ones would otherwise be ignored silently (a typo'd
  // --trials runs the default count, `vitals 2` the default rounds);
  // refuse them before any file is written or thread started.
  if (command == nullptr) {
    std::fprintf(stderr, "ivnet: unknown command '%s'\n\n", argv[1]);
    print_help(stderr);
    return 2;
  }
  const Args args = parse_args(argc, argv, command->switches);
  for (const auto& flag : args.flags) {
    if (!command->reads(flag.first)) {
      std::fprintf(stderr, "ivnet %s: unknown flag --%s\n",
                   args.command.c_str(), flag.first.c_str());
      return 2;
    }
  }
  if (args.positional.size() > command->positional) {
    std::fprintf(stderr, "ivnet %s: unexpected argument '%s'\n",
                 args.command.c_str(),
                 args.positional[command->positional].c_str());
    return 2;
  }

  // Telemetry sink: any command runs instrumented when asked for artifacts.
  const std::string metrics_out = args.get("metrics-out", "");
  const std::string trace_out = args.get("trace-out", "");
  obs::MetricsRegistry registry;
  obs::Tracer tracer;
  obs::Sink sink;
  if (!metrics_out.empty()) sink.metrics = &registry;
  if (!trace_out.empty()) sink.tracer = &tracer;
  obs::install(sink);

  int rc = 2;
  try {
    rc = command->run(args);
  } catch (const FlagError& e) {
    std::fprintf(stderr, "ivnet %s: %s\n", args.command.c_str(), e.what());
  }

  obs::install_null();
  if (!metrics_out.empty() && !write_file(metrics_out, registry.snapshot_json()))
    rc = rc == 0 ? 1 : rc;
  if (!trace_out.empty() && !write_file(trace_out, tracer.to_json()))
    rc = rc == 0 ? 1 : rc;
  return rc;
}
