// Per-layer probes of the traced run. Each probe times one layer's public
// call on inputs generated from the run seed, inside a span; the metric is
// read from the span's own interval. Micro-kernels are timed in batches
// (one span per batch, work = calls or samples in it) and reported as the
// median batch. The probe suite is identical in every workload's traced
// run, so a layer number means the same thing whichever workload ran.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>

#include "harness.hpp"
#include "ivnet/cib/delta_objective.hpp"
#include "ivnet/cib/two_stage.hpp"
#include "ivnet/common/parallel.hpp"
#include "ivnet/common/units.hpp"
#include "ivnet/gen2/commands.hpp"
#include "ivnet/gen2/fm0.hpp"
#include "ivnet/gen2/memory.hpp"
#include "ivnet/gen2/pie.hpp"
#include "ivnet/gen2/tag_sm.hpp"
#include "ivnet/impair/impairment.hpp"
#include "ivnet/impair/link_session.hpp"
#include "ivnet/impair/waterfall.hpp"
#include "ivnet/reader/oob_reader.hpp"
#include "ivnet/rf/channel.hpp"
#include "ivnet/rf/propagation.hpp"
#include "ivnet/sdr/pa.hpp"
#include "ivnet/signal/correlate.hpp"
#include "ivnet/signal/envelope.hpp"
#include "ivnet/signal/fir.hpp"
#include "ivnet/signal/gauss.hpp"
#include "ivnet/signal/noise.hpp"
#include "ivnet/signal/resampler.hpp"
#include "ivnet/sim/calibration.hpp"
#include "ivnet/sim/experiment.hpp"
#include "ivnet/svc/mpmc_queue.hpp"
#include "ivnet/tag/tag_device.hpp"
#include "serve.hpp"
#include "workloads.hpp"

#if __has_include("ivnet/sim/batch_pipeline.hpp")
#include "ivnet/sim/batch_pipeline.hpp"
#define PERFBENCH_HAVE_BATCH 1
#endif

namespace perfbench {

namespace {

using namespace ivnet;

constexpr double kFs = 800e3;   // link and radio sample rate
constexpr double kBlf = 40e3;   // backscatter link frequency

/// Keeps probe results observable so the calls cannot be elided.
volatile double g_sink = 0.0;

/// Runs `call` calls_per_batch times in each of `batches` spans named
/// `name` (work = calls_per_batch * work_per_call); returns seconds per
/// work unit of the median batch.
template <typename F>
double per_work(Context& ctx, const char* name, std::size_t batches,
                std::size_t calls_per_batch, double work_per_call, F&& call) {
  std::vector<double> per_unit;
  const double work = static_cast<double>(calls_per_batch) * work_per_call;
  for (std::size_t b = 0; b < batches; ++b) {
    Timed span(ctx.spans, name, work, b);
    for (std::size_t c = 0; c < calls_per_batch; ++c) {
      call(b * calls_per_batch + c);
    }
    per_unit.push_back(span.stop() / work);
  }
  return nearest_rank(per_unit, 0.5);
}

gen2::Bits random_bits(Rng& rng, std::size_t n) {
  gen2::Bits bits(n);
  for (std::size_t i = 0; i < n; ++i) bits[i] = (rng() & 1u) != 0;
  return bits;
}

std::vector<double> noisy(std::vector<double> x, double snr_db, Rng& rng) {
  apply_awgn(x, snr_db, rng);
  return x;
}

Waveform random_waveform(Rng& rng, std::size_t n) {
  Waveform w;
  w.sample_rate_hz = kFs;
  w.samples.resize(n);
  for (auto& s : w.samples) {
    s = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  }
  return w;
}

// --- signal, gen2 ---------------------------------------------------------

void probe_signal(Context& ctx, Rng& rng) {
  auto& L = ctx.report.layer;
  // Record length of an EPC reply (PC + EPC + CRC, FM0 at the link BLF).
  const gen2::Bits epc_frame = random_bits(rng, 128);
  const std::vector<double> record = gen2::fm0_modulate(epc_frame, kBlf, kFs);
  const std::size_t n = record.size();
  std::vector<double> dst(n);
  Rng noise(rng());
  L["signal.gauss.ns_per_sample"] =
      1e9 * per_work(ctx, "signal.gauss.axpy_awgn_onto", 8, 400,
                     static_cast<double>(n), [&](std::size_t) {
                       signal::axpy_awgn_onto(noise, 0.1, record.data(), dst);
                     });
  g_sink = g_sink + dst[n / 2];

  std::vector<Rng> lane_rngs;
  std::vector<std::vector<double>> lane_dst(signal::kGaussLanes,
                                            std::vector<double>(n));
  std::vector<Rng*> rng_ptrs;
  std::vector<const double*> srcs;
  std::vector<double*> dsts;
  const std::vector<double> sigmas(signal::kGaussLanes, 0.1);
  for (std::size_t k = 0; k < signal::kGaussLanes; ++k) {
    lane_rngs.emplace_back(rng());
  }
  for (std::size_t k = 0; k < signal::kGaussLanes; ++k) {
    rng_ptrs.push_back(&lane_rngs[k]);
    srcs.push_back(record.data());
    dsts.push_back(lane_dst[k].data());
  }
  L["signal.gauss.lanes_ns_per_sample"] =
      1e9 * per_work(ctx, "signal.gauss.axpy_awgn_lanes_onto", 8, 100,
                     static_cast<double>(n * signal::kGaussLanes),
                     [&](std::size_t) {
                       signal::axpy_awgn_lanes_onto(
                           signal::kGaussLanes, rng_ptrs.data(), sigmas.data(),
                           srcs.data(), dsts.data(), n);
                     });

  // Round-shaped waveform: one 0.2 s charge window at the radio rate.
  const auto round_n = static_cast<std::size_t>(0.2 * kFs);
  const Waveform charge = random_waveform(rng, round_n);
  Waveform work = charge;
  L["signal.noise.ns_per_sample"] =
      1e9 * per_work(ctx, "signal.noise.add_awgn", 5, 1,
                     static_cast<double>(round_n), [&](std::size_t) {
                       add_awgn(work, 1e-3, noise);
                     });
  const std::vector<double> taps = design_lowpass(100e3, kFs, 63);
  DspWorkspace ws;
  Waveform filtered;
  L["signal.fir.ns_per_sample"] =
      1e9 * per_work(ctx, "signal.fir.fir_filter", 5, 1,
                     static_cast<double>(round_n), [&](std::size_t) {
                       fir_filter(charge, taps, filtered, ws);
                     });
  L["signal.fir.decimate_ns_per_sample"] =
      1e9 * per_work(ctx, "signal.fir.decimate", 5, 1,
                     static_cast<double>(round_n), [&](std::size_t) {
                       const Waveform out = decimate(charge, 4, ws);
                       g_sink = g_sink + out.samples[0].real();
                     });
  std::vector<double> env;
  L["signal.envelope.ns_per_sample"] =
      1e9 * per_work(ctx, "signal.envelope.envelope", 8, 1,
                     static_cast<double>(round_n), [&](std::size_t) {
                       envelope(charge, env);
                     });
  g_sink = g_sink + filtered.samples[7].real() + env[7];

  // Preamble search over an RN16 reply window at a mid-waterfall SNR.
  const std::vector<double> rn16_window =
      noisy(gen2::fm0_modulate(random_bits(rng, 16), kBlf, kFs), 14.0, rng);
  const std::vector<double> needle = gen2::fm0_preamble_template(kBlf, kFs);
  L["signal.correlate.us_per_search"] =
      1e6 * per_work(ctx, "signal.correlate.best_correlation", 4, 500, 1.0,
                     [&](std::size_t) {
                       g_sink = g_sink +
                                best_correlation(rn16_window, needle).value;
                     });
}

void probe_gen2(Context& ctx, Rng& rng) {
  auto& L = ctx.report.layer;
  const gen2::PieTiming pie;
  const gen2::Bits query = gen2::QueryCommand{.q = 0}.encode();
  std::vector<double> pie_env;
  L["gen2.pie_encode.us"] =
      1e6 * per_work(ctx, "gen2.pie_encode", 4, 500, 1.0, [&](std::size_t) {
        pie_env = gen2::pie_encode(query, pie, kFs, true);
      });
  L["gen2.pie_decode.us"] =
      1e6 * per_work(ctx, "gen2.pie_decode", 4, 500, 1.0, [&](std::size_t) {
        g_sink = g_sink + static_cast<double>(
                              gen2::pie_decode(pie_env, kFs).bits.size());
      });
  const std::vector<double> rn16 =
      noisy(gen2::fm0_modulate(random_bits(rng, 16), kBlf, kFs), 14.0, rng);
  L["gen2.fm0_decode.us_rn16"] =
      1e6 * per_work(ctx, "gen2.fm0_decode.rn16", 4, 500, 1.0,
                     [&](std::size_t) {
                       g_sink = g_sink + gen2::fm0_decode(rn16, 16, kBlf, kFs,
                                                          0.75)
                                             .preamble_correlation;
                     });
  const std::vector<double> epc =
      noisy(gen2::fm0_modulate(random_bits(rng, 128), kBlf, kFs), 14.0, rng);
  L["gen2.fm0_decode.us_epc"] =
      1e6 * per_work(ctx, "gen2.fm0_decode.epc", 4, 200, 1.0,
                     [&](std::size_t) {
                       g_sink = g_sink + gen2::fm0_decode(epc, 128, kBlf, kFs,
                                                          0.75)
                                             .preamble_correlation;
                     });

  // Inventory + access dialogue: Query, ACK, Req_RN per power cycle.
  gen2::TagStateMachine tag(default_link_epc(), rng());
  std::size_t replies = 0;
  L["gen2.tag_sm.ns_per_cmd"] =
      1e9 * per_work(ctx, "gen2.tag_sm.on_command", 4, 5000, 3.0,
                     [&](std::size_t) {
                       tag.power_up();
                       const auto rn = tag.on_command(query);
                       if (!rn) return;
                       const auto handle = static_cast<std::uint16_t>(
                           gen2::read_bits(*rn, 0, 16));
                       const gen2::Bits ack =
                           gen2::AckCommand{.rn16 = handle}.encode();
                       const gen2::Bits req_rn =
                           gen2::ReqRnCommand{.rn16 = handle}.encode();
                       replies += tag.on_command(ack).has_value();
                       replies += tag.on_command(req_rn).has_value();
                       tag.power_loss();
                     });
  g_sink = g_sink + static_cast<double>(replies);
}

// --- impair, sim.batch ----------------------------------------------------

/// A mid-waterfall link: one antenna at 8 dB, where some attempts fail and
/// the retries run.
ImpairedLinkConfig mid_snr_link() {
  ImpairedLinkConfig link;
  link.snr_db = 8.0;
  link.recovery = RecoveryPolicy::retries(2);
  return link;
}

/// Sessions t in [0, trials) on Rng::stream(seed, t); returns seconds per
/// session of the median batch and adds the reports' counts.
struct SessionTally {
  double commands = 0.0;
  double successes = 0.0;
  double sessions = 0.0;
};

double time_sessions(Context& ctx, const char* name,
                     const ImpairedLinkConfig& link, std::uint64_t seed,
                     std::size_t batches, std::size_t per_batch,
                     SessionTally* tally) {
  return per_work(ctx, name, batches, per_batch, 1.0, [&](std::size_t t) {
    Rng rng = Rng::stream(seed, t);
    const LinkSessionReport r = run_impaired_link_session(link, rng);
    if (tally != nullptr) {
      tally->commands += r.commands_sent;
      tally->successes += r.success;
      tally->sessions += 1.0;
    }
  });
}

void probe_impair(Context& ctx, Rng& rng) {
  auto& L = ctx.report.layer;
  const std::uint64_t seed = rng() >> 12;
  SessionTally tally;
  L["impair.session.us_mid_snr"] =
      1e6 * time_sessions(ctx, "impair.session.mid_snr", mid_snr_link(), seed,
                          8, 48, &tally);
  L["impair.session.attempts_per_session"] = tally.commands / tally.sessions;
  // A clean dialogue is Query + ACK: the share of commands that ended in a
  // successful session (1.0 when every session succeeds first time).
  L["impair.session.success_per_attempt"] =
      2.0 * tally.successes / tally.commands;

  ImpairedLinkConfig burst;
  burst.snr_db = 30.0;
  burst.impair.bursts = {.rate_hz = 150.0, .mean_duration_s = 5e-4,
                         .depth_db = 40.0};
  burst.recovery = RecoveryPolicy::retries(2);
  L["impair.session.us_burst"] =
      1e6 * time_sessions(ctx, "impair.session.burst", burst, seed, 8, 48,
                          nullptr);

  // Sampler share of a clean-decode session: the same dialogue at 60 dB
  // (every draw made, decodes unchanged) and noiseless (no draws).
  ImpairedLinkConfig high = mid_snr_link();
  high.snr_db = 60.0;
  ImpairedLinkConfig clean = high;
  clean.snr_db = std::numeric_limits<double>::infinity();
  std::vector<double> shares;
  for (std::size_t round = 0; round < 5; ++round) {
    const double t_high = time_sessions(ctx, "impair.session.snr60", high,
                                        seed + round, 1, 200, nullptr);
    const double t_clean = time_sessions(ctx, "impair.session.noiseless",
                                         clean, seed + round, 1, 200, nullptr);
    shares.push_back((t_high - t_clean) / t_high);
  }
  L["signal.gauss.session_share"] = nearest_rank(shares, 0.5);

  const ImpairedLinkConfig mid = mid_snr_link();
  L["impair.ber_probe.us"] =
      1e6 * per_work(ctx, "impair.ber_probe_trial", 4, 200, 1.0,
                     [&](std::size_t t) {
                       const BerProbeResult r =
                           ber_probe_trial(mid, 128, Rng::stream(seed, t));
                       g_sink = g_sink + static_cast<double>(r.bit_errors);
                     });

  ImpairmentConfig chain_config;
  chain_config.snr_db = 14.0;
  chain_config.cfo_hz = 200.0;
  chain_config.bursts = burst.impair.bursts;
  const ImpairmentChain chain(chain_config);
  const std::vector<double> record =
      gen2::fm0_modulate(random_bits(rng, 128), kBlf, kFs);
  Rng chain_rng(rng());
  L["impair.chain.ns_per_sample"] =
      1e9 * per_work(ctx, "impair.chain.apply", 4, 250,
                     static_cast<double>(record.size()), [&](std::size_t) {
                       g_sink = g_sink + chain.apply(record, kFs, chain_rng)[5];
                     });

#ifdef PERFBENCH_HAVE_BATCH
  // The lane engine at 32 lanes on the same trials as us_mid_snr.
  DspWorkspace ws;
  double batch_ok = 0.0;
  const auto sink = [&](std::size_t, const SessionOutcome& o) {
    batch_ok += o.success;
  };
  const std::size_t lanes = 32;
  L["sim.batch.us_per_session_w32"] =
      1e6 * per_work(ctx, "sim.batch.run_session_batch", 12, 1,
                     static_cast<double>(lanes), [&](std::size_t b) {
                       run_session_batch(mid, seed, 1, 0, b * lanes,
                                         (b + 1) * lanes, ws, sink);
                     });
  g_sink = g_sink + batch_ok;
  // Capacity the batch arena holds. Its high_water_bytes() (the source of
  // the workspace.high_water_bytes gauge) reads 0 here: the lanes grow
  // their records after checkout, which the workspace does not track.
  L["sim.batch.workspace_pooled_bytes"] =
      static_cast<double>(ws.pooled_bytes());
#else
  L["sim.batch.us_per_session_w32"] = 0.0;
  L["sim.batch.workspace_pooled_bytes"] = 0.0;
#endif
  const SweepWork work = sweep_work(sweep_spec(ctx.seed, 1));
  L["sim.batch.lockstep_share"] =
      static_cast<double>(work.lockstep_sessions) /
      static_cast<double>(work.sessions);
}

// --- sim.campaign, sim.planner, common.parallel ---------------------------

void probe_campaign(Context& ctx) {
  auto& L = ctx.report.layer;
  register_builtin_cell_evaluators();
  const CampaignSpec spec = sweep_spec(ctx.seed, 1);
  const auto campaign_wall = [&](std::size_t threads, const char* name) {
    clear_cell_cache();
    set_parallel_threads(threads);
    parallel_for(threads * detail::kParallelGrain, [](std::size_t) {});
    CampaignOptions options;
    options.journal_path = ctx.tmp_path("probe-journal");
    options.fresh = true;
    Timed span(ctx.spans, name, static_cast<double>(spec.cells.size()));
    const CampaignReport report = run_campaign(spec, options);
    g_sink = g_sink + static_cast<double>(report.cells_computed);
    return span.stop();
  };
  std::vector<double> walls;
  for (int k = 0; k < 3; ++k) {
    walls.push_back(campaign_wall(ctx.nproc, "sim.campaign.run_campaign"));
  }
  const double wall_n = nearest_rank(walls, 0.5);

  // Cell busy time: each cell resolved inline on one thread, as a pool
  // worker runs it inside the campaign.
  clear_cell_cache();
  std::vector<double> cell_s;
  {
    ScopedInlineParallel inline_parallel;
    for (const CellSpec& cell : spec.cells) {
      Timed span(ctx.spans, "sim.campaign.resolve_cell", 1.0);
      const CellOutcome out = resolve_cell(cell, "");
      cell_s.push_back(span.stop());
      g_sink = g_sink + static_cast<double>(out.result_json.size());
    }
  }
  double busy = 0.0;
  for (const double s : cell_s) busy += s;
  L["sim.campaign.cell_ms_p50"] = 1e3 * nearest_rank(cell_s, 0.5);
  L["sim.campaign.cell_ms_max"] = 1e3 * nearest_rank(cell_s, 1.0);
  L["sim.campaign.pool_idle_share"] =
      std::max(0.0, 1.0 - busy / (wall_n * static_cast<double>(ctx.nproc)));
  const double wall_1 = campaign_wall(1, "sim.campaign.run_campaign_1thread");
  L["common.parallel.efficiency"] =
      wall_1 / (static_cast<double>(ctx.nproc) * wall_n);
  set_parallel_threads(ctx.nproc);

  // Durable journal appends (fwrite + fflush + fsync each).
  const std::string path = ctx.tmp_path("append");
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    ctx.report.check("probe: journal file opens", false);
    return;
  }
  const CellSpec& cell = spec.cells.front();
  const std::uint64_t hash = cell.content_hash();
  const std::string result = "{\"ber\":0.01,\"per\":0.1,\"trials\":48}";
  L["sim.campaign.journal_append_us"] =
      1e6 * per_work(ctx, "sim.campaign.append_journal_record", 4, 10, 1.0,
                     [&](std::size_t) {
                       detail::append_journal_record(f, cell, hash, result);
                     });
  std::fclose(f);
}

void probe_planner_store(Context& ctx) {
  auto& L = ctx.report.layer;
  clear_cell_cache();
  const std::string journal = ctx.tmp_path("probe-plan-store");
  const FrequencyPlanRequest request =
      plan_request_for(patient_pool(ctx.seed).front());
  plan_frequencies(request, journal);  // the miss that stores the plan
  L["sim.planner.hit_us"] =
      1e6 * per_work(ctx, "sim.planner.plan_frequencies_hit", 4, 50, 1.0,
                     [&](std::size_t) {
                       g_sink =
                           g_sink + plan_frequencies(request, journal).score;
                     });
}

// --- sim.waveform, sdr, rf, tag, reader -----------------------------------

void probe_waveform(Context& ctx) {
  auto& L = ctx.report.layer;
  set_parallel_threads(1);
  const WaveformSessionConfig config = vitals_config();
  const TagConfig tag = standard_tag();
  Rng rng(derive_seed(ctx.seed, 300, 0));
  WaveformSession session(config, rng);
  std::vector<Scenario> scenarios;
  for (int k = 0; k < 6; ++k) scenarios.push_back(vitals_scenario(rng));

  // Rounds as the vitals workload runs them, each followed by the transmit
  // synthesis it contains, timed on its own: the charge window, then each
  // command (approximated by the Query envelope), every one a RadioArray
  // transmit plus the channel receive. Interleaving keeps host-speed drift
  // out of the share.
  const CibTransmitter& tx = session.transmitter();
  const std::vector<double> pie_env = gen2::pie_encode(
      gen2::QueryCommand{.q = 0}.encode(), config.pie, kFs, true);
  std::vector<Waveform> cw;
  Waveform rx;
  std::vector<double> cw_s;
  double round_total = 0.0;
  double synth_total = 0.0;
  double commands = 0.0;
  double retries = 0.0;
  for (std::size_t k = 0; k < scenarios.size(); ++k) {
    Timed round(ctx.spans, "sim.waveform.round", 1.0, k);
    session.new_trial(rng);
    const SensorReadReport r = session.run_sensor_read(
        scenarios[k], tag, static_cast<double>(k) * 10.0, rng);
    round_total += round.stop();
    const int sent = r.powered ? r.commands_sent : 0;
    commands += sent;
    retries += r.recovery.retries;

    const Channel channel = draw_scenario_channel(
        scenarios[k], tag, config.plan.num_antennas(),
        config.plan.center_hz(), rng);
    cw.clear();  // freed first, as between the session's rounds
    {
      Timed span(ctx.spans, "sdr.radio.transmit_cw", 1.0, k);
      cw = tx.transmit_cw(config.charge_time_s);
      cw_s.push_back(span.stop());
    }
    {
      Timed span(ctx.spans, "rf.receive", 1.0, k);
      rx = receive(channel, cw, config.plan.offsets_hz());
      synth_total += cw_s.back() + span.stop();
    }
    for (int c = 0; c < sent; ++c) {
      Timed span(ctx.spans, "sdr.radio.transmit_cmd", 1.0, k);
      const std::vector<Waveform> waves = tx.radios().transmit(pie_env, 0.5);
      const Waveform heard = receive(channel, waves, config.plan.offsets_hz());
      synth_total += span.stop();
      g_sink = g_sink + heard.samples[1].real();
    }
  }
  const auto rounds = static_cast<double>(scenarios.size());
  L["sim.waveform.commands_per_round"] = commands / rounds;
  L["sim.waveform.retries_per_round"] = retries / rounds;
  L["sim.waveform.transmit_share"] = synth_total / round_total;
  L["sdr.radio.transmit_ms"] = 1e3 * nearest_rank(cw_s, 0.5);

  std::vector<cplx> gains;
  for (std::size_t i = 0; i < cw.size(); ++i) {
    gains.push_back(std::polar(1.0, rng.phase()));
  }
  L["signal.waveform.accumulate_ms"] =
      1e3 * per_work(ctx, "signal.waveform.accumulate", 3, 1, 1.0,
                     [&](std::size_t) {
                       Waveform sum;
                       sum.sample_rate_hz = kFs;
                       for (std::size_t i = 0; i < cw.size(); ++i) {
                         accumulate(sum, cw[i], gains[i]);
                       }
                       g_sink = g_sink + sum.samples[3].real();
                     });

  const PowerAmplifier pa(config.radio.pa_gain_db, config.radio.pa_p1db_dbm);
  const double drive = std::sqrt(dbm_to_watts(config.radio.drive_dbm));
  std::vector<double> inputs(4096);
  for (auto& a : inputs) a = drive * rng.uniform(0.0, 1.2);
  double pa_sum = 0.0;
  L["sdr.pa.ns_per_call"] =
      1e9 * per_work(ctx, "sdr.pa.output_amplitude", 4, 1u << 18, 1.0,
                     [&](std::size_t i) {
                       pa_sum += pa.output_amplitude(inputs[i & 4095]);
                     });
  g_sink = g_sink + pa_sum;

  // The tag sees the received charge envelope (channel amplitudes carry
  // the calibration TX power, which the radio samples already include).
  std::vector<double> charge_env;
  envelope(rx, charge_env);
  const double depower = 1.0 / std::sqrt(dbm_to_watts(calib::kTxPowerDbm));
  for (double& v : charge_env) v *= depower;
  TagDevice device(tag);
  L["tag.downlink_ms"] =
      1e3 * per_work(ctx, "tag.receive_downlink", 3, 1, 1.0, [&](std::size_t) {
        device.power_loss();
        const TagDownlinkResult r = device.receive_downlink(charge_env, kFs);
        g_sink = g_sink + static_cast<double>(r.powered);
      });
  const gen2::Bits epc_reply =
      gen2::TagStateMachine(default_link_epc(), 7).epc_frame();
  std::vector<double> reflection;
  L["tag.backscatter_us"] =
      1e6 * per_work(ctx, "tag.backscatter_reflection", 4, 100, 1.0,
                     [&](std::size_t) {
                       reflection =
                           device.backscatter_reflection(epc_reply, kFs);
                     });
  const OobReader reader(config.reader);
  const Scenario& scenario = scenarios.front();
  const LinkBudget budget(antennas::mt242025(), tag.antenna, scenario.stack);
  const LinkGeometry geom{.air_distance_m = scenario.air_distance_m,
                          .depth_m = scenario.depth_m,
                          .orientation_rad = scenario.orientation_rad};
  const double round_trip = budget.power_gain(geom, config.reader.carrier_hz);
  Rng reader_rng(rng());
  L["reader.oob.decode_ms"] =
      1e3 * per_work(ctx, "reader.oob.decode", 4, 10, 1.0, [&](std::size_t) {
        g_sink = g_sink + reader.decode(reflection, round_trip, 0.0, tag.blf_hz,
                                        epc_reply.size(), reader_rng)
                              .preamble_correlation;
      });
}

// --- cib ------------------------------------------------------------------

void probe_cib(Context& ctx, Rng& rng) {
  auto& L = ctx.report.layer;
  set_parallel_threads(ctx.nproc);
  const std::size_t n = 128;
  const FlatnessConstraint constraint;
  const double cap = std::max(
      std::floor(constraint.rms_limit_hz() * std::sqrt(static_cast<double>(n))),
      static_cast<double>(n));
  std::vector<double> offsets(n);
  for (std::size_t i = 0; i < n; ++i) offsets[i] = static_cast<double>(i);
  DeltaEvalConfig eval;
  eval.mc_trials = 32;
  eval.score_seed = rng() >> 12;
  eval.steps = DeltaEnvelopeState::planner_steps(cap, eval.t_max_s);
  std::unique_ptr<DeltaEnvelopeState> state;
  L["cib.delta.build_ms"] =
      1e3 * per_work(ctx, "cib.delta.build", 1, 1, 1.0, [&](std::size_t) {
        state = std::make_unique<DeltaEnvelopeState>(offsets, eval);
      });
  L["cib.delta.state_mib"] = static_cast<double>(eval.mc_trials * eval.steps) *
                             16.0 / (1024.0 * 1024.0);
  std::vector<std::pair<std::size_t, double>> moves;
  for (int k = 0; k < 20; ++k) {
    moves.emplace_back(static_cast<std::size_t>(rng() % n),
                       std::floor(rng.uniform(0.0, cap)));
  }
  L["cib.delta.score_move_us"] =
      1e6 * per_work(ctx, "cib.delta.score_move", 2, 10, 1.0,
                     [&](std::size_t k) {
                       const auto [tone, offset] = moves[k];
                       g_sink = g_sink + state->score_move(tone, offset);
                     });
  state.reset();

  // The annealing search at N=128 with the CLI defaults, as `ivnet plan`
  // and the plan workload run it.
  const FrequencyPlanRequest request = plan_requests(ctx.seed).back();
  const std::uint64_t evals0 = counter(ctx, "planner.evals");
  const std::uint64_t accepted0 = counter(ctx, "planner.moves.accepted");
  const std::uint64_t rejected0 = counter(ctx, "planner.moves.rejected");
  OptimizerConfig config;
  config.num_antennas = request.antennas;
  config.mc_trials = request.mc_trials;
  config.restarts = request.restarts;
  config.score_seed = request.score_seed;
  AnnealConfig anneal;
  anneal.moves = request.moves;
  Rng search(request.seed);
  FrequencyOptimizer optimizer(config);
  {
    Timed span(ctx.spans, "cib.optimize_annealed", 1.0, request.antennas);
    g_sink = g_sink + optimizer.optimize_annealed(anneal, search).score;
    L["cib.anneal.s_n128"] = span.stop();
  }
  const double accepted =
      static_cast<double>(counter(ctx, "planner.moves.accepted") - accepted0);
  const double rejected =
      static_cast<double>(counter(ctx, "planner.moves.rejected") - rejected0);
  L["sim.planner.evals"] =
      static_cast<double>(counter(ctx, "planner.evals") - evals0);
  L["sim.planner.accept_ratio"] =
      accepted + rejected > 0 ? accepted / (accepted + rejected) : 0.0;

  const OptimizerConfig ts = two_stage_config(ctx.seed);
  {
    FrequencyOptimizer hill(ts);
    Rng search(derive_seed(ctx.seed, 403, 1));
    Timed span(ctx.spans, "cib.optimizer.optimize", 1.0, ts.num_antennas);
    g_sink = g_sink + hill.optimize(search).score;
    L["cib.hillclimb.s_n10"] = span.stop();
  }
  {
    TwoStageController controller(ts);
    Rng search(derive_seed(ctx.seed, 403, 2));
    Timed span(ctx.spans, "cib.two_stage.plan_steady", 1.0, ts.num_antennas);
    g_sink = g_sink + controller.plan_steady(2.5, search).objective_value;
    L["cib.two_stage.steady_s"] = span.stop();
  }
}

// --- svc, loadgen ---------------------------------------------------------

void probe_service(Context& ctx) {
  auto& L = ctx.report.layer;
  set_parallel_threads(1);
  const std::size_t workers = std::max<std::size_t>(1, ctx.nproc - 1);
  const ServeInputs inputs = serve_inputs(ctx.seed, workers, 2000, 2000);
  const std::uint64_t hits0 = counter(ctx, "planner.cache.hits");
  const std::uint64_t misses0 = counter(ctx, "planner.cache.misses");
  const ServePass pass = serve_pass(ctx, inputs);
  const double hits =
      static_cast<double>(counter(ctx, "planner.cache.hits") - hits0);
  // The set-up pre-warm misses once per pool patient; count the traffic.
  const double misses =
      static_cast<double>(counter(ctx, "planner.cache.misses") - misses0) -
      static_cast<double>(kPatientPool);
  L["sim.planner.cache_hit_ratio"] =
      hits + misses > 0 ? hits / (hits + misses) : 0.0;

  // Queue wait and service time over the open-loop phase; per-kind service
  // time over both phases (plans ride the saturation phase only).
  const std::size_t n_open = inputs.open.size();
  std::vector<double> wait_us, service_us, decode_us, inventory_us, plan_us;
  for (std::size_t i = 0; i < pass.kind.size(); ++i) {
    if (std::isnan(pass.service_s[i])) continue;
    if (i < n_open) {
      wait_us.push_back(1e6 * pass.queue_wait_s[i]);
      service_us.push_back(1e6 * pass.service_s[i]);
    }
    switch (pass.kind[i]) {
      case svc::RequestKind::kDecode:
        decode_us.push_back(1e6 * pass.service_s[i]);
        break;
      case svc::RequestKind::kInventory:
        inventory_us.push_back(1e6 * pass.service_s[i]);
        break;
      default:
        plan_us.push_back(1e6 * pass.service_s[i]);
    }
  }
  L["svc.queue_wait_us_p50"] = nearest_rank(wait_us, 0.50);
  L["svc.queue_wait_us_p99"] = nearest_rank(wait_us, 0.99);
  L["svc.service_us_p50"] = nearest_rank(service_us, 0.50);
  L["svc.service_us_p99"] = nearest_rank(service_us, 0.99);
  L["svc.decode.service_us_p50"] = nearest_rank(decode_us, 0.50);
  L["svc.inventory.service_us_p50"] = nearest_rank(inventory_us, 0.50);
  L["svc.plan.service_us_p50"] = nearest_rank(plan_us, 0.50);
  L["svc.shed"] = static_cast<double>(pass.shed);
  L["svc.inflight_peak"] = static_cast<double>(pass.inflight_peak);
  L["loadgen.late_p99_ms"] = nearest_rank(pass.late_ms, 0.99);

  // Dispatch overhead: worker service time minus the inline execution of
  // the same decode/inventory requests (plan hits and misses differ).
  const ServeReplay replay = serve_replay(inputs, pass.plan_journal, workers);
  double overhead = 0.0;
  double count = 0.0;
  for (std::size_t i = 0; i < pass.kind.size(); ++i) {
    if (pass.kind[i] == svc::RequestKind::kPlan ||
        std::isnan(pass.service_s[i])) {
      continue;
    }
    overhead += pass.service_s[i] - replay.exec_s[i];
    count += 1.0;
  }
  L["svc.dispatch_overhead_us"] = count > 0 ? 1e6 * overhead / count : 0.0;
  ctx.report.check("probe: service digest == inline replay",
                   replay.digest == pass.digest);

  svc::MpmcRingQueue<svc::Request> queue(256);
  svc::Request request;
  svc::Request out;
  L["svc.mpmc.roundtrip_ns"] =
      1e9 * per_work(ctx, "svc.mpmc.push_pop", 4, 250000, 1.0,
                     [&](std::size_t i) {
                       request.id = i;
                       queue.try_push(request);
                       queue.try_pop(out);
                     });
  g_sink = g_sink + static_cast<double>(out.id);
}

}  // namespace

void run_layer_probes(Context& ctx) {
  TraceScope scope(ctx, true);
  Rng rng(derive_seed(ctx.seed, 600, 0));
  probe_signal(ctx, rng);
  probe_gen2(ctx, rng);
  probe_impair(ctx, rng);
  probe_campaign(ctx);
  probe_planner_store(ctx);
  probe_waveform(ctx);
  probe_cib(ctx, rng);
  probe_service(ctx);
}

}  // namespace perfbench
