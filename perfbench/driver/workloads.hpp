// Input generators shared by the workloads and the per-layer probes. Every
// input is a pure function of the run seed, so a seed names one input set.
#pragma once

#include <cstdint>
#include <vector>

#include "ivnet/cib/optimizer.hpp"
#include "ivnet/sim/campaign.hpp"
#include "ivnet/sim/planner.hpp"
#include "ivnet/sim/scenario.hpp"
#include "ivnet/sim/waveform_session.hpp"
#include "ivnet/svc/loadgen.hpp"
#include "ivnet/svc/service.hpp"

namespace perfbench {

// --- sweep ----------------------------------------------------------------

/// Matrix cells of the x13-shaped campaign: 3 media x 4 SNRs x 3 arrays.
inline constexpr std::size_t kMatrixCells = 3 * 4 * 3;

/// The x13 campaign (4 burst-retry cells, 7 waterfall SNRs, 7 depths, the
/// 3 media x 4 SNRs x {1,3,10} antenna matrix) with trial counts multiplied
/// by `trial_scale` and every cell group seeded from `seed`. Cells of one
/// group share a seed, which keeps the common-random-numbers coupling x13
/// relies on (success cannot rise as SNR falls).
ivnet::CampaignSpec sweep_spec(std::uint64_t seed, std::size_t trial_scale);

/// Link sessions and raw-BER probes one evaluation of `spec` runs.
struct SweepWork {
  std::size_t sessions = 0;
  std::size_t ber_probes = 0;
  std::size_t lockstep_sessions = 0;  ///< sessions of lockstep-capable cells
};
SweepWork sweep_work(const ivnet::CampaignSpec& spec);

// --- serve ----------------------------------------------------------------

inline constexpr std::size_t kPatientPool = 8;
inline constexpr std::uint16_t kPlanAntennas = 8;

/// Offered rate of the open-loop phase [requests/s]: about 40% of the
/// closed-loop saturation of nproc-1 workers on the 4-CPU reference host
/// (8.5-10k req/s). At 65% the open-loop p99 moved between 0.9 and 5 ms
/// from run to run with the host's own load.
inline constexpr double kServeRateRps = 3500.0;

/// The request mix as an MMPP at one fixed rate: every state arrives at
/// `rate_rps`, and the state (request kind) is redrawn per arrival with
/// probabilities decode 0.85 - plan_share / inventory 0.15 / plan
/// plan_share. kPlan seeds are rewritten onto the patient pool (store
/// hits), except `new_patients` evenly spaced ones that get fresh patients
/// (store misses).
std::vector<ivnet::svc::ScheduledRequest> serve_schedule(
    std::uint64_t seed, std::uint64_t stream, std::size_t requests,
    double rate_rps, std::uint64_t first_id, double plan_share,
    std::size_t new_patients);

/// Plan-request seeds of the patient pool (pre-warmed into the store).
std::vector<std::uint64_t> patient_pool(std::uint64_t seed);

/// Service configuration for `workers` workers and a plan journal.
ivnet::svc::ServiceConfig serve_config(std::size_t workers,
                                       const std::string& plan_journal);

/// The plan request a kPlan request resolves to (mirrors execute_request).
ivnet::FrequencyPlanRequest plan_request_for(std::uint64_t patient_seed);

// --- vitals ---------------------------------------------------------------

/// `ivnet vitals` session settings: the paper's N=8 plan, a 0.2 s charge
/// window and 10 averaging periods.
ivnet::WaveformSessionConfig vitals_config();

/// One swine gastric scenario with seeded extra depth (0-2 cm) and
/// orientation (0-45 degrees).
ivnet::Scenario vitals_scenario(ivnet::Rng& rng);

// --- plan -----------------------------------------------------------------

/// The plan workload's store requests: N=10 and N=128 (CLI defaults for
/// N=128: 32 trials, 400 moves, 2 restarts).
std::vector<ivnet::FrequencyPlanRequest> plan_requests(std::uint64_t seed);

/// Hill-climb settings of the two-stage controller at N=10.
ivnet::OptimizerConfig two_stage_config(std::uint64_t seed);

}  // namespace perfbench
