// X13 — Impairment waterfall and recovery ablation: BER/PER vs SNR through
// the impairment chain, session success across the media x SNR x antenna
// matrix, and what reader-side retries buy back on a bursty channel. This
// is the experiment the impair/ layer exists for: quantifying how far the
// clean-channel link budget degrades before the Gen2 session collapses,
// and how much of the loss is recoverable in the reader alone.
//
// Runs on the sweep-campaign engine (one cell per sweep point) with the
// metrics registry installed, so the snapshot now carries the campaign
// counters (cells computed/resumed, cache hits, per-cell latency) next to
// the session aggregates. Writes the snapshot to BENCH_x13_metrics.json or
// the path in argv[1]; pass a journal path as argv[2] to checkpoint. `ivnet
// campaign run --bench x13 --shards N` splits the campaign across worker
// processes over per-shard journals (merged output stays byte-identical).
#include <cstdio>
#include <string>

#include "ivnet/common/json.hpp"
#include "ivnet/obs/obs.hpp"
#include "ivnet/sim/campaign.hpp"

namespace {

using namespace ivnet;

double num(const CellOutcome& outcome, const char* key) {
  return json_find_number(outcome.result_json, key, 0.0);
}

// Cell layout (see x13_campaign): 7 waterfall SNR points, then the
// 3 media x 4 SNR x 3 antenna matrix, 4 retry-ablation points, 7 depths.
constexpr std::size_t kWaterfallCells = 7;
constexpr std::size_t kMatrixSnrs = 4;
constexpr std::size_t kMatrixAntennas = 3;
constexpr std::size_t kMatrixCells = 3 * kMatrixSnrs * kMatrixAntennas;
constexpr std::size_t kRetryCells = 4;

void print_waterfall(const CampaignReport& report) {
  std::printf("--- BER/PER waterfall (FM0 uplink, 128-bit frames) ---\n");
  std::printf("%-10s %-12s %-12s %-12s %-10s\n", "SNR [dB]", "BER", "PER",
              "session", "retries");
  for (std::size_t i = 0; i < kWaterfallCells; ++i) {
    const auto& outcome = report.outcomes[i];
    std::printf("%-10.1f %-12.4f %-12.3f %-12.3f %-10.2f\n",
                outcome.spec.param_num("snr_db", 0.0), num(outcome, "ber"),
                num(outcome, "per"), num(outcome, "session_success"),
                num(outcome, "mean_retries"));
  }
}

void print_matrix(const CampaignReport& report) {
  std::printf("\n--- session success: media x SNR x antennas (retries=2) "
              "---\n");
  std::printf("%-10s %-10s  N=1       N=3       N=10\n", "medium",
              "SNR [dB]");
  for (std::size_t row = 0; row < kMatrixCells / kMatrixAntennas; ++row) {
    const std::size_t base = kWaterfallCells + row * kMatrixAntennas;
    const auto& first = report.outcomes[base];
    std::printf("%-10s %-10.1f",
                first.spec.param("medium", "?").c_str(),
                first.spec.param_num("snr_db", 0.0));
    for (std::size_t k = 0; k < kMatrixAntennas; ++k) {
      std::printf("  %-9.2f", num(report.outcomes[base + k], "success_rate"));
    }
    std::printf("\n");
  }
}

void print_retry_ablation(const CampaignReport& report) {
  std::printf("\n--- retry ablation on a bursty channel (SNR 30 dB, "
              "150 bursts/s) ---\n");
  std::printf("%-10s %-10s %-10s %-10s\n", "retries", "success", "timeouts",
              "backoff[ms]");
  const std::size_t base = kWaterfallCells + kMatrixCells;
  for (std::size_t i = 0; i < kRetryCells; ++i) {
    const auto& outcome = report.outcomes[base + i];
    std::printf("%-10.0f %-10.3f %-10.2f %-10.2f\n",
                outcome.spec.param_num("retries", 0.0),
                num(outcome, "success"), num(outcome, "timeouts"),
                num(outcome, "backoff_ms"));
  }
}

void print_depth_curve(const CampaignReport& report) {
  std::printf("\n--- session success vs muscle depth (10 antennas, "
              "retries=1) ---\n");
  std::printf("%-10s %-12s %-10s\n", "depth [m]", "loss [dB]", "success");
  const std::size_t base = kWaterfallCells + kMatrixCells + kRetryCells;
  for (std::size_t i = base; i < report.outcomes.size(); ++i) {
    const auto& outcome = report.outcomes[i];
    std::printf("%-10.2f %-12.1f %-10.3f\n",
                outcome.spec.param_num("depth_m", 0.0),
                num(outcome, "loss_db"), num(outcome, "success_rate"));
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::string metrics_path =
      argc > 1 ? argv[1] : "BENCH_x13_metrics.json";
  obs::MetricsRegistry registry;
  obs::install(obs::Sink{.metrics = &registry});

  const CampaignReport report =
      run_campaign(x13_campaign(), {argc > 2 ? argv[2] : ""});

  std::printf("=== X13: impairment waterfall and reader recovery ===\n\n");
  print_waterfall(report);
  print_matrix(report);
  print_retry_ablation(report);
  print_depth_curve(report);
  std::printf("\ncampaign: %zu cells (%zu computed, %zu resumed, %zu cache "
              "hits)\n",
              report.cells_total, report.cells_computed, report.cells_resumed,
              report.cache_hits);

  obs::install_null();
  std::FILE* f = std::fopen(metrics_path.c_str(), "w");
  if (f != nullptr) {
    const std::string snap = registry.snapshot_json();
    std::fwrite(snap.data(), 1, snap.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("wrote %s\n", metrics_path.c_str());
  }
  return 0;
}
