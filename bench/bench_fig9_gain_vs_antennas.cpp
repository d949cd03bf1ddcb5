// Fig. 9 — Peak power gain vs number of antennas: 150 blind-channel trials
// per antenna count in the Fig. 7 tank setup, reporting median / p10 / p90
// of the nominal power gain over a single antenna. Paper: monotonic growth
// reaching ~85x at 10 antennas (short of the N^2 = 100 optimum because the
// frequency set cannot guarantee perfect alignment, Fig. 6).
//
// Runs on the sweep-campaign engine: one "gain" cell per antenna count,
// sharded across the thread pool and memoized process-wide. Pass a journal
// path as argv[1] to checkpoint the run (kill it, rerun, and only the
// missing cells recompute). To split the campaign across worker processes,
// use `ivnet campaign run --bench fig9 --shards N`.
#include <cstdio>

#include "ivnet/common/json.hpp"
#include "ivnet/sim/campaign.hpp"

int main(int argc, char** argv) {
  using namespace ivnet;

  const CampaignReport report =
      run_campaign(fig9_campaign(), {argc > 1 ? argv[1] : ""});

  std::printf("=== Fig. 9: gain vs number of antennas (%.0f trials each) "
              "===\n",
              report.outcomes[0].spec.param_num("trials", 0.0));
  std::printf("paper: monotonic, ~85x at N = 10; cannot reach N^2\n\n");
  std::printf("%-10s %-12s %-12s %-12s %s\n", "antennas", "p10", "median",
              "p90", "N^2 bound");

  double g1 = 1.0, g10 = 1.0;
  for (const auto& outcome : report.outcomes) {
    const auto n =
        static_cast<std::size_t>(outcome.spec.param_num("antennas", 0.0));
    const double p50 = json_find_number(outcome.result_json, "p50", 0.0);
    if (n == 1) g1 = p50;
    if (n == 10) g10 = p50;
    std::printf("%-10zu %-12.1f %-12.1f %-12.1f %zu\n", n,
                json_find_number(outcome.result_json, "p10", 0.0), p50,
                json_find_number(outcome.result_json, "p90", 0.0), n * n);
  }
  std::printf("\nmeasured median at N=10: %.1fx over a single antenna "
              "(paper: ~85x)\n", g1 > 0.0 ? g10 / g1 : 0.0);
  std::printf("campaign: %zu cells (%zu computed, %zu resumed, %zu cache "
              "hits)\n",
              report.cells_total, report.cells_computed, report.cells_resumed,
              report.cache_hits);
  return 0;
}
