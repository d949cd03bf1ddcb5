// Fig. 13 — Range vs number of antennas, four panels: standard / miniature
// tag x air / water. Paper anchors: standard tag 5.2 m -> 38 m in air
// (7.6x); standard tag 23 cm and miniature tag 11 cm depth in water with 8
// antennas; without CIB neither tag powers up in water; depth grows
// logarithmically with antenna count.
//
// Runs on the sweep-campaign engine: 4 "range" cells per antenna count plus
// the two water-tank gain anchors Fig. 9 also sweeps — identical CellSpecs,
// so when both benches run in one process the anchors evaluate once (memo
// cache). Pass a journal path as argv[1] to checkpoint the run; `ivnet
// campaign run --bench fig13 --shards N` splits it across worker processes.
#include <cstdio>

#include "ivnet/common/json.hpp"
#include "ivnet/sim/campaign.hpp"

int main(int argc, char** argv) {
  using namespace ivnet;

  const CampaignReport report =
      run_campaign(fig13_campaign(), {argc > 1 ? argv[1] : ""});

  // Cell layout (see fig13_campaign): for n in 1..8 the four panels in
  // order std-air, mini-air, std-water, mini-water; then the gain anchors.
  const auto range_m = [&](std::size_t n, std::size_t panel) {
    const auto& outcome = report.outcomes[(n - 1) * 4 + panel];
    return json_find_number(outcome.result_json, "max_m", 0.0);
  };

  std::printf("=== Fig. 13: maximum operating range vs antenna count ===\n\n");
  std::printf("%-10s %-16s %-16s %-18s %s\n", "antennas", "std air [m]",
              "mini air [m]", "std water [cm]", "mini water [cm]");
  for (std::size_t n = 1; n <= 8; ++n) {
    std::printf("%-10zu %-16.1f %-16.2f %-18.1f %.1f\n", n, range_m(n, 0),
                range_m(n, 1), range_m(n, 2) * 100.0, range_m(n, 3) * 100.0);
  }

  std::printf("\npaper vs measured (8 antennas):\n");
  std::printf("  standard tag air range: paper 5.2 m -> 38 m (7.6x) | "
              "measured %.1f m -> %.1f m (%.1fx)\n",
              range_m(1, 0), range_m(8, 0),
              range_m(1, 0) > 0 ? range_m(8, 0) / range_m(1, 0) : 0.0);
  std::printf("  standard tag water depth: paper 23 cm | measured %.1f cm\n",
              range_m(8, 2) * 100.0);
  std::printf("  miniature tag water depth: paper 11 cm | measured %.1f cm\n",
              range_m(8, 3) * 100.0);
  std::printf("  miniature tag, 1 antenna, in water: paper 'cannot be "
              "powered up' | measured %.1f cm\n",
              range_m(1, 3) * 100.0);

  const auto& gain1 = report.outcomes[32];
  const auto& gain8 = report.outcomes[33];
  std::printf("  water-tank gain anchors (cells shared with Fig. 9): "
              "N=1 p50 %.1f, N=8 p50 %.1f\n",
              json_find_number(gain1.result_json, "p50", 0.0),
              json_find_number(gain8.result_json, "p50", 0.0));
  std::printf("campaign: %zu cells (%zu computed, %zu resumed, %zu cache "
              "hits)\n",
              report.cells_total, report.cells_computed, report.cells_resumed,
              report.cache_hits);
  return 0;
}
