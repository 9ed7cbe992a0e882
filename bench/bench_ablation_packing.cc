// Ablation ABL-1 (DESIGN.md): how much does the bottom tier's cutting-stock
// ILP matter? Compares three SCC packing strategies — the paper's ILP
// (column generation + branch-and-bound), first-fit-decreasing, and no
// packing at all — on the SCC multisets the top tier produces on both
// datasets across thresholds.
#include "bench/bench_common.h"
#include "common/timer.h"
#include "hitgen/two_tiered_generator.h"

namespace crowder {
namespace bench {
namespace {

void RunDataset(const data::Dataset& dataset) {
  Banner("Ablation: SCC packing strategy (k=10) — " + dataset.name);
  eval::TablePrinter table({"Threshold", "#SCCs", "ILP bins", "FFD bins", "no packing",
                            "LP bound", "ILP optimal?"});
  for (double threshold : {0.4, 0.3, 0.2, 0.1}) {
    const auto pairs = MachinePairs(dataset, threshold);
    graph::PairGraph graph = BuildGraph(dataset, pairs);

    // Top tier only: collect the SCC multiset.
    hitgen::TopTier tier = hitgen::DecomposeTopTier(&graph, 10);
    std::vector<std::vector<uint32_t>> sccs = std::move(tier.small);
    for (auto& part : tier.parts) sccs.push_back(std::move(part));

    // Bottom tier under each strategy.
    hitgen::PackingOptions ilp;
    hitgen::PackingOptions ffd;
    ffd.strategy = hitgen::PackingStrategy::kFfd;
    hitgen::PackingOptions none;
    none.strategy = hitgen::PackingStrategy::kNone;

    const auto ilp_hits = hitgen::PackSccs(sccs, 10, ilp).ValueOrDie();
    const auto ffd_hits = hitgen::PackSccs(sccs, 10, ffd).ValueOrDie();
    const auto none_hits = hitgen::PackSccs(sccs, 10, none).ValueOrDie();

    // LP bound, re-derived for the report.
    std::vector<uint32_t> demands(10, 0);
    for (const auto& scc : sccs) ++demands[scc.size() - 1];
    const auto cs = lp::SolveCuttingStock(10, demands).ValueOrDie();

    table.AddRow({FormatDouble(threshold, 1), WithThousands(sccs.size()),
                  WithThousands(ilp_hits.size()), WithThousands(ffd_hits.size()),
                  WithThousands(none_hits.size()), FormatDouble(cs.lp_bound, 1),
                  cs.proven_optimal ? "yes" : "no"});
  }
  std::cout << table.Render();
}

}  // namespace
}  // namespace bench
}  // namespace crowder

int main() {
  crowder::WallTimer timer;
  crowder::bench::RunDataset(crowder::bench::Restaurant());
  crowder::bench::RunDataset(crowder::bench::Product());
  std::cout << "\nReading: packing compresses the HIT count substantially versus"
               "\n'no packing'; FFD already sits at (or within one bin of) the LP"
               "\nbound on these size distributions, which is why the ILP matches"
               "\nrather than beats it — the paper's ILP machinery guarantees that"
               "\noutcome instead of hoping for it.\n";
  std::cout << "\n[ablation_packing done in " << crowder::FormatDouble(timer.ElapsedSeconds(), 1)
            << "s]\n";
  return 0;
}
