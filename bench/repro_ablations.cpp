// Design-choice ablations called out in DESIGN.md:
//   1. Fixed 40 km bandwidth vs the paper's Sec. 3.1 AS-dependent rule
//      (bandwidth = max(40 km, per-AS 90th-percentile geo error)).
//   2. The geo-error filter threshold: the paper motivates ~100 km in
//      Sec. 2 but operates with 80 km in Sec. 3.1 — sweep both plus
//      tighter settings.
//   3. The PoP-selection threshold alpha (paper: 0.01).
//   4. Binned-separable KDE vs exact evaluation (numerical error).
#include <iostream>

#include "common.hpp"
#include "core/footprint.hpp"
#include "kde/estimator.hpp"
#include "util/format.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "validate/reference.hpp"
#include "validate/report.hpp"

namespace {

using namespace eyeball;

void bandwidth_rule_ablation(const bench::World& world) {
  bench::print_heading("Ablation 1 — fixed 40 km vs AS-dependent bandwidth (Sec. 3.1)");
  const core::GeoFootprintEstimator estimator;
  util::RunningStats adaptive_bw;
  std::size_t identical = 0;
  std::size_t fewer = 0;
  std::size_t more = 0;
  for (const auto& as : world.dataset.ases()) {
    const double bw = estimator.adaptive_bandwidth_km(as, 40.0);
    adaptive_bw.add(bw);
    const auto fixed_pops = world.pipeline.pop_footprint(as, 40.0).pops.size();
    const auto adaptive_pops = world.pipeline.pop_footprint(as, bw).pops.size();
    if (adaptive_pops == fixed_pops) {
      ++identical;
    } else if (adaptive_pops < fixed_pops) {
      ++fewer;
    } else {
      ++more;
    }
  }
  std::cout << "adaptive bandwidth across ASes: mean "
            << util::fixed(adaptive_bw.mean(), 1) << " km, max "
            << util::fixed(adaptive_bw.max(), 1) << " km\n"
            << "PoP count identical to fixed-40km for " << identical << " ASes, fewer for "
            << fewer << ", more for " << more << "\n"
            << "(the paper's argument: after dropping ASes with p90 error > 80 km,\n"
            << " a fixed 40 km bandwidth is a sound simplification — adaptive\n"
            << " bandwidths stay near the 40 km floor)\n";
}

void error_threshold_ablation(const bench::World& world) {
  bench::print_heading("Ablation 2 — geo-error filter threshold (80 vs 100 km)");
  util::TextTable table{{"threshold", "target ASes", "target peers", "peers dropped"}};
  for (const double threshold : {40.0, 80.0, 100.0, 160.0}) {
    core::DatasetConfig config;
    config.max_geo_error_km = threshold;
    const core::DatasetBuilder builder{world.primary, world.secondary, world.mapper,
                                       config};
    const auto dataset = builder.build(world.crawl.samples);
    table.add_row({util::fixed(threshold, 0) + " km",
                   std::to_string(dataset.stats().final_ases),
                   util::with_commas(static_cast<long long>(dataset.stats().final_peers)),
                   util::with_commas(static_cast<long long>(dataset.stats().high_error))});
  }
  std::cout << '\n' << table;
}

void alpha_ablation(const bench::World& world) {
  bench::print_heading("Ablation 3 — PoP-selection threshold alpha (paper: 0.01)");
  const auto reference = validate::build_reference_dataset(world.eco, world.gaz, 30);
  util::TextTable table{{"alpha", "avg PoPs/AS", "avg precision", "avg recall"}};
  for (const double alpha : {0.001, 0.01, 0.05, 0.2}) {
    core::FootprintConfig config;
    config.alpha = alpha;
    const core::GeoFootprintEstimator estimator{config};
    const core::PopCityMapper mapper{world.gaz};
    util::RunningStats pops_per_as;
    util::RunningStats precision;
    util::RunningStats recall;
    for (const auto& entry : reference) {
      const auto* peers = world.dataset.find(entry.asn);
      if (peers == nullptr) continue;
      const auto pops = mapper.map(estimator.estimate(*peers, 40.0));
      pops_per_as.add(static_cast<double>(pops.pops.size()));
      const auto stats =
          validate::match_pops(entry.locations(), pops.pop_locations(world.gaz), 40.0);
      precision.add(stats.candidate_precision());
      recall.add(stats.reference_recall());
    }
    table.add_row({util::fixed(alpha, 3), util::fixed(pops_per_as.mean(), 1),
                   util::percent(precision.mean()), util::percent(recall.mean())});
  }
  std::cout << '\n' << table
            << "\nReading: smaller alpha admits noise peaks (lower precision);\n"
               "larger alpha drops real secondary PoPs (lower recall).  The\n"
               "paper's 0.01 sits at the knee.\n";
}

void kde_accuracy_ablation() {
  bench::print_heading("Ablation 4 — binned separable KDE vs exact evaluation");
  util::Rng rng{8};
  std::vector<geo::GeoPoint> points;
  const geo::GeoPoint rome{41.9028, 12.4964};
  for (int i = 0; i < 3000; ++i) {
    points.push_back(geo::destination(rome, rng.uniform(0.0, 360.0),
                                      rng.uniform(0.0, 150.0)));
  }
  util::TextTable table{{"cell size", "max |binned-exact| / Dmax", "cells"}};
  for (const double cell : {2.0, 5.0, 10.0, 20.0}) {
    kde::KdeConfig config;
    config.bandwidth_km = 40.0;
    config.cell_km = cell;
    const kde::KernelDensityEstimator estimator{config};
    const auto box = estimator.padded_box(points);
    const auto fast = estimator.estimate(points, box);
    const auto exact = estimator.estimate_exact(points, box);
    double worst = 0.0;
    double dmax = 0.0;
    for (std::size_t r = 0; r < fast.rows(); ++r) {
      for (std::size_t c = 0; c < fast.cols(); ++c) {
        worst = std::max(worst, std::abs(fast.value(r, c) - exact.value(r, c)));
        dmax = std::max(dmax, exact.value(r, c));
      }
    }
    table.add_row({util::fixed(cell, 0) + " km", util::percent(worst / dmax, 2),
                   std::to_string(fast.cell_count())});
  }
  std::cout << '\n' << table
            << "\nReading: at the default 5 km cells the binned estimate tracks\n"
               "the exact sum-of-Gaussians to a small fraction of the peak.\n";
}

}  // namespace

int main() {
  const auto world = bench::World::generated(0.25, 0.12);
  bandwidth_rule_ablation(world);
  error_threshold_ablation(world);
  alpha_ablation(world);
  kde_accuracy_ablation();
  return 0;
}
