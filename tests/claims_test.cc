// The paper's claims as a gate. Each test runs one experiment of
// EXPERIMENTS.md through the function the `experiments` program runs at
// full scale, here at a reduced scale, and asserts the shapes the paper
// claims: winners, factor ranges and crossover positions. The values are
// simulated, so every assertion is exact and machine-independent.
//
// Where job startup dominates sim_s at reduced scale, a claim is stated on
// bytes, tasks or partitions. A claim that needs more data than the
// reduced scale gives runs its experiment at a larger scale, never with a
// weaker bound.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <utility>

#include "experiments.h"

namespace shadoop::bench {
namespace {

const Row& Find(const Rows& rows, std::string_view label) {
  for (const Row& row : rows) {
    if (row.label == label) return row;
  }
  std::fprintf(stderr, "no row %.*s\n", static_cast<int>(label.size()),
               label.data());
  std::abort();
}

/// The label `prefix` + the size a `full`-record dataset has at `scale`.
std::string Sized(std::string_view prefix, size_t full, double scale) {
  return std::string(prefix) + std::to_string(Scaled(full, scale));
}

constexpr std::string_view kSchemes[] = {"grid",   "str",    "str+",
                                         "quadtree", "kdtree", "zcurve",
                                         "hilbert"};

// E1. Every technique builds in the same two jobs, so the choice is
// almost free: at each size all seven are within 1.25x of each other.
// Cost grows with the input, but by less than the input grows: the two
// job startups are a floor. Grid suffers under skew: its unbalanced
// partitions make it the most expensive technique on clustered points.
TEST(ClaimsTest, E1BuildCostIsNearLinearAndGridSuffersUnderSkew) {
  constexpr double kScale = 0.25;
  const Rows rows = E1IndexBuild(kScale);
  auto build_s = [&](std::string_view scheme, std::string_view dist,
                     size_t full) {
    return Find(rows, Sized("IndexBuild/" + std::string(scheme) + "/" +
                                std::string(dist) + "/",
                            full, kScale))["sim_s"];
  };
  for (std::string_view dist : {"uniform", "clustered"}) {
    for (size_t full : {25000, 50000, 100000}) {
      double cheapest = build_s("grid", dist, full);
      double dearest = cheapest;
      for (std::string_view scheme : kSchemes) {
        cheapest = std::min(cheapest, build_s(scheme, dist, full));
        dearest = std::max(dearest, build_s(scheme, dist, full));
      }
      EXPECT_LE(dearest, 1.25 * cheapest) << dist << " " << full;
    }
    for (std::string_view scheme : kSchemes) {
      const double small = build_s(scheme, dist, 25000);
      const double large = build_s(scheme, dist, 100000);
      EXPECT_LT(small, build_s(scheme, dist, 50000)) << scheme << " " << dist;
      EXPECT_LT(build_s(scheme, dist, 50000), large) << scheme << " " << dist;
      EXPECT_LT(large, 4 * small) << scheme << " " << dist;
    }
  }
  const double grid = build_s("grid", "clustered", 100000);
  for (std::string_view scheme : kSchemes) {
    if (scheme != "grid") {
      EXPECT_GT(grid, build_s(scheme, "clustered", 100000)) << scheme;
    }
  }
}

// E2. On clustered points the space-driven techniques (grid, quad-tree)
// balance at least 1.5x worse than the sample-driven ones (STR, STR+,
// k-d, Z-curve, Hilbert). Disjoint techniques replicate rectangles that
// cross cells; single-placement ones store each record once; points
// never replicate. Disjoint cells do not overlap, while the curves'
// partition MBRs do, Z-order's more than Hilbert's.
TEST(ClaimsTest, E2SampleBasedTechniquesBalanceSkewAndDisjointOnesReplicate) {
  const Rows rows = E2IndexQuality(0.5);
  auto quality = [&](std::string_view scheme, std::string_view data,
                     std::string_view name) {
    return Find(rows, "IndexQuality/" + std::string(scheme) + "/" +
                          std::string(data))[name];
  };
  for (std::string_view space_driven : {"grid", "quadtree"}) {
    for (std::string_view sampled : {"str", "str+", "kdtree", "zcurve",
                                     "hilbert"}) {
      EXPECT_GE(quality(space_driven, "points", "balance"),
                1.5 * quality(sampled, "points", "balance"))
          << space_driven << " vs " << sampled;
    }
  }
  for (std::string_view disjoint : {"grid", "str+", "quadtree", "kdtree"}) {
    EXPECT_GT(quality(disjoint, "rectangles", "replication"), 1) << disjoint;
    EXPECT_EQ(quality(disjoint, "points", "mbr_overlap"), 0) << disjoint;
  }
  for (std::string_view single : {"str", "zcurve", "hilbert"}) {
    EXPECT_EQ(quality(single, "rectangles", "replication"), 1) << single;
  }
  for (std::string_view scheme : kSchemes) {
    EXPECT_EQ(quality(scheme, "points", "replication"), 1) << scheme;
  }
  for (std::string_view data : {"points", "rectangles"}) {
    EXPECT_GT(quality("zcurve", data, "mbr_overlap"),
              quality("hilbert", data, "mbr_overlap"))
        << data;
    EXPECT_GT(quality("hilbert", data, "mbr_overlap"), 0) << data;
  }
}

// E3. Below full coverage the indexed query beats the scan and reads
// less. At 0.01% of the area it reads one or two partitions, at most 3%
// of the scan's bytes. Its task count grows with the area until, at
// 100%, it reads every byte the scan reads at nearly the scan's cost.
TEST(ClaimsTest, E3IndexedRangeQueryPrunesAndConvergesToTheScan) {
  const Rows rows = E3RangeQuery(0.25);
  double previous_tasks = 0;
  for (int area : {1, 10, 100, 500, 2000, 10000}) {
    const Row& scan = Find(rows, "RangeHadoop/" + std::to_string(area));
    const Row& indexed = Find(rows, "RangeSpatial/" + std::to_string(area));
    EXPECT_EQ(indexed["results"], scan["results"]) << area;
    if (area < 10000) {
      EXPECT_LT(indexed["sim_s"], scan["sim_s"]) << area;
      EXPECT_LT(indexed["MB_read"], scan["MB_read"]) << area;
    }
    EXPECT_GE(indexed["map_tasks"], previous_tasks) << area;
    previous_tasks = indexed["map_tasks"];
  }
  const Row& smallest = Find(rows, "RangeSpatial/1");
  EXPECT_LE(smallest["map_tasks"], 2);
  EXPECT_LE(smallest["MB_read"], 0.03 * Find(rows, "RangeHadoop/1")["MB_read"]);
  const Row& scan_all = Find(rows, "RangeHadoop/10000");
  const Row& indexed_all = Find(rows, "RangeSpatial/10000");
  EXPECT_EQ(indexed_all["MB_read"], scan_all["MB_read"]);
  EXPECT_NEAR(indexed_all["sim_s"] / scan_all["sim_s"], 1, 0.05);
}

// E4. The indexed kNN reads at most 4 partitions at any input size, so
// its cost stays within 5% while the scan's grows with the input. The
// scan wins on 50k points and the index on 400k: the crossover lies
// inside the sweep, which needs the full sizes. Growing k from 1 to 1000
// raises the indexed cost by a smaller factor than the scan's.
TEST(ClaimsTest, E4IndexedKnnIsFlatInSizeAndOvertakesTheScan) {
  constexpr double kScale = 1;
  const Rows rows = E4Knn(kScale);
  auto at_k10 = [&](std::string_view name, size_t full) -> const Row& {
    return Find(rows, Sized(std::string(name) + "/10/", full, kScale));
  };
  const size_t sizes[] = {50000, 100000, 200000, 400000};
  double cheapest = at_k10("KnnSpatial", sizes[0])["sim_s"];
  double dearest = cheapest;
  for (size_t i = 0; i < 4; ++i) {
    const Row& indexed = at_k10("KnnSpatial", sizes[i]);
    EXPECT_LE(indexed["map_tasks"], 4) << sizes[i];
    cheapest = std::min(cheapest, indexed["sim_s"]);
    dearest = std::max(dearest, indexed["sim_s"]);
    if (i > 0) {
      EXPECT_GT(at_k10("KnnHadoop", sizes[i])["sim_s"],
                at_k10("KnnHadoop", sizes[i - 1])["sim_s"])
          << sizes[i];
    }
  }
  EXPECT_LE(dearest, 1.05 * cheapest);
  const Row& scan_small = at_k10("KnnHadoop", 50000);
  const Row& scan_large = at_k10("KnnHadoop", 400000);
  EXPECT_GE(scan_large["map_tasks"], 7 * scan_small["map_tasks"]);
  EXPECT_LT(scan_small["sim_s"], at_k10("KnnSpatial", 50000)["sim_s"]);
  EXPECT_LT(at_k10("KnnSpatial", 400000)["sim_s"], scan_large["sim_s"]);

  auto growth_in_k = [&](std::string_view name) {
    const std::string n = "/" + std::to_string(Scaled(200000, kScale));
    return Find(rows, std::string(name) + "/1000" + n)["sim_s"] /
           Find(rows, std::string(name) + "/1" + n)["sim_s"];
  };
  EXPECT_LT(growth_in_k("KnnSpatial"), growth_in_k("KnnHadoop"));
}

// E5. At every size the distributed join runs one map-only job that
// shuffles 0 bytes, and beats SJMR (three jobs, a full repartition) by
// at least 3x over either index; all three find the same pairs.
TEST(ClaimsTest, E5DistributedJoinShufflesNothingAndBeatsSjmr) {
  constexpr double kScale = 0.25;
  const Rows rows = E5SpatialJoin(kScale);
  for (size_t full : {20000, 40000, 80000}) {
    const Row& sjmr = Find(rows, Sized("JoinSjmr/", full, kScale));
    EXPECT_GT(sjmr["MB_shuffled"], 0) << full;
    EXPECT_EQ(sjmr["jobs"], 3) << full;
    for (std::string_view dj : {"JoinDjStr/", "JoinDjQuadTree/"}) {
      const Row& join = Find(rows, Sized(dj, full, kScale));
      EXPECT_EQ(join["results"], sjmr["results"]) << join.label;
      EXPECT_EQ(join["MB_shuffled"], 0) << join.label;
      EXPECT_EQ(join["jobs"], 1) << join.label;
      EXPECT_GE(sjmr["sim_s"], 3 * join["sim_s"]) << join.label;
    }
  }
}

// E6. For skyline and convex hull, Hadoop's parallel scan beats the
// single-machine algorithm by at least 5x, and the index does better
// still by pruning: the skyline reads at most 2% and the hull at most 15%
// of the partitions the scan reads. These ratios need the full sizes.
// The pair-based farthest pair loses to the hull route on compact data,
// and the gap narrows on the circular worst case, where its filter keeps
// fewer pairs. Hadoop's union is slower than one machine (one reducer
// merges everything); the enhanced union shuffles nothing and beats both.
TEST(ClaimsTest, E6PruningCarriesSpatialHadoopPastHadoop) {
  const Rows rows = E6CgOps(1);
  auto sim_s = [&](std::string_view label) {
    return Find(rows, label)["sim_s"];
  };
  auto tasks = [&](std::string_view label) {
    return Find(rows, label)["map_tasks"];
  };
  for (std::string op : {"Skyline", "ConvexHull"}) {
    EXPECT_GE(sim_s(op + "SingleMachine"), 5 * sim_s(op + "Hadoop")) << op;
    EXPECT_LT(sim_s(op + "Spatial"), sim_s(op + "Hadoop")) << op;
  }
  EXPECT_LE(tasks("SkylineSpatial"), 0.02 * tasks("SkylineHadoop"));
  EXPECT_LE(tasks("ConvexHullSpatial"), 0.15 * tasks("ConvexHullHadoop"));
  EXPECT_LT(sim_s("ClosestPairSpatial"), sim_s("ClosestPairSingleMachine"));

  EXPECT_GT(sim_s("FarthestPairSpatial"), sim_s("FarthestPairHadoop"));
  EXPECT_LT(sim_s("FarthestPairSpatialCircular") /
                sim_s("FarthestPairHadoopCircular"),
            sim_s("FarthestPairSpatial") / sim_s("FarthestPairHadoop"));
  EXPECT_LT(tasks("FarthestPairSpatialCircular"), tasks("FarthestPairSpatial"));

  EXPECT_GT(sim_s("UnionHadoop"), sim_s("UnionSingleMachine"));
  EXPECT_LT(sim_s("UnionSpatialEnhanced"), sim_s("UnionSingleMachine"));
  EXPECT_EQ(Find(rows, "UnionSpatialEnhanced")["MB_shuffled"], 0);
}

// E7. The full scan speeds up near-linearly, at 70% efficiency or better
// up to 16 slots; the 167 tasks of the full input are needed to keep 16
// slots busy. More slots never cost more, for any of the three workloads.
TEST(ClaimsTest, E7ScanScalesOutNearLinearlyTo16Slots) {
  const Rows rows = E7Scaleout(1);
  auto sim_s = [&](const std::string& name, int slots) {
    return Find(rows, name + "/" + std::to_string(slots))["sim_s"];
  };
  for (int slots : {2, 4, 8, 16}) {
    EXPECT_GE(sim_s("ScanScaleout", 1) / sim_s("ScanScaleout", slots),
              0.7 * slots)
        << slots;
  }
  for (std::string name : {"ScanScaleout", "JoinScaleout", "SkylineScaleout"}) {
    for (int slots : {2, 4, 8, 16, 32}) {
      EXPECT_LE(sim_s(name, slots), sim_s(name, slots / 2)) << name << slots;
    }
  }
}

// E8. The build is cheapest at an interior block size: tiny blocks pay a
// task startup per partition, huge ones a long partition job. A
// selective query costs more as blocks grow, since its one partition
// over-covers the query, and the partition count falls with every step.
TEST(ClaimsTest, E8BlockSizeHasABuildSweetSpotAndHugeBlocksPrunePoorly) {
  const Rows rows = E8BlockSize(0.25);
  const int kib[] = {4, 16, 64, 256, 1024};
  auto row = [&](int i) -> const Row& {
    return Find(rows, "BlockSize/" + std::to_string(kib[i]));
  };
  const double interior = std::min(
      {row(1)["build_sim_s"], row(2)["build_sim_s"], row(3)["build_sim_s"]});
  EXPECT_LT(interior, row(0)["build_sim_s"]);
  EXPECT_LT(interior, row(4)["build_sim_s"]);
  for (int i = 1; i < 5; ++i) {
    EXPECT_GE(row(i)["sim_s"], row(i - 1)["sim_s"]) << kib[i];
    EXPECT_LT(row(i)["partitions"], row(i - 1)["partitions"]) << kib[i];
  }
  EXPECT_LT(row(0)["sim_s"], row(4)["sim_s"]);
}

// E9. The same query through Pigeon and through the C++ API costs the
// same simulated time and jobs: the language adds no cluster work.
TEST(ClaimsTest, E9PigeonAddsNoSimulatedCost) {
  const Rows rows = E9Pigeon(0.1);
  const Row& api = Find(rows, "RangeViaApi");
  const Row& pigeon = Find(rows, "RangeViaPigeon");
  EXPECT_EQ(pigeon["sim_s"], api["sim_s"]);
  EXPECT_EQ(pigeon["jobs"], api["jobs"]);
}

// E10. At every image size the indexed plot beats Hadoop's: it runs one
// job instead of two (no MBR scan), reads exactly half the bytes and, its
// partitions being spatially clustered, shuffles fewer pixels. A pyramid
// is one job whatever its depth; its cost and tiles grow with the levels.
TEST(ClaimsTest, E10IndexedPlotScansOnceAndShufflesLess) {
  const Rows rows = E10Plot(0.1);
  for (int pixels : {256, 512, 1024}) {
    const Row& hadoop = Find(rows, "PlotHadoop/" + std::to_string(pixels));
    const Row& indexed = Find(rows, "PlotSpatial/" + std::to_string(pixels));
    EXPECT_LT(indexed["sim_s"], hadoop["sim_s"]) << pixels;
    EXPECT_EQ(hadoop["jobs"], 2) << pixels;
    EXPECT_EQ(indexed["jobs"], 1) << pixels;
    EXPECT_EQ(2 * indexed["MB_read"], hadoop["MB_read"]) << pixels;
    EXPECT_LT(indexed["MB_shuffled"], hadoop["MB_shuffled"]) << pixels;
  }
  for (int levels : {1, 3, 5}) {
    const Row& pyramid = Find(rows, "PlotPyramid/" + std::to_string(levels));
    EXPECT_EQ(pyramid["jobs"], 1) << levels;
    if (levels > 1) {
      const Row& lower =
          Find(rows, "PlotPyramid/" + std::to_string(levels - 2));
      EXPECT_GT(pyramid["sim_s"], lower["sim_s"]) << levels;
      EXPECT_GT(pyramid["tiles"], lower["tiles"]) << levels;
    }
  }
}

// E11. The scan's COUNT costs the same (within 1%) at every coverage. The
// index answers covered partitions from the master file and reads only
// the boundary ones, so it reads less at every coverage, its task count
// peaks in the middle, and the full-coverage query reads 1 partition.
TEST(ClaimsTest, E11CountReadsOnlyBoundaryPartitions) {
  const Rows rows = E11Aggregate(0.25);
  const double scan_at_1 = Find(rows, "CountHadoop/1")["sim_s"];
  double middle_tasks = 0;
  for (int percent : {1, 10, 50, 90, 100}) {
    const Row& scan = Find(rows, "CountHadoop/" + std::to_string(percent));
    const Row& indexed = Find(rows, "CountSpatial/" + std::to_string(percent));
    EXPECT_EQ(indexed["count"], scan["count"]) << percent;
    EXPECT_LT(indexed["MB_read"], scan["MB_read"]) << percent;
    EXPECT_NEAR(scan["sim_s"] / scan_at_1, 1, 0.01) << percent;
    if (percent != 1 && percent != 100) {
      middle_tasks = std::max(middle_tasks, indexed["map_tasks"]);
    }
  }
  const Row& full = Find(rows, "CountSpatial/100");
  EXPECT_EQ(full["map_tasks"], 1);
  EXPECT_GT(middle_tasks, Find(rows, "CountSpatial/1")["map_tasks"]);
  EXPECT_GT(middle_tasks, full["map_tasks"]);
}

// E12. (a) Sampling below 1% degrades STR's balance: at 0.01% and 0.1%
// it is at least 2x the balance at 1%, 2% or 10%. (b) Without map-side
// local pruning the skyline shuffles every byte it reads, at least 100x
// the pruned shuffle, and costs at least 10x as much. (c) A replicating
// index reads more and deduplicates; a single-copy one deduplicates
// nothing; both return the same rows. (d) Persisted local indexes cost
// header bytes and return the same rows. (e) Both join kernels find the
// same pairs at the same cost. (f) Histogram balancing shortens SJMR's
// reduce makespan but its two extra jobs cost more than they save.
TEST(ClaimsTest, E12Ablations) {
  const Rows rows = E12Ablation(0.5);
  auto value = [&](std::string_view label, std::string_view name) {
    return Find(rows, label)[name];
  };
  const double coarse = std::min(value("SampleRatio/10", "balance"),
                                 value("SampleRatio/100", "balance"));
  const double fine = std::max({value("SampleRatio/1000", "balance"),
                                value("SampleRatio/2000", "balance"),
                                value("SampleRatio/10000", "balance")});
  EXPECT_GE(coarse, 2 * fine);

  const Row& pruned = Find(rows, "SkylineWithLocalPruning");
  const Row& naive = Find(rows, "SkylineWithoutLocalPruning");
  EXPECT_EQ(naive["MB_shuffled"], naive["MB_read"]);
  EXPECT_GE(naive["MB_shuffled"], 100 * pruned["MB_shuffled"]);
  EXPECT_GE(naive["sim_s"], 10 * pruned["sim_s"]);

  const Row& replicated = Find(rows, "RangeOverReplicatedIndex");
  const Row& single_copy = Find(rows, "RangeOverSingleCopyIndex");
  EXPECT_EQ(replicated["results"], single_copy["results"]);
  EXPECT_GT(replicated["MB_read"], single_copy["MB_read"]);
  EXPECT_GT(replicated["deduplicated"], 0);
  EXPECT_EQ(single_copy["deduplicated"], 0);

  EXPECT_EQ(value("RangeWithPersistedLocalIndex", "results"),
            value("RangeWithoutLocalIndex", "results"));
  EXPECT_GT(value("RangeWithPersistedLocalIndex", "MB_read"),
            value("RangeWithoutLocalIndex", "MB_read"));

  EXPECT_EQ(value("JoinKernelPlaneSweep", "results"),
            value("JoinKernelRTreeProbe", "results"));
  EXPECT_NEAR(value("JoinKernelPlaneSweep", "sim_s") /
                  value("JoinKernelRTreeProbe", "sim_s"),
              1, 1e-4);

  const Row& uniform = Find(rows, "SjmrUniformGridOnSkew");
  const Row& balanced = Find(rows, "SjmrHistogramBalancedOnSkew");
  EXPECT_EQ(balanced["results"], uniform["results"]);
  EXPECT_LT(balanced["reduce_makespan_s"], uniform["reduce_makespan_s"]);
  EXPECT_EQ(balanced["jobs"], uniform["jobs"] + 2);
  EXPECT_GT(balanced["sim_s"], uniform["sim_s"]);
}

// E13. The kNN join is two map-only jobs (bound, then verify) returning k
// answers per record of A. Its cost grows with k, while the verify
// round's reads barely do (within 10% from k = 1 to 16): the bounds keep
// it off the all-pairs product. Quadrupling |A| less than doubles the
// cost, as the two job startups amortize.
TEST(ClaimsTest, E13KnnJoinBoundsKeepVerifyReadsFlat) {
  constexpr double kScale = 0.25;
  const Rows rows = E13KnnJoin(kScale);
  auto row = [&](size_t k, size_t full) -> const Row& {
    return Find(rows,
                Sized("KnnJoin/" + std::to_string(k) + "/", full, kScale));
  };
  const std::pair<size_t, size_t> args[] = {
      {1, 20000}, {4, 20000}, {16, 20000}, {4, 10000}, {4, 40000}};
  for (const auto& [k, full] : args) {
    const Row& join = row(k, full);
    EXPECT_EQ(join["results"], k * Scaled(full, kScale)) << join.label;
    EXPECT_EQ(join["jobs"], 2) << join.label;
    EXPECT_EQ(join["MB_shuffled"], 0) << join.label;
  }
  EXPECT_LT(row(1, 20000)["sim_s"], row(4, 20000)["sim_s"]);
  EXPECT_LT(row(4, 20000)["sim_s"], row(16, 20000)["sim_s"]);
  EXPECT_LE(row(16, 20000)["MB_read"], 1.1 * row(1, 20000)["MB_read"]);
  EXPECT_LT(row(4, 40000)["sim_s"], 2 * row(4, 10000)["sim_s"]);
}

}  // namespace
}  // namespace shadoop::bench
