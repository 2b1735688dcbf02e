// Unit tests for the cost-based optimizer (DESIGN.md §15): the simulated
// cost model, the partitioning advisor, and the executor integration
// (plan log, EXPLAIN `; plan:` segment, `SET optimizer off` parity, plan
// fingerprints). Every fixture is synthetic and deterministic — plan
// choices must be identical across reruns and machines.
#include "optimizer/optimizer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/spatial_join.h"
#include "optimizer/cost_model.h"
#include "optimizer/partitioning_advisor.h"
#include "pigeon/executor.h"
#include "pigeon/parser.h"
#include "test_util.h"

namespace shadoop::optimizer {
namespace {

index::Partition MakePartition(int id, const Envelope& box, size_t records,
                               size_t bytes) {
  index::Partition p;
  p.id = id;
  p.block_index = static_cast<size_t>(id);
  p.cell = box;
  p.mbr = box;
  p.num_records = records;
  p.num_bytes = bytes;
  return p;
}

index::SpatialFileInfo MakeFile(index::PartitionScheme scheme,
                                index::ShapeType shape,
                                std::vector<index::Partition> partitions) {
  index::SpatialFileInfo info;
  info.data_path = "/synthetic";
  info.shape = shape;
  info.global_index = index::GlobalIndex(scheme, std::move(partitions));
  return info;
}

/// `count` partitions side by side on the x axis: partition i covers
/// [i, 0, i+1, 1]. Pairing two such files yields exactly one overlapping
/// pair per partition (plus boundary touches).
std::vector<index::Partition> DisjointStrip(int count, size_t records,
                                            size_t bytes) {
  std::vector<index::Partition> parts;
  for (int i = 0; i < count; ++i) {
    parts.push_back(MakePartition(i, Envelope(i, 0, i + 0.9, 1), records,
                                  bytes));
  }
  return parts;
}

/// `count` partitions all covering the same unit square — every A x B
/// pair overlaps, the worst case for the pairwise distributed join.
std::vector<index::Partition> OverlappingPile(int count, size_t records,
                                              size_t bytes) {
  std::vector<index::Partition> parts;
  for (int i = 0; i < count; ++i) {
    parts.push_back(MakePartition(i, Envelope(0, 0, 1, 1), records, bytes));
  }
  return parts;
}

mapreduce::ClusterConfig DefaultCluster() { return {}; }

// ---------------------------------------------------------------------------
// Selectivity estimation

TEST(Selectivity, FullCoverageAndDisjointExtremes) {
  const index::SpatialFileInfo file = MakeFile(
      index::PartitionScheme::kStr, index::ShapeType::kPoint,
      DisjointStrip(4, 100, 4096));
  EXPECT_DOUBLE_EQ(
      EstimateSelectivity(file.global_index, Envelope(-1, -1, 10, 2)), 1.0);
  EXPECT_DOUBLE_EQ(
      EstimateSelectivity(file.global_index, Envelope(50, 50, 60, 60)), 0.0);
}

TEST(Selectivity, PartialCoverageScalesByArea) {
  // One unit-square partition, query covering its left half.
  const index::SpatialFileInfo file =
      MakeFile(index::PartitionScheme::kStr, index::ShapeType::kPoint,
               {MakePartition(0, Envelope(0, 0, 1, 1), 100, 4096)});
  const double sel =
      EstimateSelectivity(file.global_index, Envelope(0, 0, 0.5, 1));
  EXPECT_NEAR(sel, 0.5, 1e-9);
}

TEST(Selectivity, DegenerateAxisCountsAsCovered) {
  // A zero-height partition (all records on one horizontal line): any
  // intersecting query covers the degenerate axis fully.
  const index::SpatialFileInfo file =
      MakeFile(index::PartitionScheme::kStr, index::ShapeType::kPoint,
               {MakePartition(0, Envelope(0, 5, 10, 5), 100, 4096)});
  const double sel =
      EstimateSelectivity(file.global_index, Envelope(0, 0, 5, 10));
  EXPECT_NEAR(sel, 0.5, 1e-9);  // Half the x extent, full (degenerate) y.
}

// ---------------------------------------------------------------------------
// Replicated-storage detection

TEST(ReplicatedStorage, DisjointSchemeWithExtendedShapesReplicates) {
  EXPECT_TRUE(IsReplicatedStorage(
      MakeFile(index::PartitionScheme::kGrid, index::ShapeType::kRectangle,
               DisjointStrip(2, 10, 1024))));
  // Points are never replicated (each lives in exactly one cell).
  EXPECT_FALSE(IsReplicatedStorage(
      MakeFile(index::PartitionScheme::kGrid, index::ShapeType::kPoint,
               DisjointStrip(2, 10, 1024))));
  // Overlapping schemes store every shape once.
  EXPECT_FALSE(IsReplicatedStorage(
      MakeFile(index::PartitionScheme::kStr, index::ShapeType::kRectangle,
               DisjointStrip(2, 10, 1024))));
}

// ---------------------------------------------------------------------------
// Join costing and strategy choice

TEST(JoinPlan, DistributedJoinWinsOnDisjointPairs) {
  // 8 one-to-one partition pairs: DJ runs 8 cheap tasks in one job; SJMR
  // pays three jobs and a full shuffle. DJ must win by a wide margin.
  const auto a = MakeFile(index::PartitionScheme::kStr,
                          index::ShapeType::kPoint,
                          DisjointStrip(8, 2000, 64 * 1024));
  const auto b = MakeFile(index::PartitionScheme::kStr,
                          index::ShapeType::kPoint,
                          DisjointStrip(8, 2000, 64 * 1024));
  const PlanCost dj = CostDistributedJoin(DefaultCluster(), a, b, false);
  const PlanCost sjmr = CostSjmrJoin(DefaultCluster(), a, b);
  EXPECT_LT(dj.total_ms, sjmr.total_ms);
  EXPECT_EQ(dj.jobs, 1);
  EXPECT_EQ(sjmr.jobs, 3);
  EXPECT_GT(sjmr.bytes_shuffled, 0u);
  EXPECT_EQ(dj.bytes_shuffled, 0u);

  const JoinPlan plan = PlanJoin(DefaultCluster(), a, b);
  EXPECT_EQ(plan.strategy, JoinStrategy::kDjBuildLeft);
  EXPECT_EQ(plan.decision.chosen, "dj.l");
  ASSERT_EQ(plan.decision.alternatives.size(), 3u);
}

TEST(JoinPlan, SjmrWinsUnderPairExplosion) {
  // 64 x 64 all-overlapping partitions: DJ degenerates to 4096 pair
  // tasks re-reading every block 64 times; SJMR reads each block a
  // constant number of times. SJMR must win.
  const auto a = MakeFile(index::PartitionScheme::kStr,
                          index::ShapeType::kPoint,
                          OverlappingPile(64, 2000, 64 * 1024));
  const auto b = MakeFile(index::PartitionScheme::kStr,
                          index::ShapeType::kPoint,
                          OverlappingPile(64, 2000, 64 * 1024));
  const PlanCost dj = CostDistributedJoin(DefaultCluster(), a, b, false);
  const PlanCost sjmr = CostSjmrJoin(DefaultCluster(), a, b);
  EXPECT_GT(dj.total_ms, sjmr.total_ms);

  const JoinPlan plan = PlanJoin(DefaultCluster(), a, b);
  EXPECT_EQ(plan.strategy, JoinStrategy::kSjmr);
  EXPECT_EQ(plan.decision.chosen, "sjmr");
}

TEST(JoinPlan, BuildsOnTheSideWithMoreRecords) {
  // Probing charges 5x building per entry-level, so the big side builds.
  const auto big = MakeFile(index::PartitionScheme::kStr,
                            index::ShapeType::kPoint,
                            DisjointStrip(8, 20000, 64 * 1024));
  const auto small = MakeFile(index::PartitionScheme::kStr,
                              index::ShapeType::kPoint,
                              DisjointStrip(8, 200, 8 * 1024));
  EXPECT_EQ(PlanJoin(DefaultCluster(), big, small).strategy,
            JoinStrategy::kDjBuildLeft);
  EXPECT_EQ(PlanJoin(DefaultCluster(), small, big).strategy,
            JoinStrategy::kDjBuildRight);
}

TEST(JoinPlan, SjmrIneligibleOnReplicatedStorage) {
  // Disjoint cells + rectangles replicate boundary shapes: a raw re-scan
  // (SJMR) would double-count, so only the DJ alternatives are priced.
  const auto a = MakeFile(index::PartitionScheme::kGrid,
                          index::ShapeType::kRectangle,
                          OverlappingPile(64, 2000, 64 * 1024));
  const auto b = MakeFile(index::PartitionScheme::kGrid,
                          index::ShapeType::kRectangle,
                          OverlappingPile(64, 2000, 64 * 1024));
  const JoinPlan plan = PlanJoin(DefaultCluster(), a, b);
  EXPECT_NE(plan.strategy, JoinStrategy::kSjmr);
  const PlanAlternative& sjmr = plan.decision.alternatives.back();
  EXPECT_EQ(sjmr.name, "sjmr");
  EXPECT_FALSE(sjmr.eligible);
  EXPECT_NE(sjmr.detail.find("ineligible"), std::string::npos);
}

TEST(JoinPlan, DecisionRendersChosenAndRejectedWithEstimates) {
  const auto a = MakeFile(index::PartitionScheme::kStr,
                          index::ShapeType::kPoint,
                          DisjointStrip(8, 2000, 64 * 1024));
  const JoinPlan plan = PlanJoin(DefaultCluster(), a, a);
  const std::string line = FormatDecision(plan.decision);
  EXPECT_NE(line.find("op=sjoin chosen=dj.l(est="), std::string::npos);
  EXPECT_NE(line.find("rejected=[dj.r(est="), std::string::npos);
  EXPECT_NE(line.find("sjmr(est="), std::string::npos);
  // Identical inputs must render the identical decision, always.
  EXPECT_EQ(line, FormatDecision(PlanJoin(DefaultCluster(), a, a).decision));
}

// ---------------------------------------------------------------------------
// Range costing

TEST(RangePlan, PrefersPrunedAndReportsSelectivity) {
  const auto file = MakeFile(index::PartitionScheme::kStr,
                             index::ShapeType::kPoint,
                             DisjointStrip(16, 2000, 64 * 1024));
  const RangePlan plan =
      PlanRange(DefaultCluster(), file, Envelope(0, 0, 1, 1), "range");
  EXPECT_TRUE(plan.use_index);
  EXPECT_EQ(plan.decision.chosen, "pruned");
  const std::string line = FormatDecision(plan.decision);
  EXPECT_NE(line.find("sel="), std::string::npos);
  EXPECT_NE(line.find("rejected=[scan(est="), std::string::npos);
  // The pruned plan reads a strict subset of the scan's bytes.
  const PlanCost pruned = CostRangePruned(DefaultCluster(), file,
                                          Envelope(0, 0, 1, 1));
  const PlanCost scan = CostRangeScan(DefaultCluster(), file);
  EXPECT_LT(pruned.bytes_read, scan.bytes_read);
  EXPECT_LE(pruned.total_ms, scan.total_ms);
}

TEST(RangePlan, ScanIneligibleOnReplicatedStorage) {
  const auto file = MakeFile(index::PartitionScheme::kGrid,
                             index::ShapeType::kRectangle,
                             DisjointStrip(16, 2000, 64 * 1024));
  const RangePlan plan =
      PlanRange(DefaultCluster(), file, Envelope(0, 0, 1, 1), "range");
  EXPECT_TRUE(plan.use_index);
  ASSERT_EQ(plan.decision.alternatives.size(), 2u);
  EXPECT_FALSE(plan.decision.alternatives[1].eligible);
}

TEST(CostModel, FormatMsRendersWholeMilliseconds) {
  EXPECT_EQ(FormatMs(1234.4), "1234");
  EXPECT_EQ(FormatMs(1234.5), "1235");
  EXPECT_EQ(FormatMs(0.0), "0");
}

// ---------------------------------------------------------------------------
// Partitioning advisor

TEST(Advisor, UniformPointsScoreCleanly) {
  testing::TestCluster cluster;
  testing::WritePoints(&cluster.fs, "/uniform", 3000,
                       workload::Distribution::kUniform);
  const AdvisorChoice choice =
      AdvisePartitioning(&cluster.fs, "/uniform", index::ShapeType::kPoint)
          .ValueOrDie();
  ASSERT_FALSE(choice.candidates.empty());
  // The chosen candidate must carry the minimum score.
  double best = choice.candidates[0].score;
  for (const CandidateScore& c : choice.candidates) {
    best = std::min(best, c.score);
    // Points are stored exactly once under every technique.
    EXPECT_DOUBLE_EQ(c.replication, 1.0);
    EXPECT_GE(c.balance, 1.0 - 1e-9);
  }
  for (const CandidateScore& c : choice.candidates) {
    if (c.scheme == choice.scheme &&
        c.target_partitions == choice.target_partitions) {
      EXPECT_DOUBLE_EQ(c.score, best);
    }
  }
}

TEST(Advisor, SkewPenalizesUniformGrid) {
  testing::TestCluster cluster;
  testing::WritePoints(&cluster.fs, "/skewed", 3000,
                       workload::Distribution::kClustered);
  const AdvisorChoice choice =
      AdvisePartitioning(&cluster.fs, "/skewed", index::ShapeType::kPoint)
          .ValueOrDie();
  // Sample-adaptive techniques must beat the uniform grid on clustered
  // data: the grid piles most of the sample into a few cells.
  double grid_best = 0;
  double adaptive_best = 1e300;
  for (const CandidateScore& c : choice.candidates) {
    if (c.scheme == index::PartitionScheme::kGrid) {
      grid_best = std::max(grid_best, c.balance);
    } else {
      adaptive_best = std::min(adaptive_best, c.score);
    }
  }
  EXPECT_GT(grid_best, 2.0) << "grid should be visibly imbalanced on skew";
  EXPECT_NE(choice.scheme, index::PartitionScheme::kGrid);
  // Determinism: advising twice yields the identical choice.
  const AdvisorChoice again =
      AdvisePartitioning(&cluster.fs, "/skewed", index::ShapeType::kPoint)
          .ValueOrDie();
  EXPECT_EQ(again.scheme, choice.scheme);
  EXPECT_EQ(again.target_partitions, choice.target_partitions);
  ASSERT_EQ(again.candidates.size(), choice.candidates.size());
  for (size_t i = 0; i < choice.candidates.size(); ++i) {
    EXPECT_EQ(FormatCandidate(again.candidates[i]),
              FormatCandidate(choice.candidates[i]));
  }
}

TEST(Advisor, ErrorsWithoutParseableRecords) {
  testing::TestCluster cluster;
  SHADOOP_CHECK_OK(cluster.fs.WriteLines("/garbage", {"#meta", "not-a-point"}));
  EXPECT_FALSE(
      AdvisePartitioning(&cluster.fs, "/garbage", index::ShapeType::kPoint)
          .ok());
}

// ---------------------------------------------------------------------------
// Executor integration

TEST(ExecutorOptimizer, ExplainShowsJoinPlanWithRejectedAlternatives) {
  testing::TestCluster cluster;
  testing::WritePoints(&cluster.fs, "/a", 1500);
  testing::WritePoints(&cluster.fs, "/b", 1500, workload::Distribution::kUniform,
                       /*seed=*/7);
  pigeon::Executor executor(&cluster.runner);
  const pigeon::ExecutionReport report =
      executor
          .Execute(
              "a = LOAD '/a' AS POINT;"
              "b = LOAD '/b' AS POINT;"
              "ai = INDEX a WITH STR INTO '/a_idx';"
              "bi = INDEX b WITH STR INTO '/b_idx';"
              "j = SJOIN ai, bi;"
              "EXPLAIN j;")
          .ValueOrDie();
  ASSERT_FALSE(report.dump_output.empty());
  const std::string& line = report.dump_output.back();
  EXPECT_NE(line.find("; plan: op=sjoin chosen="), std::string::npos) << line;
  EXPECT_NE(line.find("rejected=["), std::string::npos) << line;
  EXPECT_NE(line.find("est="), std::string::npos) << line;
}

TEST(ExecutorOptimizer, ExplainWithoutPlannedOpsStaysClean) {
  testing::TestCluster cluster;
  testing::WritePoints(&cluster.fs, "/a", 500);
  pigeon::Executor executor(&cluster.runner);
  const pigeon::ExecutionReport report =
      executor.Execute("a = LOAD '/a' AS POINT; EXPLAIN a;").ValueOrDie();
  ASSERT_FALSE(report.dump_output.empty());
  EXPECT_EQ(report.dump_output.back().find("; plan:"), std::string::npos);
}

TEST(ExecutorOptimizer, OffReproducesLegacyJoinByteIdentically) {
  // `SET optimizer off` must reproduce the pre-optimizer plan exactly:
  // same rows, same order, same charges as a direct build-left DJ.
  const char* script =
      "SET optimizer off;"
      "a = LOAD '/a' AS POINT;"
      "b = LOAD '/b' AS POINT;"
      "ai = INDEX a WITH STR INTO '/a_idx';"
      "bi = INDEX b WITH STR INTO '/b_idx';"
      "j = SJOIN ai, bi;"
      "DUMP j;";
  testing::TestCluster with_executor;
  testing::WritePoints(&with_executor.fs, "/a", 1200);
  testing::WritePoints(&with_executor.fs, "/b", 1200,
                       workload::Distribution::kUniform, /*seed=*/7);
  pigeon::Executor executor(&with_executor.runner);
  const pigeon::ExecutionReport report =
      executor.Execute(script).ValueOrDie();
  EXPECT_FALSE(executor.optimizer_enabled());
  for (const auto& [name, dataset] : executor.environment()) {
    EXPECT_FALSE(dataset.plan.has_value()) << name;
  }

  testing::TestCluster direct;
  testing::WritePoints(&direct.fs, "/a", 1200);
  testing::WritePoints(&direct.fs, "/b", 1200,
                       workload::Distribution::kUniform, /*seed=*/7);
  const index::SpatialFileInfo ai = testing::BuildIndex(
      &direct.runner, "/a", "/a_idx", index::PartitionScheme::kStr);
  const index::SpatialFileInfo bi = testing::BuildIndex(
      &direct.runner, "/b", "/b_idx", index::PartitionScheme::kStr);
  const std::vector<std::string> expected =
      core::DistributedJoin(&direct.runner, ai, bi).ValueOrDie();
  EXPECT_EQ(report.dump_output, expected);
}

TEST(ExecutorOptimizer, OnAndOffAgreeOnJoinRowMultisets) {
  // Whatever strategy the optimizer picks, the join *answer* is the
  // same multiset of rows the legacy plan produces.
  auto run = [](const std::string& prelude) {
    testing::TestCluster cluster;
    testing::WritePoints(&cluster.fs, "/a", 1200);
    testing::WritePoints(&cluster.fs, "/b", 1200,
                         workload::Distribution::kUniform, /*seed=*/7);
    pigeon::Executor executor(&cluster.runner);
    pigeon::ExecutionReport report =
        executor
            .Execute(prelude +
                     "a = LOAD '/a' AS POINT;"
                     "b = LOAD '/b' AS POINT;"
                     "ai = INDEX a WITH STR INTO '/a_idx';"
                     "bi = INDEX b WITH STR INTO '/b_idx';"
                     "j = SJOIN ai, bi;"
                     "DUMP j;")
            .ValueOrDie();
    std::sort(report.dump_output.begin(), report.dump_output.end());
    return report.dump_output;
  };
  EXPECT_EQ(run(""), run("SET optimizer off;"));
}

TEST(ExecutorOptimizer, IndexWithAutoConsultsTheAdvisor) {
  testing::TestCluster cluster;
  testing::WritePoints(&cluster.fs, "/skewed", 3000,
                       workload::Distribution::kClustered);
  pigeon::Executor executor(&cluster.runner);
  const pigeon::ExecutionReport report =
      executor
          .Execute(
              "pts = LOAD '/skewed' AS POINT;"
              "idx = INDEX pts WITH AUTO;"
              "EXPLAIN idx;")
          .ValueOrDie();
  ASSERT_FALSE(report.dump_output.empty());
  const std::string& line = report.dump_output.back();
  EXPECT_NE(line.find("; plan: op=index chosen="), std::string::npos) << line;
  EXPECT_NE(line.find("balance="), std::string::npos) << line;
  const auto it = executor.environment().find("idx");
  ASSERT_NE(it, executor.environment().end());
  ASSERT_TRUE(it->second.info.has_value());
  // The advisor never picks the uniform grid on clustered data.
  EXPECT_NE(it->second.info->global_index.scheme(),
            index::PartitionScheme::kGrid);
}

TEST(ExecutorOptimizer, AutoFallsBackToStrWhenOff) {
  testing::TestCluster cluster;
  testing::WritePoints(&cluster.fs, "/pts", 1000);
  pigeon::Executor executor(&cluster.runner);
  const pigeon::ExecutionReport report =
      executor
          .Execute(
              "SET optimizer off;"
              "pts = LOAD '/pts' AS POINT;"
              "idx = INDEX pts WITH AUTO;")
          .ValueOrDie();
  (void)report;
  const auto it = executor.environment().find("idx");
  ASSERT_NE(it, executor.environment().end());
  EXPECT_EQ(it->second.info->global_index.scheme(),
            index::PartitionScheme::kStr);
}

TEST(ExecutorOptimizer, RangePlansAreLoggedPerTarget) {
  testing::TestCluster cluster;
  testing::WritePoints(&cluster.fs, "/pts", 1500);
  pigeon::Executor executor(&cluster.runner);
  const pigeon::ExecutionReport report =
      executor
          .Execute(
              "pts = LOAD '/pts' AS POINT;"
              "idx = INDEX pts WITH STR INTO '/pts_idx';"
              "r = RANGE idx RECTANGLE(0, 0, 100000, 100000);"
              "c = COUNT idx RECTANGLE(0, 0, 100000, 100000);"
              "EXPLAIN r;"
              "EXPLAIN c;")
          .ValueOrDie();
  ASSERT_GE(report.dump_output.size(), 2u);
  const std::string& r_line = report.dump_output[report.dump_output.size() - 2];
  const std::string& c_line = report.dump_output.back();
  EXPECT_NE(r_line.find("; plan: op=range chosen=pruned"), std::string::npos)
      << r_line;
  EXPECT_NE(c_line.find("; plan: op=count chosen=pruned"), std::string::npos)
      << c_line;
}

TEST(ExecutorOptimizer, ReboundTargetDropsItsStalePlan) {
  // The plan rides with the binding it produced: re-binding the target
  // through an unplanned statement leaves no `; plan:` segment behind.
  testing::TestCluster cluster;
  testing::WritePoints(&cluster.fs, "/pts", 1500);
  pigeon::Executor executor(&cluster.runner);
  const pigeon::ExecutionReport report =
      executor
          .Execute(
              "pts = LOAD '/pts' AS POINT;"
              "i = INDEX pts WITH STR INTO '/pts_idx';"
              "r = RANGE i RECTANGLE(0, 0, 100000, 100000);"
              "EXPLAIN r;"
              "r = KNN i POINT(50000, 50000) K 3;"
              "EXPLAIN r;")
          .ValueOrDie();
  ASSERT_GE(report.dump_output.size(), 2u);
  const std::string& planned =
      report.dump_output[report.dump_output.size() - 2];
  const std::string& rebound = report.dump_output.back();
  EXPECT_NE(planned.find("; plan: op=range"), std::string::npos) << planned;
  EXPECT_EQ(rebound.find("; plan:"), std::string::npos) << rebound;
}

TEST(ExecutorOptimizer, PlanTokensAreStableAndModeAware) {
  testing::TestCluster cluster;
  testing::WritePoints(&cluster.fs, "/a", 1200);
  testing::WritePoints(&cluster.fs, "/b", 1200,
                       workload::Distribution::kUniform, /*seed=*/7);
  pigeon::Executor executor(&cluster.runner);
  SHADOOP_CHECK_OK(executor
                       .Execute(
                           "a = LOAD '/a' AS POINT;"
                           "b = LOAD '/b' AS POINT;"
                           "ai = INDEX a WITH STR INTO '/a_idx';"
                           "bi = INDEX b WITH STR INTO '/b_idx';")
                       .status());
  const auto token = [&executor](const pigeon::Statement& stmt) {
    return executor.Prepare(stmt).ValueOrDie().plan_token;
  };
  const pigeon::Script join = pigeon::Parse("j = SJOIN ai, bi;").ValueOrDie();
  const std::string chosen = token(join[0]);
  EXPECT_TRUE(chosen == "dj.l" || chosen == "dj.r" || chosen == "sjmr")
      << chosen;
  EXPECT_EQ(chosen, token(join[0]));

  const pigeon::Script range =
      pigeon::Parse("r = RANGE ai RECTANGLE(0, 0, 1, 1);").ValueOrDie();
  EXPECT_EQ(token(range[0]), "pruned");

  const pigeon::Script load = pigeon::Parse("x = LOAD '/a' AS POINT;")
                                  .ValueOrDie();
  EXPECT_EQ(token(load[0]), "default");

  SHADOOP_CHECK_OK(executor.Execute("SET optimizer off;").status());
  EXPECT_EQ(token(join[0]), "legacy");
}

TEST(ExecutorOptimizer, UnknownSetValueIsRejected) {
  EXPECT_FALSE(pigeon::Parse("SET optimizer maybe;").ok());
  const pigeon::Script on = pigeon::Parse("SET optimizer on;").ValueOrDie();
  EXPECT_EQ(on[0].kind, pigeon::Statement::Kind::kSet);
  EXPECT_EQ(on[0].target, "OPTIMIZER");
  EXPECT_EQ(on[0].path, "on");
}

}  // namespace
}  // namespace shadoop::optimizer
