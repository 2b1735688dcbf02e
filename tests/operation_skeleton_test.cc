#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>

#include "common/string_util.h"
#include "core/operation_skeleton.h"
#include "geometry/wkt.h"
#include "test_util.h"

namespace shadoop::core {
namespace {

using index::PartitionScheme;

/// A complete custom operation in ~20 lines: the 5 north-most points.
/// Filter: partitions whose MBR reaches the top band. Local: this
/// partition's 5 north-most. Merge: global top 5.
OperationSkeleton TopNorthOperation(size_t n) {
  OperationSkeleton op;
  op.name = "top-north";
  op.filter = [n](const index::GlobalIndex& gi) {
    // Keep the partitions whose MBR top edge is among the n highest: a
    // partition below n other partitions' top edges cannot contribute.
    std::vector<double> tops;
    for (const auto& p : gi.partitions()) tops.push_back(p.mbr.max_y());
    std::sort(tops.begin(), tops.end(), std::greater<double>());
    const double cutoff = tops[std::min(tops.size() - 1, n - 1)];
    std::vector<int> keep;
    for (const auto& p : gi.partitions()) {
      if (p.mbr.max_y() >= cutoff) keep.push_back(p.id);
    }
    return keep;
  };
  op.local = [n](const SplitExtent&, const std::vector<std::string>& records,
                 LocalOutput* out) {
    std::vector<std::pair<double, std::string>> by_y;
    for (const std::string& record : records) {
      auto p = index::RecordPoint(record);
      if (p.ok()) by_y.emplace_back(-p.value().y, record);
    }
    std::sort(by_y.begin(), by_y.end());
    out->ChargeCpu(records.size() * 50);
    for (size_t i = 0; i < by_y.size() && i < n; ++i) {
      out->ToMerge(by_y[i].second);
    }
  };
  op.merge = [n](const std::vector<std::string>& candidates,
                 std::vector<std::string>* final_out) {
    std::vector<std::pair<double, std::string>> by_y;
    for (const std::string& record : candidates) {
      auto p = index::RecordPoint(record);
      if (p.ok()) by_y.emplace_back(-p.value().y, record);
    }
    std::sort(by_y.begin(), by_y.end());
    for (size_t i = 0; i < by_y.size() && i < n; ++i) {
      final_out->push_back(by_y[i].second);
    }
  };
  return op;
}

TEST(OperationSkeletonTest, CustomTopNorthMatchesBruteForce) {
  testing::TestCluster cluster;
  // Uniform data: no duplicate y values (the clustered generator clamps
  // many points to the space edge, making "top 5 by y" ambiguous).
  const auto points = testing::WritePoints(&cluster.fs, "/pts", 3000,
                                           workload::Distribution::kUniform,
                                           7);
  const auto file = testing::BuildIndex(&cluster.runner, "/pts", "/pts.idx",
                                        PartitionScheme::kStr);
  OpStats stats;
  const auto rows =
      RunOperation(&cluster.runner, file, TopNorthOperation(5), &stats)
          .ValueOrDie();
  std::vector<Point> expected = points;
  std::sort(expected.begin(), expected.end(),
            [](const Point& a, const Point& b) { return a.y > b.y; });
  ASSERT_EQ(rows.size(), 5u);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(index::RecordPoint(rows[i]).ValueOrDie(), expected[i])
        << "rank " << i;
  }
  // The filter pruned partitions (most do not reach the top band).
  EXPECT_LT(stats.cost.num_map_tasks,
            static_cast<int>(file.global_index.NumPartitions()));
}

TEST(OperationSkeletonTest, EarlyFlushBypassesMerge) {
  testing::TestCluster cluster;
  testing::WritePoints(&cluster.fs, "/pts", 500);
  const auto file = testing::BuildIndex(&cluster.runner, "/pts", "/pts.idx",
                                        PartitionScheme::kGrid);
  // An operation that early-flushes per-partition record counts and sends
  // nothing to merge: per-partition statistics, map-only.
  OperationSkeleton op;
  op.name = "partition-counts";
  op.local = [](const SplitExtent& extent,
                const std::vector<std::string>& records, LocalOutput* out) {
    out->ToOutput(EnvelopeToCsv(extent.cell) + " -> " +
                  std::to_string(records.size()));
  };
  const auto rows =
      RunOperation(&cluster.runner, file, op).ValueOrDie();
  EXPECT_EQ(rows.size(), file.global_index.NumPartitions());
  size_t total = 0;
  for (const std::string& row : rows) {
    total += ParseInt64(row.substr(row.find("-> ") + 3)).ValueOrDie();
  }
  EXPECT_EQ(total, 500u);
}

TEST(OperationSkeletonTest, EarlyFlushedRowsNeverReachMerge) {
  testing::TestCluster cluster;
  testing::WritePoints(&cluster.fs, "/pts", 500);
  const auto file = testing::BuildIndex(&cluster.runner, "/pts", "/pts.idx",
                                        PartitionScheme::kGrid);
  // Early-flushed rows whose text looks like what merge candidates used
  // to look like on their way through the job ("M<TAB>row").
  OperationSkeleton op;
  op.name = "flush-m-rows";
  op.local = [](const SplitExtent&, const std::vector<std::string>& records,
                LocalOutput* out) {
    out->ToOutput("M\t" + std::to_string(records.size()));
  };
  std::atomic<size_t> merged{0};
  op.merge = [&merged](const std::vector<std::string>& candidates,
                       std::vector<std::string>*) {
    merged += candidates.size();
  };
  const auto rows = RunOperation(&cluster.runner, file, op).ValueOrDie();
  EXPECT_EQ(merged.load(), 0u);
  ASSERT_EQ(rows.size(), file.global_index.NumPartitions());
  size_t total = 0;
  for (const std::string& row : rows) {
    ASSERT_EQ(row.rfind("M\t", 0), 0u) << row;
    total += ParseInt64(row.substr(2)).ValueOrDie();
  }
  EXPECT_EQ(total, 500u);
}

TEST(OperationSkeletonTest, MissingLocalFunctionRejected) {
  testing::TestCluster cluster;
  testing::WritePoints(&cluster.fs, "/pts", 50);
  const auto file = testing::BuildIndex(&cluster.runner, "/pts", "/pts.idx",
                                        PartitionScheme::kGrid);
  OperationSkeleton op;
  EXPECT_TRUE(RunOperation(&cluster.runner, file, op)
                  .status()
                  .IsInvalidArgument());
}

TEST(OperationSkeletonTest, DefaultMergeAppendsCandidates) {
  testing::TestCluster cluster;
  testing::WritePoints(&cluster.fs, "/pts", 200);
  const auto file = testing::BuildIndex(&cluster.runner, "/pts", "/pts.idx",
                                        PartitionScheme::kGrid);
  OperationSkeleton op;
  op.name = "echo-first";
  op.local = [](const SplitExtent&, const std::vector<std::string>& records,
                LocalOutput* out) {
    if (!records.empty()) out->ToMerge(records.front());
  };
  const auto rows = RunOperation(&cluster.runner, file, op).ValueOrDie();
  EXPECT_EQ(rows.size(), file.global_index.NumPartitions());
}

}  // namespace
}  // namespace shadoop::core
