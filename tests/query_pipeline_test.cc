#include "core/query_pipeline.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "core/operation_skeleton.h"
#include "fault/fault_injector.h"
#include "geometry/wkt.h"
#include "hdfs/block_arena.h"
#include "test_util.h"

namespace shadoop::core {
namespace {

using index::PartitionScheme;
using mapreduce::JobResult;
using mapreduce::MapContext;

// ---------------------------------------------------------------------
// SpatialJobBuilder planning

TEST(QueryPipelineTest, MissingMapperIsRejected) {
  testing::TestCluster cluster;
  testing::WritePoints(&cluster.fs, "/pts", 100);
  SpatialJobBuilder builder(&cluster.runner);
  builder.ScanFile("/pts");
  EXPECT_TRUE(builder.Run(nullptr).status().IsInvalidArgument());
}

TEST(QueryPipelineTest, PlanErrorIsDeferredToRun) {
  testing::TestCluster cluster;
  SpatialJobBuilder builder(&cluster.runner);
  // Chaining continues after the failed scan; Run reports the first error.
  builder.ScanFile("/no-such-file").Map([]() {
    return std::unique_ptr<mapreduce::Mapper>();
  });
  EXPECT_FALSE(builder.plan_status().ok());
  EXPECT_FALSE(builder.Run(nullptr).ok());
}

TEST(QueryPipelineTest, ScanIndexedAppliesGlobalFilter) {
  testing::TestCluster cluster;
  testing::WritePoints(&cluster.fs, "/pts", 2000);
  const auto file = testing::BuildIndex(&cluster.runner, "/pts", "/pts.idx",
                                        PartitionScheme::kGrid);
  ASSERT_GT(file.global_index.NumPartitions(), 1u);
  const int keep = file.global_index.partitions().front().id;
  SpatialJobBuilder builder(&cluster.runner);
  builder.ScanIndexed(file, [keep](const index::GlobalIndex&) {
    return std::vector<int>{keep};
  });
  EXPECT_TRUE(builder.plan_status().ok());
  EXPECT_EQ(builder.NumSplits(), 1u);

  SpatialJobBuilder unfiltered(&cluster.runner);
  unfiltered.ScanIndexed(file);
  EXPECT_EQ(unfiltered.NumSplits(), file.global_index.NumPartitions());
}

TEST(QueryPipelineTest, ScanFileTagsSplits) {
  testing::TestCluster cluster;
  testing::WritePoints(&cluster.fs, "/a", 600);
  testing::WritePoints(&cluster.fs, "/b", 600, workload::Distribution::kUniform,
                       9);
  class TagMapper : public mapreduce::Mapper {
   public:
    void BeginSplit(MapContext& ctx) override {
      ctx.WriteOutput(ctx.split().meta);
    }
    void Map(std::string_view, MapContext&) override {}
  };
  const JobResult result = SpatialJobBuilder(&cluster.runner)
                               .ScanFile("/a", "A")
                               .ScanFile("/b", "B")
                               .Map([]() { return std::make_unique<TagMapper>(); })
                               .Run(nullptr)
                               .ValueOrDie();
  EXPECT_TRUE(std::count(result.output.begin(), result.output.end(), "A") > 0);
  EXPECT_TRUE(std::count(result.output.begin(), result.output.end(), "B") > 0);
}

// ---------------------------------------------------------------------
// SpatialRecordReader

/// Mapper that checks the local R-tree is memoized: two LocalIndex calls
/// must return the same object, and the entry count must match Search.
class MemoMapper : public PartitionMapper {
 public:
  MemoMapper() : PartitionMapper(index::ShapeType::kPoint) {}

 protected:
  void Process(const SplitExtent& extent, SpatialRecordReader& view,
               MapContext& ctx) override {
    const index::PackedRTree& first = view.LocalIndex(ctx);
    const index::PackedRTree& second = view.LocalIndex(ctx);
    ctx.WriteOutput(&first == &second ? "memoized" : "rebuilt");
    const auto hits = view.Search(extent.mbr, ctx);
    ctx.WriteOutput("hits=" + std::to_string(hits.size()) +
                    " records=" + std::to_string(view.NumRecords()));
  }
};

TEST(QueryPipelineTest, SpatialRecordReaderMemoizesLocalIndex) {
  testing::TestCluster cluster;
  testing::WritePoints(&cluster.fs, "/pts", 800);
  const auto file = testing::BuildIndex(&cluster.runner, "/pts", "/pts.idx",
                                        PartitionScheme::kGrid);
  const JobResult result = SpatialJobBuilder(&cluster.runner)
                               .ScanIndexed(file)
                               .Map([]() { return std::make_unique<MemoMapper>(); })
                               .Run(nullptr)
                               .ValueOrDie();
  size_t memoized = 0;
  size_t matched = 0;
  for (const std::string& line : result.output) {
    if (line == "memoized") ++memoized;
    ASSERT_NE(line, "rebuilt");
    // Searching the partition's own MBR must return every indexed record.
    const size_t eq = line.find("hits=");
    if (eq != std::string::npos) {
      const std::string counts = line.substr(5);
      auto fields = SplitString(counts, ' ');
      ASSERT_EQ(fields.size(), 2u);
      if (std::string(fields[0]) ==
          std::string(fields[1]).substr(std::string("records=").size())) {
        ++matched;
      }
    }
  }
  EXPECT_EQ(memoized, file.global_index.NumPartitions());
  EXPECT_EQ(matched, file.global_index.NumPartitions());
}

TEST(QueryPipelineTest, LocalIndexBuildIsChargedOnce) {
  testing::TestCluster cluster;
  testing::WritePoints(&cluster.fs, "/pts", 800);
  const auto file = testing::BuildIndex(&cluster.runner, "/pts", "/pts.idx",
                                        PartitionScheme::kGrid);

  /// Calls Search N times; the build cost must be charged only on the
  /// first call, so job cost is independent of N apart from the searches.
  class RepeatSearchMapper : public PartitionMapper {
   public:
    explicit RepeatSearchMapper(int searches)
        : PartitionMapper(index::ShapeType::kPoint), searches_(searches) {}

   protected:
    void Process(const SplitExtent& extent, SpatialRecordReader& view,
                 MapContext& ctx) override {
      for (int i = 0; i < searches_; ++i) view.Search(extent.mbr, ctx);
    }

   private:
    int searches_;
  };

  auto run = [&](int searches) {
    OpStats stats;
    SHADOOP_CHECK_OK(SpatialJobBuilder(&cluster.runner)
                         .ScanIndexed(file)
                         .Map([searches]() {
                           return std::make_unique<RepeatSearchMapper>(
                               searches);
                         })
                         .Run(&stats)
                         .status());
    return stats.cost.total_ms;
  };
  const double once = run(1);
  const double twice = run(2);
  const double thrice = run(3);
  // Each extra Search adds only the (constant) search cost, never a
  // rebuild: the increments are equal.
  EXPECT_NEAR(twice - once, thrice - twice, 1e-9);
  EXPECT_GT(twice, once);
}

// ---------------------------------------------------------------------
// Record index: built once per block per runner, and whole blocks handed
// to partition mappers.

/// Range-searches its partition. PartitionMapper's Map and MapBlock are
/// final, so it takes whole blocks like every partition mapper.
class BlockFedMapper : public PartitionMapper {
 public:
  explicit BlockFedMapper(bool parse_extent = true)
      : PartitionMapper(index::ShapeType::kPoint, parse_extent) {}

 protected:
  void Process(const SplitExtent& extent, SpatialRecordReader& reader,
               MapContext& ctx) override {
    (void)extent;
    const Envelope query(1e5, 1e5, 6e5, 8e5);
    for (uint32_t i : reader.Search(query, ctx)) {
      ctx.WriteOutput(std::string(reader.records()[i]));
    }
    ctx.counters().Increment("test.records",
                             static_cast<int64_t>(reader.NumRecords()));
  }
};

void ExpectSameJob(const JobResult& a, const JobResult& b) {
  ASSERT_TRUE(a.status.ok()) << a.status.ToString();
  ASSERT_TRUE(b.status.ok()) << b.status.ToString();
  EXPECT_EQ(a.output, b.output);
  EXPECT_EQ(a.counters.values(), b.counters.values());
  EXPECT_EQ(a.cost.total_ms, b.cost.total_ms);
  EXPECT_EQ(a.cost.map_makespan_ms, b.cost.map_makespan_ms);
  EXPECT_EQ(a.cost.shuffle_ms, b.cost.shuffle_ms);
  EXPECT_EQ(a.cost.reduce_makespan_ms, b.cost.reduce_makespan_ms);
  EXPECT_EQ(a.cost.bytes_read, b.cost.bytes_read);
  EXPECT_EQ(a.cost.bytes_shuffled, b.cost.bytes_shuffled);
  EXPECT_EQ(a.cost.bytes_written, b.cost.bytes_written);
  EXPECT_EQ(a.cost.num_map_tasks, b.cost.num_map_tasks);
  EXPECT_EQ(a.cost.num_reduce_tasks, b.cost.num_reduce_tasks);
  EXPECT_EQ(a.cost.task_retries, b.cost.task_retries);
  EXPECT_EQ(a.cost.speculative_launched, b.cost.speculative_launched);
  EXPECT_EQ(a.cost.replica_failovers, b.cost.replica_failovers);
}

TEST(RecordIndexJobTest, WarmJobBuildsNoRecordIndexAndMatchesTheColdOne) {
  testing::TestCluster cluster;
  testing::WritePoints(&cluster.fs, "/pts", 3000);
  index::IndexBuilder builder(&cluster.runner);
  index::IndexBuildOptions options;
  options.scheme = PartitionScheme::kStr;
  options.build_local_indexes = true;
  const auto file = builder.Build("/pts", "/pts.idx", options).ValueOrDie();
  const size_t blocks = file.global_index.NumPartitions();
  ASSERT_GT(blocks, 1u);

  // A runner that has never read the index's blocks.
  mapreduce::JobRunner runner(&cluster.fs, cluster.runner.cluster());
  auto run = [&](mapreduce::JobRunner* r) {
    return SpatialJobBuilder(r)
        .ScanIndexed(file)
        .Map([] { return std::make_unique<BlockFedMapper>(); })
        .Run(nullptr)
        .ValueOrDie();
  };
  const uint64_t builds_before = hdfs::RecordIndexBuildCount();
  const JobResult cold = run(&runner);
  EXPECT_EQ(hdfs::RecordIndexBuildCount() - builds_before, blocks);
  EXPECT_EQ(cold.counters.Get("test.records"), 3000);

  const uint64_t builds_warm = hdfs::RecordIndexBuildCount();
  const uint64_t misses_warm = runner.artifact_cache()->misses();
  const JobResult warm = run(&runner);
  // Nothing is built on a warm read: no record index, and no artifact.
  EXPECT_EQ(hdfs::RecordIndexBuildCount(), builds_warm);
  EXPECT_EQ(runner.artifact_cache()->misses(), misses_warm);
  ExpectSameJob(cold, warm);

  // With the cache off (an installed injector that injects nothing),
  // every job indexes each block it reads, and nothing else changes.
  fault::FaultInjector inactive{fault::FaultPolicy()};
  mapreduce::JobRunner uncached(&cluster.fs, cluster.runner.cluster());
  uncached.set_fault_injector(&inactive);
  for (int job = 0; job < 2; ++job) {
    const uint64_t before = hdfs::RecordIndexBuildCount();
    ExpectSameJob(cold, run(&uncached));
    EXPECT_EQ(hdfs::RecordIndexBuildCount() - before, blocks);
  }
  EXPECT_EQ(uncached.artifact_cache()->misses(), 0u);
}

TEST(RecordIndexJobTest, ConcurrentTasksOnOneBlockBuildOneRecordIndex) {
  testing::TestCluster cluster;
  testing::WritePoints(&cluster.fs, "/pts", 400);
  // Eight tasks over the same block, run on four lanes: the ones that
  // miss together wait for a single build.
  mapreduce::InputSplit split;
  split.blocks.push_back({"/pts", 0});
  SpatialJobBuilder builder(&cluster.runner);
  for (int i = 0; i < 8; ++i) builder.AddSplit(split);
  const uint64_t before = hdfs::RecordIndexBuildCount();
  const JobResult result =
      builder
          .Map([] {
            return std::make_unique<BlockFedMapper>(/*parse_extent=*/false);
          })
          .Run(nullptr)
          .ValueOrDie();
  EXPECT_EQ(hdfs::RecordIndexBuildCount() - before, 1u);
  const int64_t per_task = result.counters.Get("test.records") / 8;
  EXPECT_GT(per_task, 0);
  EXPECT_EQ(result.counters.Get("test.records"), per_task * 8);
}

// ---------------------------------------------------------------------
// PairPartitionMapper

TEST(QueryPipelineTest, PairMapperSeparatesSides) {
  testing::TestCluster cluster;
  testing::WritePoints(&cluster.fs, "/a", 700);
  testing::WritePoints(&cluster.fs, "/b", 900, workload::Distribution::kUniform,
                       11);
  const auto file_a = testing::BuildIndex(&cluster.runner, "/a", "/a.idx",
                                          PartitionScheme::kGrid);
  const auto file_b = testing::BuildIndex(&cluster.runner, "/b", "/b.idx",
                                          PartitionScheme::kGrid);
  const auto pairs = index::OverlappingPartitionPairs(file_a.global_index,
                                                      file_b.global_index);
  ASSERT_FALSE(pairs.empty());

  class SideCountMapper : public PairPartitionMapper {
   public:
    SideCountMapper()
        : PairPartitionMapper(index::ShapeType::kPoint,
                              index::ShapeType::kPoint) {}

   protected:
    void Process(const SplitExtent& extent_a, const SplitExtent& extent_b,
                 SpatialRecordReader& view_a, SpatialRecordReader& view_b,
                 MapContext& ctx) override {
      // Every A record must lie in the A partition's cell, and similarly
      // for B — proving blocks were routed to the right side.
      for (const Point& p : view_a.Points()) {
        if (!extent_a.mbr.Contains(p)) ctx.WriteOutput("misrouted-a");
      }
      for (const Point& p : view_b.Points()) {
        if (!extent_b.mbr.Contains(p)) ctx.WriteOutput("misrouted-b");
      }
      ctx.WriteOutput("a=" + std::to_string(view_a.NumRecords()) +
                      " b=" + std::to_string(view_b.NumRecords()));
    }
  };

  const JobResult result =
      SpatialJobBuilder(&cluster.runner)
          .ScanPartitionPairs(file_a, file_b, pairs)
          .Map([]() { return std::make_unique<SideCountMapper>(); })
          .Run(nullptr)
          .ValueOrDie();
  ASSERT_EQ(result.output.size(), pairs.size());
  for (const std::string& line : result.output) {
    EXPECT_TRUE(line.rfind("a=", 0) == 0) << line;
  }
}

// ---------------------------------------------------------------------
// Fault injection through the builder

TEST(QueryPipelineTest, FaultInjectorRetriesThroughBuilder) {
  testing::TestCluster cluster;
  testing::WritePoints(&cluster.fs, "/pts", 300);
  const auto file = testing::BuildIndex(&cluster.runner, "/pts", "/pts.idx",
                                        PartitionScheme::kGrid);
  class CountMapper : public PartitionMapper {
   public:
    CountMapper() : PartitionMapper(index::ShapeType::kPoint) {}

   protected:
    void Process(const SplitExtent&, SpatialRecordReader& view,
                 MapContext& ctx) override {
      ctx.WriteOutput(std::to_string(view.NumRecords()));
    }
  };
  auto mapper = []() { return std::make_unique<CountMapper>(); };

  // Seeded task faults on the runner: failed attempts are retried.
  fault::FaultPolicy policy;
  policy.seed = 4;  // Fails some first attempts, never all three.
  policy.map_failure_prob = 0.3;
  fault::FaultInjector flaky(policy);
  cluster.runner.set_fault_injector(&flaky);
  const JobResult retried = SpatialJobBuilder(&cluster.runner)
                                .ScanIndexed(file)
                                .Map(mapper)
                                .Run(nullptr)
                                .ValueOrDie();
  EXPECT_GT(retried.cost.task_retries, 0);
  size_t total = 0;
  for (const std::string& line : retried.output) {
    total += ParseInt64(line).ValueOrDie();
  }
  EXPECT_EQ(total, 300u);

  // Persistent faults exhaust the runner's attempt cap and fail the job.
  policy.map_failure_prob = 1.0;
  fault::FaultInjector broken(policy);
  cluster.runner.set_fault_injector(&broken);
  cluster.runner.set_max_task_attempts(2);
  const auto failed = SpatialJobBuilder(&cluster.runner)
                          .ScanIndexed(file)
                          .Map(mapper)
                          .Run(nullptr);
  cluster.runner.set_fault_injector(nullptr);
  ASSERT_FALSE(failed.ok());
  EXPECT_NE(failed.status().message().find("2 attempt(s)"),
            std::string::npos)
      << failed.status().ToString();
}

// ---------------------------------------------------------------------
// ParallelMerge

TEST(QueryPipelineTest, ParallelMergeSpreadsReducers) {
  testing::TestCluster cluster;
  testing::WritePoints(&cluster.fs, "/pts", 4000);
  const auto file = testing::BuildIndex(&cluster.runner, "/pts", "/pts.idx",
                                        PartitionScheme::kGrid);
  ASSERT_GE(file.global_index.NumPartitions(), 8u);

  class EmitOneMapper : public PartitionMapper {
   public:
    EmitOneMapper() : PartitionMapper(index::ShapeType::kPoint) {}

   protected:
    void Process(const SplitExtent&, SpatialRecordReader& view,
                 MapContext& ctx) override {
      ctx.Emit("K", std::to_string(view.NumRecords()));
    }
  };
  class EchoReducer : public mapreduce::Reducer {
   public:
    void Reduce(std::string_view, std::span<const std::string_view> values,
                mapreduce::ReduceContext& ctx) override {
      for (std::string_view v : values) ctx.Write(std::string(v));
    }
  };

  SpatialJobBuilder builder(&cluster.runner);
  builder.ScanIndexed(file);
  const size_t splits = builder.NumSplits();
  OpStats stats;
  const JobResult result =
      builder.Map([]() { return std::make_unique<EmitOneMapper>(); })
          .ParallelMerge([]() { return std::make_unique<EchoReducer>(); })
          .Run(&stats)
          .ValueOrDie();
  const int expected = std::min<int>(
      cluster.runner.cluster().num_slots,
      std::max<int>(1, static_cast<int>(splits) / 4));
  EXPECT_EQ(result.cost.num_reduce_tasks, expected);
  EXPECT_GT(expected, 1);
  // No row is lost in the pre-merge round.
  EXPECT_EQ(result.output.size(), splits);
  EXPECT_EQ(stats.jobs_run, 1);
}

// ---------------------------------------------------------------------
// OperationSkeleton semantics on the shared pipeline

TEST(QueryPipelineTest, SkeletonEarlyFlushPrecedesMergeOutput) {
  testing::TestCluster cluster;
  testing::WritePoints(&cluster.fs, "/pts", 400);
  const auto file = testing::BuildIndex(&cluster.runner, "/pts", "/pts.idx",
                                        PartitionScheme::kGrid);
  OperationSkeleton op;
  op.name = "flush-and-merge";
  op.local = [](const SplitExtent&, const std::vector<std::string>& records,
                LocalOutput* out) {
    out->ToOutput("flushed:" + std::to_string(records.size()));
    out->ToMerge(std::to_string(records.size()));
  };
  op.merge = [](const std::vector<std::string>& candidates,
                std::vector<std::string>* final_out) {
    int64_t total = 0;
    for (const std::string& c : candidates) total += ParseInt64(c).ValueOrDie();
    final_out->push_back("merged:" + std::to_string(total));
  };
  const auto rows = RunOperation(&cluster.runner, file, op).ValueOrDie();
  const size_t parts = file.global_index.NumPartitions();
  ASSERT_EQ(rows.size(), parts + 1);
  for (size_t i = 0; i < parts; ++i) {
    EXPECT_EQ(rows[i].rfind("flushed:", 0), 0u) << rows[i];
  }
  EXPECT_EQ(rows.back(), "merged:400");
}

TEST(QueryPipelineTest, SkeletonWithoutMergePassesCandidatesThrough) {
  testing::TestCluster cluster;
  testing::WritePoints(&cluster.fs, "/pts", 300);
  const auto file = testing::BuildIndex(&cluster.runner, "/pts", "/pts.idx",
                                        PartitionScheme::kGrid);
  OperationSkeleton op;
  op.name = "pass-through";
  op.local = [](const SplitExtent&, const std::vector<std::string>& records,
                LocalOutput* out) {
    out->ToOutput("flushed");
    out->ToMerge("candidate:" + std::to_string(records.size()));
  };
  const auto rows = RunOperation(&cluster.runner, file, op).ValueOrDie();
  const size_t parts = file.global_index.NumPartitions();
  ASSERT_EQ(rows.size(), 2 * parts);
  // Without a merge function, candidates are appended unchanged after the
  // early-flushed rows.
  size_t total = 0;
  for (size_t i = parts; i < rows.size(); ++i) {
    ASSERT_EQ(rows[i].rfind("candidate:", 0), 0u) << rows[i];
    total += ParseInt64(rows[i].substr(std::string("candidate:").size()))
                 .ValueOrDie();
  }
  EXPECT_EQ(total, 300u);
}

// ---------------------------------------------------------------------
// Counters heterogeneous lookup

TEST(QueryPipelineTest, CountersAcceptStringViews) {
  mapreduce::Counters counters;
  counters.Increment("alpha");
  counters.Increment(std::string_view("alpha"), 2);
  counters.Increment(std::string("beta"), 5);
  EXPECT_EQ(counters.Get("alpha"), 3);
  EXPECT_EQ(counters.Get(std::string_view("beta")), 5);
  EXPECT_EQ(counters.Get("never-set"), 0);

  mapreduce::Counters other;
  other.Increment("alpha", 10);
  counters.MergeFrom(other);
  EXPECT_EQ(counters.Get("alpha"), 13);
}

}  // namespace
}  // namespace shadoop::core
