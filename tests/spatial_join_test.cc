#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/spatial_join.h"
#include "fault/fault_injector.h"
#include "geometry/wkt.h"
#include "index/index_builder.h"
#include "index/record_shape.h"
#include "test_util.h"

namespace shadoop::core {
namespace {

using index::PartitionScheme;

std::vector<Envelope> MakeRects(size_t count, uint64_t seed,
                                double max_side_fraction) {
  workload::RectGenOptions options;
  options.centers.count = count;
  options.centers.seed = seed;
  options.max_side_fraction = max_side_fraction;
  return workload::GenerateRectangles(options);
}

std::multiset<std::string> BruteForceJoin(const std::vector<Envelope>& a,
                                          const std::vector<Envelope>& b) {
  std::multiset<std::string> expected;
  for (const Envelope& ra : a) {
    for (const Envelope& rb : b) {
      if (ra.Intersects(rb)) {
        expected.insert(EnvelopeToCsv(ra) + std::string(1, kJoinSeparator) +
                        EnvelopeToCsv(rb));
      }
    }
  }
  return expected;
}

TEST(SpatialJoinTest, SjmrMatchesBruteForce) {
  testing::TestCluster cluster;
  const std::vector<Envelope> a = MakeRects(500, 5, 0.03);
  const std::vector<Envelope> b = MakeRects(400, 6, 0.03);
  ASSERT_TRUE(
      cluster.fs.WriteLines("/a", workload::RectanglesToRecords(a)).ok());
  ASSERT_TRUE(
      cluster.fs.WriteLines("/b", workload::RectanglesToRecords(b)).ok());
  auto result = SjmrJoin(&cluster.runner, "/a", index::ShapeType::kRectangle,
                         "/b", index::ShapeType::kRectangle)
                    .ValueOrDie();
  EXPECT_EQ(std::multiset<std::string>(result.begin(), result.end()),
            BruteForceJoin(a, b));
}

struct JoinCase {
  PartitionScheme scheme_a;
  PartitionScheme scheme_b;
};

class DistributedJoinSchemeTest : public ::testing::TestWithParam<JoinCase> {};

TEST_P(DistributedJoinSchemeTest, MatchesBruteForce) {
  testing::TestCluster cluster;
  const std::vector<Envelope> a = MakeRects(500, 15, 0.04);
  const std::vector<Envelope> b = MakeRects(350, 16, 0.04);
  ASSERT_TRUE(
      cluster.fs.WriteLines("/a", workload::RectanglesToRecords(a)).ok());
  ASSERT_TRUE(
      cluster.fs.WriteLines("/b", workload::RectanglesToRecords(b)).ok());
  const index::SpatialFileInfo file_a =
      testing::BuildIndex(&cluster.runner, "/a", "/a.idx",
                          GetParam().scheme_a, index::ShapeType::kRectangle);
  const index::SpatialFileInfo file_b =
      testing::BuildIndex(&cluster.runner, "/b", "/b.idx",
                          GetParam().scheme_b, index::ShapeType::kRectangle);
  auto result =
      DistributedJoin(&cluster.runner, file_a, file_b).ValueOrDie();
  EXPECT_EQ(std::multiset<std::string>(result.begin(), result.end()),
            BruteForceJoin(a, b));
}

INSTANTIATE_TEST_SUITE_P(
    SchemeMatrix, DistributedJoinSchemeTest,
    ::testing::Values(JoinCase{PartitionScheme::kGrid, PartitionScheme::kGrid},
                      JoinCase{PartitionScheme::kStr, PartitionScheme::kStr},
                      JoinCase{PartitionScheme::kQuadTree,
                               PartitionScheme::kQuadTree},
                      JoinCase{PartitionScheme::kStrPlus,
                               PartitionScheme::kStr},
                      JoinCase{PartitionScheme::kKdTree,
                               PartitionScheme::kZCurve},
                      JoinCase{PartitionScheme::kHilbert,
                               PartitionScheme::kGrid}),
    [](const ::testing::TestParamInfo<JoinCase>& info) {
      std::string name = index::PartitionSchemeName(info.param.scheme_a);
      name += "_";
      name += index::PartitionSchemeName(info.param.scheme_b);
      for (char& c : name) {
        if (!isalnum(static_cast<unsigned char>(c))) c = 'x';
      }
      return name;
    });

TEST(SpatialJoinTest, DjShufflesNothingAndBeatsSjmr) {
  testing::TestCluster cluster;
  const std::vector<Envelope> a = MakeRects(1500, 25, 0.02);
  const std::vector<Envelope> b = MakeRects(1200, 26, 0.02);
  ASSERT_TRUE(
      cluster.fs.WriteLines("/a", workload::RectanglesToRecords(a)).ok());
  ASSERT_TRUE(
      cluster.fs.WriteLines("/b", workload::RectanglesToRecords(b)).ok());
  const index::SpatialFileInfo file_a =
      testing::BuildIndex(&cluster.runner, "/a", "/a.idx",
                          PartitionScheme::kStr, index::ShapeType::kRectangle);
  const index::SpatialFileInfo file_b =
      testing::BuildIndex(&cluster.runner, "/b", "/b.idx",
                          PartitionScheme::kStr, index::ShapeType::kRectangle);

  OpStats sjmr_stats;
  OpStats dj_stats;
  auto sjmr = SjmrJoin(&cluster.runner, "/a", index::ShapeType::kRectangle,
                       "/b", index::ShapeType::kRectangle, &sjmr_stats)
                  .ValueOrDie();
  auto dj =
      DistributedJoin(&cluster.runner, file_a, file_b, &dj_stats).ValueOrDie();
  EXPECT_EQ(std::multiset<std::string>(sjmr.begin(), sjmr.end()),
            std::multiset<std::string>(dj.begin(), dj.end()));
  EXPECT_EQ(dj_stats.cost.bytes_shuffled, 0u) << "DJ is map-only";
  EXPECT_GT(sjmr_stats.cost.bytes_shuffled, 0u);
  EXPECT_LT(dj_stats.cost.total_ms, sjmr_stats.cost.total_ms);
}

TEST(SpatialJoinTest, PolygonJoinRefinesWithExactTest) {
  testing::TestCluster cluster;
  // Two polygons whose MBRs overlap but shapes do not: thin diagonal
  // triangles in opposite corners of the same box.
  const Polygon t1({{0, 0}, {10, 0}, {0, 1}});
  const Polygon t2({{10, 10}, {0, 10}, {10, 9}});
  // And two that really do intersect.
  const Polygon t3({{20, 0}, {30, 0}, {25, 10}});
  const Polygon t4({{20, 5}, {30, 5}, {25, -5}});
  ASSERT_TRUE(cluster.fs
                  .WriteLines("/pa", {ToWkt(t1), ToWkt(t3)})
                  .ok());
  ASSERT_TRUE(cluster.fs
                  .WriteLines("/pb", {ToWkt(t2), ToWkt(t4)})
                  .ok());
  auto result = SjmrJoin(&cluster.runner, "/pa", index::ShapeType::kPolygon,
                         "/pb", index::ShapeType::kPolygon)
                    .ValueOrDie();
  ASSERT_EQ(result.size(), 1u);
  auto pair = SplitJoinOutput(result.front()).ValueOrDie();
  EXPECT_EQ(pair.first, ToWkt(t3));
  EXPECT_EQ(pair.second, ToWkt(t4));
}

TEST(SpatialJoinTest, ColdDistributedJoinParsesEachReadBlockOnce) {
  // Join tasks that read one block at the same time share one build of
  // its polygon column, so a cold join parses each record of every
  // partition it reads exactly once, however its tasks interleave.
  testing::TestCluster cluster(16 * 1024);
  workload::PolygonGenOptions gen_a;
  gen_a.centers.count = 3000;
  gen_a.centers.seed = 41;
  gen_a.centers.distribution = workload::Distribution::kClustered;
  gen_a.max_radius_fraction = 0.03;
  workload::PolygonGenOptions gen_b = gen_a;
  gen_b.centers.count = 2000;
  gen_b.centers.seed = 42;
  ASSERT_TRUE(workload::WritePolygonFile(&cluster.fs, "/a", gen_a).ok());
  ASSERT_TRUE(workload::WritePolygonFile(&cluster.fs, "/b", gen_b).ok());
  const index::SpatialFileInfo file_a = testing::BuildIndex(
      &cluster.runner, "/a", "/a.idx", PartitionScheme::kStr,
      index::ShapeType::kPolygon);
  const index::SpatialFileInfo file_b = testing::BuildIndex(
      &cluster.runner, "/b", "/b.idx", PartitionScheme::kStr,
      index::ShapeType::kPolygon);

  const auto& parts_a = file_a.global_index.partitions();
  const auto& parts_b = file_b.global_index.partitions();
  std::vector<char> read_a(parts_a.size(), 0);
  std::vector<char> read_b(parts_b.size(), 0);
  for (size_t i = 0; i < parts_a.size(); ++i) {
    for (size_t j = 0; j < parts_b.size(); ++j) {
      if (parts_a[i].mbr.Intersects(parts_b[j].mbr)) read_a[i] = read_b[j] = 1;
    }
  }
  uint64_t read_records = 0;
  for (size_t i = 0; i < parts_a.size(); ++i) {
    if (read_a[i]) read_records += parts_a[i].num_records;
  }
  for (size_t j = 0; j < parts_b.size(); ++j) {
    if (read_b[j]) read_records += parts_b[j].num_records;
  }
  ASSERT_GT(read_records, 0u);

  std::vector<std::string> first_rows;
  for (int run = 0; run < 3; ++run) {
    mapreduce::JobRunner runner(&cluster.fs,
                                testing::TestCluster::MakeCluster(4));
    index::ResetGeometryParseCount();
    const std::vector<std::string> rows =
        DistributedJoin(&runner, file_a, file_b).ValueOrDie();
    EXPECT_EQ(index::GeometryParseCount(), read_records) << "run " << run;
    if (run == 0) {
      EXPECT_FALSE(rows.empty());
      first_rows = rows;
    } else {
      EXPECT_EQ(rows, first_rows) << "run " << run;
    }
  }
}

/// `file` rewritten into `path`, one block per partition: each block
/// gets a '#' comment line and a malformed polygon line after every fifth
/// record. With local indexes the #lidx header is re-encoded over the new
/// records, giving each malformed one its partition's MBR: such a record
/// reaches the refine without a ring and matches on its envelope.
index::SpatialFileInfo WithOddLines(hdfs::FileSystem* fs,
                                    const index::SpatialFileInfo& file,
                                    const std::string& path) {
  const std::vector<std::string> malformed = {
      "POLYGON ((1 1", "not a polygon", "POLYGON ((0 0, 1 1, 0 0))"};
  auto writer = fs->Create(path).ValueOrDie();
  std::vector<index::Partition> parts = file.global_index.partitions();
  for (size_t p = 0; p < parts.size(); ++p) {
    std::vector<std::string> records = {"# partition " + std::to_string(p)};
    for (const std::string& line :
         fs->ReadBlock(file.data_path, parts[p].block_index).ValueOrDie()) {
      if (index::IsMetadataRecord(line)) continue;
      records.push_back(line);
      if (records.size() % 5 == 0) {
        records.push_back(malformed[records.size() % malformed.size()]);
      }
    }
    std::string payload;
    size_t lines = records.size();
    if (file.has_local_indexes) {
      std::vector<Envelope> envelopes;
      for (const std::string& record : records) {
        if (index::IsMetadataRecord(record)) continue;
        const auto env =
            index::RecordEnvelope(index::ShapeType::kPolygon, record);
        envelopes.push_back(env.ok() ? env.value() : parts[p].mbr);
      }
      payload = index::EncodeLocalIndexHeader(envelopes) + "\n";
      ++lines;
    }
    for (const std::string& record : records) payload += record + "\n";
    parts[p].num_records = records.size();
    parts[p].num_bytes = payload.size();
    parts[p].block_index = p;
    writer->AppendBlock(std::move(payload), lines);
  }
  SHADOOP_CHECK_OK(writer->Close());
  index::SpatialFileInfo odd = file;
  odd.data_path = path;
  odd.global_index =
      index::GlobalIndex(file.global_index.scheme(), std::move(parts));
  return odd;
}

TEST(SpatialJoinTest, PolygonJoinWithOddLinesIsTheSameCachedOrNot) {
  // A polygon DJ over blocks with malformed and '#' lines gives the same
  // rows, join.results and JobCost with the artifact cache on and cold,
  // off (an inactive fault injector installed), and on and warm.
  testing::TestCluster cluster(16 * 1024);
  workload::PolygonGenOptions gen;
  gen.centers.count = 1500;
  gen.centers.seed = 43;
  gen.centers.distribution = workload::Distribution::kClustered;
  gen.max_radius_fraction = 0.03;
  ASSERT_TRUE(workload::WritePolygonFile(&cluster.fs, "/a", gen).ok());
  gen.centers.seed = 44;
  ASSERT_TRUE(workload::WritePolygonFile(&cluster.fs, "/b", gen).ok());
  index::IndexBuilder builder(&cluster.runner);
  index::IndexBuildOptions options;
  options.scheme = PartitionScheme::kStr;
  options.shape = index::ShapeType::kPolygon;
  const index::SpatialFileInfo file_a = WithOddLines(
      &cluster.fs, builder.Build("/a", "/a.idx", options).ValueOrDie(),
      "/a.odd");
  options.build_local_indexes = true;
  const index::SpatialFileInfo file_b = WithOddLines(
      &cluster.fs, builder.Build("/b", "/b.idx", options).ValueOrDie(),
      "/b.odd");
  ASSERT_TRUE(file_b.has_local_indexes);

  struct Run {
    std::vector<std::string> rows;
    OpStats stats;
  };
  mapreduce::JobRunner runner(&cluster.fs,
                              testing::TestCluster::MakeCluster(4));
  const auto run = [&] {
    Run r;
    r.rows = DistributedJoin(&runner, file_a, file_b, &r.stats).ValueOrDie();
    return r;
  };
  const Run cold = run();
  fault::FaultInjector inactive{fault::FaultPolicy()};
  runner.set_fault_injector(&inactive);
  const Run off = run();
  runner.set_fault_injector(nullptr);
  const Run warm = run();

  ASSERT_FALSE(cold.rows.empty());
  EXPECT_EQ(cold.stats.counters.Get("join.results"),
            static_cast<int64_t>(cold.rows.size()));
  // Some malformed B records matched on their #lidx envelopes alone.
  EXPECT_TRUE(std::any_of(cold.rows.begin(), cold.rows.end(),
                          [](const std::string& row) {
                            return row.ends_with("not a polygon") ||
                                   row.ends_with("POLYGON ((1 1") ||
                                   row.ends_with("POLYGON ((0 0, 1 1, 0 0))");
                          }));
  for (const Run* other : {&off, &warm}) {
    SCOPED_TRACE(other == &off ? "cache off" : "warm cache");
    EXPECT_EQ(other->rows, cold.rows);
    EXPECT_EQ(other->stats.counters.values(), cold.stats.counters.values());
    const mapreduce::JobCost& c = cold.stats.cost;
    const mapreduce::JobCost& o = other->stats.cost;
    EXPECT_EQ(o.total_ms, c.total_ms);
    EXPECT_EQ(o.map_makespan_ms, c.map_makespan_ms);
    EXPECT_EQ(o.bytes_read, c.bytes_read);
    EXPECT_EQ(o.bytes_written, c.bytes_written);
    EXPECT_EQ(o.num_map_tasks, c.num_map_tasks);
  }
}

TEST(LocalJoinTest, KernelsFindIdenticalPairs) {
  Random rng(44);
  std::vector<index::PackedRTree::Entry> a;
  std::vector<index::PackedRTree::Entry> b;
  for (uint32_t i = 0; i < 400; ++i) {
    const double x = rng.NextDouble(0, 100);
    const double y = rng.NextDouble(0, 100);
    a.push_back({Envelope(x, y, x + rng.NextDouble(0, 3),
                          y + rng.NextDouble(0, 3)),
                 i});
  }
  for (uint32_t i = 0; i < 300; ++i) {
    const double x = rng.NextDouble(0, 100);
    const double y = rng.NextDouble(0, 100);
    b.push_back({Envelope(x, y, x + rng.NextDouble(0, 3),
                          y + rng.NextDouble(0, 3)),
                 i});
  }
  std::multiset<std::pair<uint32_t, uint32_t>> rtree_pairs;
  std::multiset<std::pair<uint32_t, uint32_t>> sweep_pairs;
  LocalJoinPairs(a, b, LocalJoinAlgorithm::kRTreeProbe,
                 [&](uint32_t pa, uint32_t pb) {
                   rtree_pairs.insert({pa, pb});
                 });
  LocalJoinPairs(a, b, LocalJoinAlgorithm::kPlaneSweep,
                 [&](uint32_t pa, uint32_t pb) {
                   sweep_pairs.insert({pa, pb});
                 });
  EXPECT_EQ(rtree_pairs, sweep_pairs);
  EXPECT_FALSE(rtree_pairs.empty());
}

TEST(LocalJoinTest, EmptySidesYieldNothing) {
  std::vector<index::PackedRTree::Entry> some = {{Envelope(0, 0, 1, 1), 0}};
  for (LocalJoinAlgorithm algorithm :
       {LocalJoinAlgorithm::kRTreeProbe, LocalJoinAlgorithm::kPlaneSweep}) {
    int emitted = 0;
    LocalJoinPairs({}, some, algorithm, [&](uint32_t, uint32_t) { ++emitted; });
    LocalJoinPairs(some, {}, algorithm, [&](uint32_t, uint32_t) { ++emitted; });
    EXPECT_EQ(emitted, 0);
  }
}

TEST(SpatialJoinTest, PlaneSweepKernelMatchesRTreeInBothJoins) {
  testing::TestCluster cluster;
  const std::vector<Envelope> a = MakeRects(400, 45, 0.04);
  const std::vector<Envelope> b = MakeRects(300, 46, 0.04);
  ASSERT_TRUE(
      cluster.fs.WriteLines("/a", workload::RectanglesToRecords(a)).ok());
  ASSERT_TRUE(
      cluster.fs.WriteLines("/b", workload::RectanglesToRecords(b)).ok());
  const auto expected = BruteForceJoin(a, b);

  SjmrOptions sjmr_options;
  sjmr_options.local_algorithm = LocalJoinAlgorithm::kPlaneSweep;
  auto sjmr = SjmrJoin(&cluster.runner, "/a", index::ShapeType::kRectangle,
                       "/b", index::ShapeType::kRectangle, nullptr,
                       sjmr_options)
                  .ValueOrDie();
  EXPECT_EQ(std::multiset<std::string>(sjmr.begin(), sjmr.end()), expected);

  const auto file_a =
      testing::BuildIndex(&cluster.runner, "/a", "/a.idx",
                          PartitionScheme::kGrid, index::ShapeType::kRectangle);
  const auto file_b =
      testing::BuildIndex(&cluster.runner, "/b", "/b.idx",
                          PartitionScheme::kGrid, index::ShapeType::kRectangle);
  DjOptions dj_options;
  dj_options.local_algorithm = LocalJoinAlgorithm::kPlaneSweep;
  auto dj = DistributedJoin(&cluster.runner, file_a, file_b, nullptr,
                            dj_options)
                .ValueOrDie();
  EXPECT_EQ(std::multiset<std::string>(dj.begin(), dj.end()), expected);
}

TEST(SpatialJoinTest, JoinOutputCodecRoundTrips) {
  const std::string left = "1,2,3,4";
  const std::string right = "5,6,7,8";
  auto pair =
      SplitJoinOutput(left + std::string(1, kJoinSeparator) + right)
          .ValueOrDie();
  EXPECT_EQ(pair.first, left);
  EXPECT_EQ(pair.second, right);
  EXPECT_FALSE(SplitJoinOutput("no-separator").ok());
}

}  // namespace
}  // namespace shadoop::core
