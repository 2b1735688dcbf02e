#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "catalog/dataset_catalog.h"
#include "common/string_util.h"
#include "core/range_query.h"
#include "fault/fault_injector.h"
#include "geometry/wkt.h"
#include "index/index_builder.h"
#include "test_util.h"

namespace shadoop::index {
namespace {

// ---------------------------------------------------------------------------
// Block layout contract. Builds and catalog appends write every partition
// block through EncodePartitionBlock + AppendPartitionBlock; these checks
// pin what that pair must produce, whatever thread encoded the block.

/// Reads `part`'s block and checks it against the partition's metadata:
/// the `#lidx` header (when `lidx`) encodes the envelopes of the records
/// after it, no record is metadata, and num_records, num_bytes and mbr
/// describe the block. With `sorted`, records must be in byte order (the
/// shuffle's value order, which bulk builds keep).
void ExpectBlockLayout(const hdfs::FileSystem& fs, const std::string& data_path,
                       const Partition& part, ShapeType shape, bool lidx,
                       bool sorted) {
  SCOPED_TRACE("partition " + std::to_string(part.id));
  const std::vector<std::string> lines =
      fs.ReadBlock(PartitionSourcePath(part, data_path), part.block_index)
          .ValueOrDie();
  uint64_t bytes = 0;
  for (const std::string& line : lines) bytes += line.size() + 1;
  EXPECT_EQ(part.num_bytes, bytes);
  ASSERT_FALSE(lidx && lines.empty());
  const std::vector<std::string> records(lines.begin() + (lidx ? 1 : 0),
                                         lines.end());
  EXPECT_EQ(part.num_records, records.size());
  std::vector<Envelope> envelopes;
  Envelope mbr;
  for (const std::string& record : records) {
    EXPECT_FALSE(IsMetadataRecord(record)) << record;
    auto env = RecordEnvelope(shape, record);
    envelopes.push_back(env.ok() ? env.value() : Envelope());
    mbr.ExpandToInclude(envelopes.back());
  }
  EXPECT_EQ(part.mbr, mbr);
  if (lidx) {
    EXPECT_EQ(lines.front(), EncodeLocalIndexHeader(envelopes));
  }
  if (sorted) {
    EXPECT_TRUE(std::is_sorted(records.begin(), records.end()));
  }
}

void ExpectIndexLayout(const hdfs::FileSystem& fs,
                       const SpatialFileInfo& info) {
  ASSERT_GT(info.global_index.NumPartitions(), 1u);
  for (const Partition& part : info.global_index.partitions()) {
    ExpectBlockLayout(fs, info.data_path, part, info.shape,
                      info.has_local_indexes, /*sorted=*/true);
  }
}

class IndexBuilderSchemeTest
    : public ::testing::TestWithParam<PartitionScheme> {};

TEST_P(IndexBuilderSchemeTest, BuildsLoadableIndexPreservingAllRecords) {
  testing::TestCluster cluster;
  const std::vector<Point> points = testing::WritePoints(
      &cluster.fs, "/points", 3000, workload::Distribution::kClustered);

  const SpatialFileInfo built = testing::BuildIndex(
      &cluster.runner, "/points", "/points.idx", GetParam());

  // The master file loads back to the same global index.
  const SpatialFileInfo loaded =
      LoadSpatialFile(cluster.fs, "/points.idx").ValueOrDie();
  EXPECT_EQ(loaded.global_index.scheme(), GetParam());
  EXPECT_EQ(loaded.shape, ShapeType::kPoint);
  ASSERT_EQ(loaded.global_index.NumPartitions(),
            built.global_index.NumPartitions());

  // Every input point appears in the data file exactly once (points are
  // never replicated) and in the partition covering it.
  std::multiset<std::string> input;
  for (const Point& p : points) input.insert(PointToCsv(p));
  std::multiset<std::string> stored;
  hdfs::FileMeta meta =
      cluster.fs.GetFileMeta("/points.idx").ValueOrDie();
  ASSERT_EQ(meta.blocks.size(), built.global_index.NumPartitions());
  for (const Partition& part : built.global_index.partitions()) {
    const std::vector<std::string> records =
        cluster.fs.ReadBlock("/points.idx", part.block_index).ValueOrDie();
    EXPECT_EQ(records.size(), part.num_records);
    for (const std::string& record : records) {
      stored.insert(record);
      const Point p = RecordPoint(record).ValueOrDie();
      EXPECT_TRUE(part.mbr.Contains(p));
      if (IsDisjointScheme(GetParam())) {
        EXPECT_TRUE(part.cell.Contains(p))
            << "cell " << part.cell.ToString() << " point " << p.x << ","
            << p.y;
      }
    }
  }
  EXPECT_EQ(input, stored);
  ExpectIndexLayout(cluster.fs, built);
}

TEST_P(IndexBuilderSchemeTest, PartitionMbrsAreTight) {
  testing::TestCluster cluster;
  testing::WritePoints(&cluster.fs, "/points", 1500);
  const SpatialFileInfo built = testing::BuildIndex(
      &cluster.runner, "/points", "/points.idx", GetParam());
  for (const Partition& part : built.global_index.partitions()) {
    Envelope recomputed;
    for (const std::string& record :
         cluster.fs.ReadBlock("/points.idx", part.block_index).ValueOrDie()) {
      recomputed.ExpandToInclude(RecordPoint(record).ValueOrDie());
    }
    EXPECT_EQ(recomputed, part.mbr);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, IndexBuilderSchemeTest,
    ::testing::ValuesIn(testing::AllSchemes()),
    [](const ::testing::TestParamInfo<PartitionScheme>& info) {
      std::string name = PartitionSchemeName(info.param);
      for (char& c : name) {
        if (!isalnum(static_cast<unsigned char>(c))) c = 'x';
      }
      return name;
    });

TEST(IndexBuilderTest, RectanglesAreReplicatedAcrossDisjointCells) {
  testing::TestCluster cluster;
  workload::RectGenOptions options;
  options.centers.count = 800;
  options.centers.seed = 7;
  options.max_side_fraction = 0.08;  // Large rects to force replication.
  const std::vector<Envelope> rects = workload::GenerateRectangles(options);
  ASSERT_TRUE(cluster.fs
                  .WriteLines("/rects", workload::RectanglesToRecords(rects))
                  .ok());
  const SpatialFileInfo built =
      testing::BuildIndex(&cluster.runner, "/rects", "/rects.idx",
                          PartitionScheme::kGrid, ShapeType::kRectangle);
  size_t stored = 0;
  for (const Partition& part : built.global_index.partitions()) {
    stored += part.num_records;
  }
  EXPECT_GT(stored, rects.size());  // Replication happened.

  // Every stored copy intersects its partition cell.
  for (const Partition& part : built.global_index.partitions()) {
    for (const std::string& record :
         cluster.fs.ReadBlock("/rects.idx", part.block_index).ValueOrDie()) {
      const Envelope env = RecordRectangle(record).ValueOrDie();
      EXPECT_TRUE(env.Intersects(part.cell));
    }
  }
  ExpectIndexLayout(cluster.fs, built);
}

TEST(IndexBuilderTest, FailsOnMissingSource) {
  testing::TestCluster cluster;
  IndexBuilder builder(&cluster.runner);
  IndexBuildOptions options;
  EXPECT_TRUE(builder.Build("/missing", "/idx", options).status().IsNotFound());
}

TEST(IndexBuilderTest, FailsOnExistingDestination) {
  testing::TestCluster cluster;
  testing::WritePoints(&cluster.fs, "/points", 100);
  ASSERT_TRUE(cluster.fs.WriteLines("/idx", {"x"}).ok());
  IndexBuilder builder(&cluster.runner);
  IndexBuildOptions options;
  EXPECT_TRUE(
      builder.Build("/points", "/idx", options).status().IsAlreadyExists());
}

TEST(IndexBuilderTest, BuildCostIncludesBothJobs) {
  testing::TestCluster cluster;
  testing::WritePoints(&cluster.fs, "/points", 2000);
  const SpatialFileInfo built = testing::BuildIndex(
      &cluster.runner, "/points", "/points.idx", PartitionScheme::kStr);
  // Analysis + partition jobs, each paying a job startup.
  EXPECT_GE(built.build_cost.total_ms,
            2 * cluster.runner.cluster().job_startup_ms);
  EXPECT_GT(built.build_cost.bytes_read, 0u);
  EXPECT_GT(built.build_cost.bytes_shuffled, 0u);
}

TEST(IndexBuilderTest, TargetPartitionsHonoured) {
  testing::TestCluster cluster;
  testing::WritePoints(&cluster.fs, "/points", 2000);
  IndexBuilder builder(&cluster.runner);
  IndexBuildOptions options;
  options.scheme = PartitionScheme::kKdTree;
  options.target_partitions = 8;
  const SpatialFileInfo built =
      builder.Build("/points", "/points.idx", options).ValueOrDie();
  EXPECT_EQ(built.global_index.NumPartitions(), 8u);
}

TEST(IndexBuilderTest, PolygonLocalIndexBlocksFollowLayoutContract) {
  testing::TestCluster cluster;
  workload::PolygonGenOptions polygons;
  polygons.centers.count = 600;
  polygons.centers.seed = 5;
  polygons.centers.distribution = workload::Distribution::kClustered;
  ASSERT_TRUE(workload::WritePolygonFile(&cluster.fs, "/polys", polygons).ok());
  IndexBuilder builder(&cluster.runner);
  IndexBuildOptions options;
  options.scheme = PartitionScheme::kStr;
  options.shape = ShapeType::kPolygon;
  options.build_local_indexes = true;
  const SpatialFileInfo built =
      builder.Build("/polys", "/polys.idx", options).ValueOrDie();
  ASSERT_TRUE(built.has_local_indexes);
  ExpectIndexLayout(cluster.fs, built);
}

TEST(IndexBuilderTest, AppendedBlocksFollowLayoutContract) {
  testing::TestCluster cluster;
  testing::WritePoints(&cluster.fs, "/points", 2000);
  testing::WritePoints(&cluster.fs, "/batch", 300,
                       workload::Distribution::kUniform, /*seed=*/9);
  catalog::DatasetCatalog catalog(&cluster.runner);
  IndexBuildOptions options;
  options.scheme = PartitionScheme::kStr;
  options.build_local_indexes = true;
  ASSERT_TRUE(catalog.Create("pts", "/points", "/pts.idx", options).ok());
  ASSERT_TRUE(catalog.Append("pts", "/batch").ok());
  const SpatialFileInfo appended = catalog.Snapshot("pts").ValueOrDie();
  const std::string delta =
      catalog::DatasetCatalog::DeltaPathFor(appended.data_path);
  size_t rewritten = 0;
  for (const Partition& part : appended.global_index.partitions()) {
    rewritten += part.source_path == delta ? 1 : 0;
    // Appends merge new records after old ones: no byte order to check.
    ExpectBlockLayout(cluster.fs, appended.data_path, part, ShapeType::kPoint,
                      /*lidx=*/true, /*sorted=*/false);
  }
  EXPECT_GT(rewritten, 0u);
}

// ---------------------------------------------------------------------------
// One parse per source record: the analysis and partition jobs read each
// source block's envelopes through the runner's artifact cache. A hit
// saves host time only, so the bytes, charges and counters of a build are
// the same with the cache on (cold or warm) and off.

struct BuildOutput {
  SpatialFileInfo info;
  std::vector<std::string> blocks;  // Every block payload, in order.
  std::vector<std::string> master;
  uint64_t parses = 0;
};

BuildOutput BuildAndRead(testing::TestCluster* cluster, const std::string& src,
                         const std::string& dst,
                         const IndexBuildOptions& options) {
  BuildOutput out;
  const uint64_t parses_before = GeometryParseCount();
  out.info = IndexBuilder(&cluster->runner)
                 .Build(src, dst, options)
                 .ValueOrDie();
  out.parses = GeometryParseCount() - parses_before;
  const hdfs::FileMeta meta = cluster->fs.GetFileMeta(dst).ValueOrDie();
  for (size_t b = 0; b < meta.blocks.size(); ++b) {
    out.blocks.push_back(*cluster->fs.ReadBlockRaw(dst, b).ValueOrDie());
  }
  out.master = cluster->fs.ReadLines(out.info.master_path).ValueOrDie();
  return out;
}

/// Builds `src` three times on one runner: with the cache on and cold,
/// with it off (an inactive fault injector installed), and on and warm.
/// All three must write the same blocks and master, and charge and count
/// the same. Returns the cold and warm parse counts.
std::pair<uint64_t, uint64_t> ExpectCacheChangesNoByte(
    testing::TestCluster* cluster, const std::string& src,
    const IndexBuildOptions& options) {
  const BuildOutput cold = BuildAndRead(cluster, src, src + ".cold", options);
  fault::FaultInjector inactive{fault::FaultPolicy()};
  cluster->runner.set_fault_injector(&inactive);
  const BuildOutput off = BuildAndRead(cluster, src, src + ".off", options);
  cluster->runner.set_fault_injector(nullptr);
  const BuildOutput warm = BuildAndRead(cluster, src, src + ".warm", options);
  EXPECT_FALSE(cold.blocks.empty());
  for (const BuildOutput* other : {&off, &warm}) {
    SCOPED_TRACE(other == &off ? "cache off" : "warm cache");
    EXPECT_EQ(other->blocks, cold.blocks);
    EXPECT_EQ(other->master, cold.master);
    EXPECT_EQ(other->info.build_counters.values(),
              cold.info.build_counters.values());
    EXPECT_EQ(other->info.build_cost.total_ms, cold.info.build_cost.total_ms);
    EXPECT_EQ(other->info.build_cost.bytes_shuffled,
              cold.info.build_cost.bytes_shuffled);
    EXPECT_EQ(other->info.build_cost.bytes_written,
              cold.info.build_cost.bytes_written);
  }
  // Without the cache, both jobs parse what the cold build's analysis
  // job parsed alone.
  EXPECT_GT(off.parses, cold.parses);
  return {cold.parses, warm.parses};
}

// The partition job's records carry their parsed envelopes through the
// shuffle, so the blocks are encoded without a parse: a cold build parses
// each source record once (the analysis job), a warm one none.

TEST(IndexBuilderCacheTest, PointBuildParsesOnceColdAndNeverWarm) {
  testing::TestCluster cluster;
  constexpr size_t kPoints = 3000;
  testing::WritePoints(&cluster.fs, "/points", kPoints,
                       workload::Distribution::kClustered);
  IndexBuildOptions options;
  options.scheme = PartitionScheme::kStr;
  const auto [cold, warm] =
      ExpectCacheChangesNoByte(&cluster, "/points", options);
  EXPECT_EQ(cold, kPoints);
  EXPECT_EQ(warm, 0u);
}

TEST(IndexBuilderCacheTest, PolygonsWithLocalIndexesWriteTheSameBytes) {
  testing::TestCluster cluster;
  workload::PolygonGenOptions polygons;
  polygons.centers.count = 600;
  polygons.centers.seed = 5;
  ASSERT_TRUE(workload::WritePolygonFile(&cluster.fs, "/polys", polygons).ok());
  IndexBuildOptions options;
  options.scheme = PartitionScheme::kStr;
  options.shape = ShapeType::kPolygon;
  options.build_local_indexes = true;
  const auto [cold, warm] =
      ExpectCacheChangesNoByte(&cluster, "/polys", options);
  EXPECT_EQ(cold, 600u);
  EXPECT_EQ(warm, 0u);
}

TEST(IndexBuilderCacheTest, ReplicatedCopiesCarryTheirFullEnvelopes) {
  testing::TestCluster cluster;
  workload::RectGenOptions rects;
  rects.centers.count = 800;
  rects.centers.seed = 11;
  rects.max_side_fraction = 0.08;  // Large rects, copied into many cells.
  std::vector<std::string> lines = workload::RectanglesToRecords(
      workload::GenerateRectangles(rects));
  lines.insert(lines.begin() + 400, "1,2,3");  // Malformed.
  ASSERT_TRUE(cluster.fs.WriteLines("/rects", lines).ok());
  IndexBuildOptions options;
  options.scheme = PartitionScheme::kGrid;
  options.shape = ShapeType::kRectangle;
  options.build_local_indexes = true;
  const auto [cold, warm] =
      ExpectCacheChangesNoByte(&cluster, "/rects", options);
  EXPECT_EQ(cold, lines.size());
  EXPECT_EQ(warm, 0u);
  // Each copy's block holds it with its whole envelope, not the part
  // inside the cell: in the partition MBR and in the `#lidx` header.
  for (const char* build : {".cold", ".off", ".warm"}) {
    SCOPED_TRACE(build);
    const SpatialFileInfo info =
        LoadSpatialFile(cluster.fs, std::string("/rects") + build)
            .ValueOrDie();
    ExpectIndexLayout(cluster.fs, info);
    size_t stored = 0;
    int beyond_cell = 0;
    for (const Partition& part : info.global_index.partitions()) {
      stored += part.num_records;
      beyond_cell += part.cell.Contains(part.mbr) ? 0 : 1;
    }
    EXPECT_GT(stored, lines.size());  // Replication happened.
    EXPECT_GT(beyond_cell, 0);
  }
  const BuildOutput built =
      BuildAndRead(&cluster, "/rects", "/rects.idx", options);
  EXPECT_EQ(built.info.build_counters.Get("partition.bad_records"), 1);
}

TEST(IndexBuilderCacheTest, MalformedAndMetadataLinesCountTheSame) {
  testing::TestCluster cluster;
  std::vector<std::string> lines = workload::PointsToRecords(
      workload::GeneratePoints(workload::PointGenOptions()));
  lines.resize(1500);
  // Metadata lines are skipped; the others fail to parse, or parse to
  // coordinates whose envelope centre overflows.
  const std::vector<std::string> odd = {
      "#comment", "", "not-a-point", "1,2,3", "1e308,1.7e308",
      "-1.7e308,5", "#lidx 1,1,1,1", "x,y", "inf,0"};
  for (size_t i = 0; i < odd.size(); ++i) {
    lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(i * 150),
                 odd[i]);
  }
  int64_t malformed = 0;
  for (const std::string& line : lines) {
    malformed += !IsMetadataRecord(line) && !RecordPoint(line).ok() ? 1 : 0;
  }
  ASSERT_GT(malformed, 0);
  ASSERT_TRUE(cluster.fs.WriteLines("/odd", lines).ok());
  IndexBuildOptions options;
  options.scheme = PartitionScheme::kGrid;
  ExpectCacheChangesNoByte(&cluster, "/odd", options);
  const BuildOutput built = BuildAndRead(&cluster, "/odd", "/odd.idx", options);
  EXPECT_EQ(built.info.build_counters.Get("analysis.bad_records"), malformed);
  EXPECT_EQ(built.info.build_counters.Get("partition.bad_records"), malformed);
}

TEST(IndexBuilderCacheTest, NonFiniteCoordinatesAreBadRecords) {
  // One `inf` point among 2,000 once stretched Grid's cells to infinity,
  // so every window query came back empty, made QuadTree store extra
  // copies, and left masters that failed to load; a `nan` point was
  // stored and never counted. Both are bad records now.
  workload::PointGenOptions gen;
  gen.count = 2000;
  const std::vector<Point> points = workload::GeneratePoints(gen);
  Envelope space;
  for (const Point& p : points) space.ExpandToInclude(p);
  const Point mid = space.Center();
  const std::vector<Envelope> quadrants = {
      Envelope(space.min_x(), space.min_y(), mid.x, mid.y),
      Envelope(mid.x, space.min_y(), space.max_x(), mid.y),
      Envelope(space.min_x(), mid.y, mid.x, space.max_y()),
      Envelope(mid.x, mid.y, space.max_x(), space.max_y())};
  for (const char* extra : {"inf,3", "nan,5"}) {
    for (PartitionScheme scheme : {PartitionScheme::kGrid,
                                   PartitionScheme::kStr,
                                   PartitionScheme::kQuadTree}) {
      SCOPED_TRACE(std::string(extra) + " " + PartitionSchemeName(scheme));
      testing::TestCluster cluster;
      std::vector<std::string> lines = workload::PointsToRecords(points);
      lines.insert(lines.begin() + 1000, extra);
      ASSERT_TRUE(cluster.fs.WriteLines("/pts", lines).ok());
      const SpatialFileInfo built = testing::BuildIndex(
          &cluster.runner, "/pts", "/pts.idx", scheme);
      EXPECT_EQ(built.build_counters.Get("partition.bad_records"), 1);
      auto loaded = LoadSpatialFile(cluster.fs, "/pts.idx");
      ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
      size_t stored = 0;
      for (const Partition& part : loaded->global_index.partitions()) {
        stored += part.num_records;
      }
      EXPECT_EQ(stored, points.size());
      for (const Envelope& window : quadrants) {
        std::multiset<std::string> expected;
        for (const Point& p : points) {
          if (window.Contains(p)) expected.insert(PointToCsv(p));
        }
        const std::vector<std::string> rows =
            core::RangeQuerySpatial(&cluster.runner, *loaded, window)
                .ValueOrDie();
        EXPECT_EQ(std::multiset<std::string>(rows.begin(), rows.end()),
                  expected);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// A master file that disagrees with its blocks fails the load with a
// ParseError naming the master and the line, instead of loading and then
// answering without some blocks or failing a task attempt.

class CorruptMasterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    testing::WritePoints(&cluster_.fs, "/pts", 2000);
    info_ = testing::BuildIndex(&cluster_.runner, "/pts", "/pts.idx",
                                PartitionScheme::kStr);
    lines_ = cluster_.fs.ReadLines(info_.master_path).ValueOrDie();
    ASSERT_GT(lines_.size(), 3u);  // Header plus several partitions.
  }

  /// Writes `lines` as the master and expects the load to fail with a
  /// ParseError naming the master file and `where`.
  void ExpectLoadFails(const std::vector<std::string>& lines,
                       const std::string& where) {
    SHADOOP_CHECK_OK(cluster_.fs.Delete(info_.master_path));
    SHADOOP_CHECK_OK(cluster_.fs.WriteLines(info_.master_path, lines));
    const Status status = LoadSpatialFile(cluster_.fs, "/pts.idx").status();
    EXPECT_TRUE(status.IsParseError()) << status.ToString();
    EXPECT_NE(status.message().find(info_.master_path + " " + where + ":"),
              std::string::npos)
        << status.ToString();
  }

  /// The master with field `field` of 1-based line `line` set to `value`.
  std::vector<std::string> WithField(size_t line, size_t field,
                                     const std::string& value) const {
    std::vector<std::string> lines = lines_;
    std::vector<std::string_view> fields = SplitString(lines[line - 1], ',');
    fields[field] = value;
    std::string joined;
    for (size_t i = 0; i < fields.size(); ++i) {
      if (i > 0) joined += ",";
      joined += fields[i];
    }
    lines[line - 1] = joined;
    return lines;
  }

  std::string Field(size_t line, size_t field) const {
    return std::string(SplitString(lines_[line - 1], ',')[field]);
  }

  testing::TestCluster cluster_;
  SpatialFileInfo info_;
  std::vector<std::string> lines_;
};

constexpr size_t kIdField = 0;
constexpr size_t kBlockField = 1;
constexpr size_t kCellField = 2;  // cell x1,y1,x2,y2 in fields 2-5
constexpr size_t kMbrField = 6;   // mbr x1,y1,x2,y2 in fields 6-9
constexpr size_t kRecordsField = 10;
constexpr size_t kBytesField = 11;

TEST_F(CorruptMasterTest, IntactMasterLoads) {
  const SpatialFileInfo loaded =
      LoadSpatialFile(cluster_.fs, "/pts.idx").ValueOrDie();
  EXPECT_EQ(loaded.global_index.NumPartitions(), lines_.size() - 1);
}

TEST_F(CorruptMasterTest, DroppedPartitionLineFailsTheLoad) {
  std::vector<std::string> lines = lines_;
  lines.pop_back();
  ExpectLoadFails(lines, "lines 2-" + std::to_string(lines.size()));
}

TEST_F(CorruptMasterTest, BlockPastTheEndFailsTheLoad) {
  const size_t last = lines_.size();
  const std::string blocks = std::to_string(lines_.size() - 1);
  ExpectLoadFails(WithField(last, kBlockField, blocks),
                  "line " + std::to_string(last));
}

TEST_F(CorruptMasterTest, NegativeFieldsFailTheLoad) {
  ExpectLoadFails(WithField(2, kBlockField, "-1"), "line 2");
  ExpectLoadFails(WithField(3, kRecordsField, "-5"), "line 3");
}

TEST_F(CorruptMasterTest, ByteCountThatDisagreesWithItsBlockFailsTheLoad) {
  // A truncated (or swapped) block: the line's num_bytes no longer
  // matches what the block holds.
  const std::string bytes = Field(3, kBytesField);
  const std::string fewer = std::to_string(std::stoull(bytes) - 1);
  ExpectLoadFails(WithField(3, kBytesField, fewer), "line 3");
  const Status status = LoadSpatialFile(cluster_.fs, "/pts.idx").status();
  const std::string block = "block " + Field(3, kBlockField) + " of /pts.idx";
  EXPECT_NE(status.message().find(block + " holds " + bytes +
                                  " bytes, but the line says " + fewer),
            std::string::npos)
      << status.ToString();
}

TEST_F(CorruptMasterTest, TwoPartitionsNamingOneBlockFailTheLoad) {
  ExpectLoadFails(WithField(3, kBlockField, Field(2, kBlockField)), "line 3");
}

TEST_F(CorruptMasterTest, PartitionIdThatIsNotItsPositionFailsTheLoad) {
  // The splitter, kNN and the cost model index partitions() by the ids
  // the partition filters return: with the first two ids swapped, a range
  // query over partition 0's MBR would read partition 1's block instead.
  std::vector<std::string> lines = WithField(2, kIdField, Field(3, kIdField));
  lines[2] = WithField(3, kIdField, Field(2, kIdField))[2];
  ExpectLoadFails(lines, "line 2");
  const Status status = LoadSpatialFile(cluster_.fs, "/pts.idx").status();
  EXPECT_NE(status.message().find("partition id 1 at position 0"),
            std::string::npos)
      << status.ToString();
}

TEST_F(CorruptMasterTest, ImpossibleMbrFailsTheLoad) {
  // Neither finite with min <= max nor the canonical empty box: an
  // inverted MBR (its partition would never be read), a NaN MBR, a NaN
  // cell (the disjoint schemes' reference-point test would reject every
  // record) and an infinite cell corner.
  ExpectLoadFails(WithField(2, kMbrField, "1e300"), "line 2");
  ExpectLoadFails(WithField(3, kMbrField + 1, "nan"), "line 3");
  ExpectLoadFails(WithField(2, kCellField, "nan"), "line 2");
  ExpectLoadFails(WithField(3, kCellField + 3, "inf"), "line 3");
}

}  // namespace
}  // namespace shadoop::index
