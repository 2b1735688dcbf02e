#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/aggregate_op.h"
#include "core/knn.h"
#include "core/range_query.h"
#include "core/spatial_record_reader.h"
#include "geometry/wkt.h"
#include "hdfs/block_arena.h"
#include "index/record_shape.h"
#include "mapreduce/artifact_cache.h"
#include "cpu_affinity.h"
#include "mapreduce/thread_pool.h"
#include "test_util.h"

namespace shadoop {
namespace {

using core::SpatialRecordReader;
using hdfs::BlockArena;
using index::ShapeType;

// ---------------------------------------------------------------------
// BlockArena lifetime guarantees. These tests are part of the ASan suite
// (scripts/check.sh): a violated lifetime contract shows up as a
// use-after-free under the sanitizer, not just a value mismatch.

TEST(BlockArenaTest, AddBlockPinsPayloadBeyondCallerRelease) {
  BlockArena arena;
  hdfs::RecordIndex index;
  hdfs::BlockRecords records;
  {
    auto payload = std::make_shared<const std::string>("1,2\n3,4\nuntermina"
                                                       "ted");
    index = hdfs::RecordIndex::Build(*payload);
    records = arena.AddBlock(payload, index);
    // The caller's reference dies here; the arena's pin must keep the
    // bytes alive.
  }
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0], "1,2");
  EXPECT_EQ(records[1], "3,4");
  EXPECT_EQ(records[2], "unterminated");
  EXPECT_EQ(arena.pinned_blocks(), 1u);
}

// ---------------------------------------------------------------------
// SpatialRecordReader: parse-once columns and reuse after Clear().

TEST(SpatialRecordReaderTest, GeometryIsParsedOncePerRecord) {
  std::vector<std::string> lines;
  for (int i = 0; i < 100; ++i) lines.push_back(PointToCsv(Point(i, -i)));
  SpatialRecordReader reader(ShapeType::kPoint);
  for (const std::string& line : lines) reader.AddBorrowed(line);
  index::ResetGeometryParseCount();
  const auto first = reader.Envelopes();
  EXPECT_EQ(index::GeometryParseCount(), 100u);
  // Every later access — repeat accessors, point lookups, the R-tree
  // bulk load — reads the memoized columns.
  const auto second = reader.Envelopes();
  reader.Points();
  const index::PackedRTree local(reader.Envelopes());
  for (size_t i = 0; i < reader.NumRecords(); ++i) {
    ASSERT_NE(reader.EnvelopeAt(i), nullptr);
    ASSERT_NE(reader.PointAt(i), nullptr);
  }
  EXPECT_EQ(index::GeometryParseCount(), 100u);
  ASSERT_EQ(first.size(), second.size());
}

TEST(SpatialRecordReaderTest, LocalIndexHeaderFeedsEnvelopesWithoutParsing) {
  std::vector<Envelope> envelopes = {Envelope(0, 0, 0, 0),
                                     Envelope(5, 5, 5, 5)};
  const std::string header = index::EncodeLocalIndexHeader(envelopes);
  SpatialRecordReader reader(ShapeType::kPoint);
  reader.AddBorrowed(header);
  reader.AddBorrowed("0,0");
  reader.AddBorrowed("5,5");
  ASSERT_TRUE(reader.has_local_index());
  index::ResetGeometryParseCount();
  const auto entries = reader.Envelopes();
  EXPECT_EQ(index::GeometryParseCount(), 0u);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[1].box, envelopes[1]);
}

TEST(SpatialRecordReaderTest, ClearDropsPreparsedEnvelopesAndColumns) {
  const std::string header = index::EncodeLocalIndexHeader(
      {Envelope(1, 1, 1, 1), Envelope(2, 2, 2, 2)});
  SpatialRecordReader reader(ShapeType::kPoint);
  reader.AddBorrowed(header);
  reader.AddBorrowed("1,1");
  reader.AddBorrowed("2,2");
  ASSERT_TRUE(reader.has_local_index());
  ASSERT_EQ(reader.Envelopes().size(), 2u);

  reader.Clear();
  EXPECT_EQ(reader.NumRecords(), 0u);
  EXPECT_FALSE(reader.has_local_index());
  EXPECT_EQ(reader.bad_records(), 0u);

  // Reuse with a different record count and NO header: were the two
  // stale preparsed envelopes still around, they would either be served
  // for the wrong records or trip has_local_index() at size 2.
  reader.AddBorrowed("10,10");
  reader.AddBorrowed("not-a-point");
  reader.AddBorrowed("30,30");
  EXPECT_FALSE(reader.has_local_index());
  const auto entries = reader.Envelopes();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].box, Envelope::FromPoint(Point(10, 10)));
  EXPECT_EQ(entries[1].box, Envelope::FromPoint(Point(30, 30)));
  EXPECT_EQ(entries[1].payload, 2u);
  EXPECT_EQ(reader.bad_records(), 1u);
  EXPECT_EQ(reader.EnvelopeAt(1), nullptr);
}

// ---------------------------------------------------------------------
// SpatialRecordReader::AddBlock: a whole block in one call leaves the
// reader exactly as per-record AddBorrowed leaves it.

/// Same vertices bit for bit (NaN and -0.0 included), and same bounds.
void ExpectSameRing(const RingView& got, const RingView& want) {
  ASSERT_EQ(got.ring.size(), want.ring.size());
  for (size_t v = 0; v < got.ring.size(); ++v) {
    EXPECT_EQ(std::bit_cast<uint64_t>(got.ring[v].x),
              std::bit_cast<uint64_t>(want.ring[v].x))
        << "vertex " << v;
    EXPECT_EQ(std::bit_cast<uint64_t>(got.ring[v].y),
              std::bit_cast<uint64_t>(want.ring[v].y))
        << "vertex " << v;
  }
  EXPECT_EQ(got.bounds, want.bounds);
}

/// Feeds `blocks` (each a list of lines, stored newline-terminated) to one
/// reader through AddBlock and to another through per-record
/// AddBorrowed, then compares everything a caller can observe. With
/// `cached`, each reader is attached to its own artifact cache, so the
/// header decode goes through the cache path too. Without it, columns
/// are built after every block, so a later block must invalidate them.
void ExpectBlockFeedMatchesPerRecordFeed(
    ShapeType shape, const std::vector<std::vector<std::string>>& blocks,
    bool cached) {
  SCOPED_TRACE(cached ? "cached" : "uncached");
  std::vector<std::string> payloads;
  for (const std::vector<std::string>& lines : blocks) {
    std::string payload;
    for (const std::string& line : lines) payload += line + "\n";
    payloads.push_back(std::move(payload));
  }
  mapreduce::ArtifactCache cache_block(16);
  mapreduce::ArtifactCache cache_record(16);
  SpatialRecordReader by_block(shape);
  SpatialRecordReader by_record(shape);
  if (cached) {
    by_block.AttachCache(&cache_block, /*block_id=*/7);
    by_record.AttachCache(&cache_record, /*block_id=*/7);
  }
  for (const std::string& payload : payloads) {
    const hdfs::RecordIndex index = hdfs::RecordIndex::Build(payload);
    const hdfs::BlockRecords block{payload, &index};
    by_block.AddBlock(block);
    for (size_t i = 0; i < block.size(); ++i) by_record.AddBorrowed(block[i]);
    if (!cached) {
      EXPECT_EQ(by_block.EnvelopeAt(0) == nullptr,
                by_record.EnvelopeAt(0) == nullptr);
    }
  }

  ASSERT_EQ(by_block.records(), by_record.records());
  for (size_t i = 0; i < by_block.NumRecords(); ++i) {
    // Same bytes, not just equal text: both borrow from the payload.
    EXPECT_EQ(by_block.records()[i].data(), by_record.records()[i].data());
  }
  EXPECT_EQ(by_block.has_local_index(), by_record.has_local_index());
  EXPECT_EQ(by_block.bad_records(), by_record.bad_records());

  // Every column, record by record, then the vector accessors that count
  // malformed records.
  for (size_t i = 0; i < by_block.NumRecords(); ++i) {
    const Envelope* a = by_block.EnvelopeAt(i);
    const Envelope* b = by_record.EnvelopeAt(i);
    ASSERT_EQ(a == nullptr, b == nullptr) << "record " << i;
    if (a != nullptr) {
      EXPECT_EQ(*a, *b) << "record " << i;
    }
    if (shape == ShapeType::kPoint) {
      const Point* pa = by_block.PointAt(i);
      const Point* pb = by_record.PointAt(i);
      ASSERT_EQ(pa == nullptr, pb == nullptr) << "record " << i;
      if (pa != nullptr) {
        EXPECT_EQ(*pa, *pb) << "record " << i;
      }
    }
    if (shape == ShapeType::kPolygon) {
      SCOPED_TRACE("record " + std::to_string(i));
      const RingView ring = by_block.PolygonAt(i);
      ExpectSameRing(ring, by_record.PolygonAt(i));
      // The column holds what a per-record parse returns, and an empty
      // ring for a malformed record.
      const Result<Polygon> parsed =
          index::RecordPolygon(by_block.records()[i]);
      ExpectSameRing(ring, parsed.ok() ? parsed.value().View() : RingView{});
    }
  }
  const auto entries_block = by_block.Envelopes();
  const auto entries_record = by_record.Envelopes();
  ASSERT_EQ(entries_block.size(), entries_record.size());
  for (size_t i = 0; i < entries_block.size(); ++i) {
    EXPECT_EQ(entries_block[i].box, entries_record[i].box);
    EXPECT_EQ(entries_block[i].payload, entries_record[i].payload);
  }
  if (shape == ShapeType::kPoint) {
    EXPECT_EQ(by_block.Points(), by_record.Points());
  }
  if (shape == ShapeType::kPolygon) {
    const std::vector<Polygon> got = by_block.Polygons();
    const std::vector<Polygon> want = by_record.Polygons();
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      ExpectSameRing(got[i].View(), want[i].View());
    }
  }
  EXPECT_EQ(by_block.bad_records(), by_record.bad_records());
}

void ExpectBlockFeedMatchesPerRecordFeed(
    ShapeType shape, const std::vector<std::vector<std::string>>& blocks) {
  ExpectBlockFeedMatchesPerRecordFeed(shape, blocks, /*cached=*/false);
  // A cache attachment promises a reader that holds exactly one block.
  if (blocks.size() == 1) {
    ExpectBlockFeedMatchesPerRecordFeed(shape, blocks, /*cached=*/true);
  }
}

std::string Header(const std::vector<Point>& points) {
  std::vector<Envelope> envelopes;
  for (const Point& p : points) envelopes.push_back(Envelope::FromPoint(p));
  return index::EncodeLocalIndexHeader(envelopes);
}

TEST(SpatialRecordReaderBlockTest, LeadingLidxHeader) {
  const std::string payload =
      Header({Point(1, 1), Point(2, 2), Point(3, 3)}) + "\n1,1\n2,2\n3,3\n";
  const hdfs::RecordIndex index = hdfs::RecordIndex::Build(payload);
  SpatialRecordReader reader(ShapeType::kPoint);
  reader.AddBlock({payload, &index});
  EXPECT_TRUE(reader.has_local_index());
  EXPECT_EQ(reader.NumRecords(), 3u);
  ExpectBlockFeedMatchesPerRecordFeed(
      ShapeType::kPoint,
      {{Header({Point(1, 1), Point(2, 2), Point(3, 3)}), "1,1", "2,2",
        "3,3"}});
}

TEST(SpatialRecordReaderBlockTest, HeaderThatIsNotFirst) {
  const std::string header = Header({Point(1, 1), Point(2, 2)});
  ExpectBlockFeedMatchesPerRecordFeed(ShapeType::kPoint,
                                      {{"1,1", header, "2,2"}});
  ExpectBlockFeedMatchesPerRecordFeed(ShapeType::kPoint,
                                      {{"1,1", "2,2", header}});
  // Two headers: each is consumed where it sits, in order.
  ExpectBlockFeedMatchesPerRecordFeed(
      ShapeType::kPoint,
      {{header, "1,1", Header({Point(9, 9)}), "2,2"}});
}

TEST(SpatialRecordReaderBlockTest, SecondHeaderWinsCachedOrNot) {
  // Each header that decodes replaces the previous one, so record 0 takes
  // its envelope from the second header: uncached, through a cold cache
  // and through a warm one, fed by block or by record.
  const std::string payload = "#lidx 1,1,1,1\n#lidx 9,9,9,9\n5,5\n";
  const hdfs::RecordIndex index = hdfs::RecordIndex::Build(payload);
  const hdfs::BlockRecords block{payload, &index};
  for (bool by_block : {true, false}) {
    mapreduce::ArtifactCache cache(16);
    for (int pass = 0; pass < 3; ++pass) {
      SCOPED_TRACE(std::string(by_block ? "by block" : "by record") +
                   ", pass " + std::to_string(pass));
      SpatialRecordReader reader(ShapeType::kPoint);
      if (pass > 0) reader.AttachCache(&cache, /*block_id=*/7);
      if (by_block) {
        reader.AddBlock(block);
      } else {
        for (size_t i = 0; i < block.size(); ++i) reader.AddBorrowed(block[i]);
      }
      ASSERT_EQ(reader.NumRecords(), 1u);
      EXPECT_TRUE(reader.has_local_index());
      ASSERT_NE(reader.EnvelopeAt(0), nullptr);
      EXPECT_EQ(*reader.EnvelopeAt(0), Envelope::FromPoint(Point(9, 9)));
    }
  }
}

TEST(SpatialRecordReaderBlockTest, EmptyLinesAndMalformedRecords) {
  ExpectBlockFeedMatchesPerRecordFeed(
      ShapeType::kPoint, {{"", "1,1", "", "", "not-a-point", "2,2", ""}});
  ExpectBlockFeedMatchesPerRecordFeed(
      ShapeType::kPolygon,
      {{"POLYGON ((0 0, 4 0, 4 4, 0 0))", "", "POLYGON ((1 1",
        "POLYGON ((2 2, 6 2, 6 6, 2 2))"}});
  // Rings of different sizes around malformed ones, NaN, infinite and
  // signed-zero coordinates, attributes after a tab, and a #lidx header:
  // in one block (cached and not) and over several.
  const std::vector<std::string> polygons = {
      "POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))\tid=1",
      "POLYGON ((0 0, 1 1))",
      "POLYGON ((-0 0, 3 nan, 1 -0, inf 2, -0 0))",
      "POLYGON ((1 1, 2 1, 2 2), (0 0, 1 0, 1 1))",
      "POLYGON ((5 5, 9 5, 9 9, 7 11, 5 9, 5 5))",
      "garbage"};
  std::vector<std::string> with_header = polygons;
  with_header.insert(
      with_header.begin() + 2,
      index::EncodeLocalIndexHeader(std::vector<Envelope>(
          polygons.size(), Envelope(0, 0, 1, 1))));
  ExpectBlockFeedMatchesPerRecordFeed(ShapeType::kPolygon, {polygons});
  ExpectBlockFeedMatchesPerRecordFeed(ShapeType::kPolygon, {with_header});
  ExpectBlockFeedMatchesPerRecordFeed(
      ShapeType::kPolygon,
      {{polygons[0], polygons[1]}, {}, {polygons[2], polygons[3]},
       {polygons[4], polygons[5], polygons[0]}});
  ExpectBlockFeedMatchesPerRecordFeed(ShapeType::kRectangle,
                                      {{"0,0,1,1", "", "2,2,3,3"}});
}

TEST(SpatialRecordReaderBlockTest, HeaderCountDisagreesWithRecords) {
  // Two envelopes for three records: no usable local index either way.
  ExpectBlockFeedMatchesPerRecordFeed(
      ShapeType::kPoint,
      {{Header({Point(1, 1), Point(2, 2)}), "1,1", "2,2", "3,3"}});
  // A header that does not decode is dropped either way.
  ExpectBlockFeedMatchesPerRecordFeed(ShapeType::kPoint,
                                      {{"#lidx garbage", "1,1", "2,2"}});
}

TEST(SpatialRecordReaderBlockTest, EmptyBlocksAndSeveralBlocksInOneReader) {
  ExpectBlockFeedMatchesPerRecordFeed(ShapeType::kPoint, {{}});
  ExpectBlockFeedMatchesPerRecordFeed(ShapeType::kPoint, {{Header({})}});
  // A pair split's B side: several partition blocks, with headers and
  // without. Columns built over the first block must not survive the
  // records of the next.
  ExpectBlockFeedMatchesPerRecordFeed(
      ShapeType::kPoint,
      {{Header({Point(1, 1)}), "1,1"},
       {},
       {Header({Point(5, 5), Point(6, 6)}), "5,5", "6,6"}});
  ExpectBlockFeedMatchesPerRecordFeed(ShapeType::kPoint,
                                      {{"1,1"}, {"2,2", "3,3"}, {"4,4"}});
}

TEST(SpatialRecordReaderBlockTest, ManyBlocksGrowTheRecordsGeometrically) {
  // A knn_join verify split can hand one reader every partition of B. The
  // record vector must grow geometrically across blocks, not be resized
  // exactly (and copied whole) once per block.
  constexpr int kBlocks = 2000;
  std::vector<std::string> payloads;
  for (int i = 0; i < kBlocks; ++i) {
    payloads.push_back(std::to_string(i) + "," + std::to_string(i) + "\n");
  }
  std::vector<hdfs::RecordIndex> indexes;
  for (const std::string& payload : payloads) {
    indexes.push_back(hdfs::RecordIndex::Build(payload));
  }
  SpatialRecordReader reader(ShapeType::kPoint);
  int reallocations = 0;
  for (int i = 0; i < kBlocks; ++i) {
    const std::string_view* before = reader.records().data();
    reader.AddBlock({payloads[i], &indexes[i]});
    if (i > 0 && reader.records().data() != before) ++reallocations;
  }
  ASSERT_EQ(reader.NumRecords(), static_cast<size_t>(kBlocks));
  EXPECT_LE(reallocations, 32);
  for (int i = 0; i < kBlocks; ++i) {
    EXPECT_EQ(reader.records()[i].data(), payloads[i].data());
  }
  EXPECT_EQ(reader.Points().size(), static_cast<size_t>(kBlocks));
}

// ---------------------------------------------------------------------
// End-to-end: a job over a local-indexed file parses nothing, and the
// parse count never exceeds one per record processed.

TEST(ZeroCopyJobTest, IndexedQueriesParseNothingWithPersistedLidx) {
  testing::TestCluster cluster;
  const std::vector<Point> points =
      testing::WritePoints(&cluster.fs, "/pts", 3000);
  index::IndexBuilder builder(&cluster.runner);
  index::IndexBuildOptions options;
  options.scheme = index::PartitionScheme::kStr;
  options.build_local_indexes = true;
  const auto file = builder.Build("/pts", "/pts.idx", options).ValueOrDie();

  const Envelope query(2e5, 2e5, 7e5, 7e5);
  const Point q(4e5, 6e5);
  const size_t k = 20;
  index::ResetGeometryParseCount();
  const auto rows =
      core::RangeQuerySpatial(&cluster.runner, file, query).ValueOrDie();
  const auto neighbors =
      core::KnnSpatial(&cluster.runner, file, q, k).ValueOrDie();
  core::OpStats count_stats;
  const int64_t count =
      core::RangeCountSpatial(&cluster.runner, file, query, &count_stats)
          .ValueOrDie();
  // Every envelope comes from the persisted #lidx headers.
  EXPECT_EQ(index::GeometryParseCount(), 0u);
  EXPECT_GT(count_stats.counters.Get("count.scanned_partitions"), 0);

  size_t expected = 0;
  std::vector<double> distances;
  for (const Point& p : points) {
    expected += query.Contains(p);
    distances.push_back(Distance(p, q));
  }
  EXPECT_EQ(rows.size(), expected);
  EXPECT_EQ(count, static_cast<int64_t>(expected));
  std::sort(distances.begin(), distances.end());
  ASSERT_EQ(neighbors.size(), k);
  for (size_t i = 0; i < k; ++i) {
    EXPECT_NEAR(neighbors[i].distance, distances[i], 1e-9) << "rank " << i;
  }
}

TEST(ZeroCopyJobTest, RepeatedKnnAndCountParseNothingWithoutLidx) {
  testing::TestCluster cluster;
  testing::WritePoints(&cluster.fs, "/pts", 3000);
  const auto file = testing::BuildIndex(&cluster.runner, "/pts", "/pts.idx",
                                        index::PartitionScheme::kStr);
  ASSERT_FALSE(file.has_local_indexes);

  const Envelope query(2e5, 2e5, 7e5, 7e5);
  const Point q(4e5, 6e5);
  struct Answers {
    std::vector<core::KnnAnswer> knn_spatial;
    std::vector<core::KnnAnswer> knn_hadoop;
    int64_t count_spatial = 0;
    int64_t count_hadoop = 0;
  };
  auto run = [&] {
    Answers a;
    a.knn_spatial = core::KnnSpatial(&cluster.runner, file, q, 20).ValueOrDie();
    a.knn_hadoop =
        core::KnnHadoop(&cluster.runner, "/pts", ShapeType::kPoint, q, 20)
            .ValueOrDie();
    a.count_spatial =
        core::RangeCountSpatial(&cluster.runner, file, query).ValueOrDie();
    a.count_hadoop = core::RangeCountHadoop(&cluster.runner, "/pts",
                                            ShapeType::kPoint, query)
                         .ValueOrDie();
    return a;
  };
  auto expect_same = [](const std::vector<core::KnnAnswer>& got,
                        const std::vector<core::KnnAnswer>& want) {
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].distance, want[i].distance) << "rank " << i;
      EXPECT_EQ(got[i].record, want[i].record) << "rank " << i;
    }
  };
  const Answers cold = run();
  index::ResetGeometryParseCount();
  const Answers warm = run();
  // The second run adopts the geometry columns the first one parsed.
  EXPECT_EQ(index::GeometryParseCount(), 0u);
  expect_same(warm.knn_spatial, cold.knn_spatial);
  expect_same(warm.knn_hadoop, cold.knn_hadoop);
  EXPECT_EQ(warm.count_spatial, cold.count_spatial);
  EXPECT_EQ(warm.count_hadoop, cold.count_hadoop);
}

TEST(ZeroCopyJobTest, UnindexedScanParsesEachRecordAtMostOnce) {
  testing::TestCluster cluster;
  testing::WritePoints(&cluster.fs, "/pts", 2000);
  index::ResetGeometryParseCount();
  const Envelope query(0, 0, 5e5, 5e5);
  const auto rows = core::RangeQueryHadoop(&cluster.runner, "/pts",
                                           ShapeType::kPoint, query)
                        .ValueOrDie();
  EXPECT_FALSE(rows.empty());
  EXPECT_LE(index::GeometryParseCount(), 2000u);
}

// ---------------------------------------------------------------------
// ParallelFor.

TEST(ParallelForTest, CoversEveryIndexAndToleratesNesting) {
  std::vector<std::atomic<int>> hits(512);
  mapreduce::ParallelFor(hits.size(), 8, [&](size_t i) {
    // A nested call queues behind the outer batch like any other call;
    // it must cover every index without deadlocking.
    if (i == 0) {
      mapreduce::ParallelFor(4, 4, [&](size_t j) { hits[j].fetch_add(0); });
    }
    hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, NestedCallsFromEveryItemCoverEveryIndex) {
  constexpr size_t kOuter = 16;
  constexpr size_t kInner = 64;
  std::vector<std::atomic<int>> hits(kOuter * kInner * 2);
  mapreduce::ParallelFor(kOuter, 8, [&](size_t i) {
    mapreduce::ParallelFor(kInner, 8, [&](size_t j) {
      // Two levels below the outer call: every wait still points at a
      // deeper call, so none can close a cycle.
      mapreduce::ParallelFor(2, 2, [&](size_t k) {
        hits[(i * kInner + j) * 2 + k].fetch_add(1);
      });
    });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, ConcurrentCallersEachCoverEveryIndex) {
  constexpr size_t kCallers = 4;
  constexpr size_t kIndices = 2000;
  std::vector<std::vector<std::atomic<int>>> hits(kCallers);
  for (auto& h : hits) h = std::vector<std::atomic<int>>(kIndices);
  std::vector<std::thread> callers;
  for (size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      mapreduce::ParallelFor(kIndices, 8,
                             [&](size_t i) { hits[c][i].fetch_add(1); });
    });
  }
  for (std::thread& caller : callers) caller.join();
  for (const auto& per_caller : hits) {
    for (const auto& h : per_caller) EXPECT_EQ(h.load(), 1);
  }
}

// Records which thread ran each of 256 indices. Each index takes a
// moment, so any lane a call gets does claim some of them.
std::vector<std::thread::id> RunnersOf256Indices() {
  std::vector<std::thread::id> ran_on(256);
  mapreduce::ParallelFor(ran_on.size(), 8, [&](size_t i) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
    ran_on[i] = std::this_thread::get_id();
  });
  return ran_on;
}

TEST(ParallelForTest, OneCpuCallerRunsEveryIndexOnItsOwnThread) {
  if (!testing::kCanNarrowCpus) GTEST_SKIP() << "no CPU affinity masks";
  const testing::ScopedCpus one_cpu(1);
  const std::vector<std::thread::id> ran_on = RunnersOf256Indices();
  for (const std::thread::id& id : ran_on) {
    EXPECT_EQ(id, std::this_thread::get_id());
  }
}

TEST(ParallelForTest, TwoCpuCallerUsesAtMostTwoThreads) {
  if (!testing::kCanNarrowCpus) GTEST_SKIP() << "no CPU affinity masks";
  const testing::ScopedCpus two_cpus(2);
  std::vector<std::thread::id> ran_on = RunnersOf256Indices();
  std::sort(ran_on.begin(), ran_on.end());
  EXPECT_LE(std::unique(ran_on.begin(), ran_on.end()) - ran_on.begin(), 2);
}

TEST(ParallelForTest, ParseCountIsExactAcrossPoolThreads) {
  constexpr size_t kThreads = 8;
  constexpr size_t kCallsPerThread = 20000;
  index::ResetGeometryParseCount();
  std::atomic<size_t> failed{0};
  mapreduce::ParallelFor(kThreads, static_cast<int>(kThreads), [&](size_t) {
    for (size_t i = 0; i < kCallsPerThread; ++i) {
      if (!index::RecordPoint("1.5,-2.5\tid=1").ok()) failed.fetch_add(1);
    }
  });
  EXPECT_EQ(failed.load(), 0u);
  EXPECT_EQ(index::GeometryParseCount(), kThreads * kCallsPerThread);
}

TEST(ParallelForTest, SerialAndParallelProduceSameAggregate) {
  auto run = [&](int lanes) {
    std::vector<uint64_t> out(1000);
    mapreduce::ParallelFor(out.size(), lanes,
                           [&](size_t i) { out[i] = i * i; });
    uint64_t sum = 0;
    for (uint64_t v : out) sum += v;
    return sum;
  };
  const uint64_t serial = run(1);
  EXPECT_EQ(run(4), serial);
  EXPECT_EQ(run(64), serial);
}

}  // namespace
}  // namespace shadoop
