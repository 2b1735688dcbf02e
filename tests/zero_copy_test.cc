#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
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

TEST(BlockArenaTest, InternedViewsStayValidAcrossChunkGrowth) {
  BlockArena arena;
  std::vector<std::string> originals;
  std::vector<std::string_view> views;
  // Far more than one 16 KiB chunk, with sizes straddling the chunk
  // boundary, so growth allocates many new chunks while old views are
  // still held.
  for (int i = 0; i < 4000; ++i) {
    originals.push_back("record-" + std::to_string(i) + "-" +
                        std::string(static_cast<size_t>(i % 97), 'x'));
    views.push_back(arena.Intern(originals.back()));
  }
  // An interned view larger than the minimum chunk gets its own chunk.
  const std::string huge(64 * 1024, 'h');
  const std::string_view huge_view = arena.Intern(huge);
  for (size_t i = 0; i < views.size(); ++i) {
    EXPECT_EQ(views[i], originals[i]);
  }
  EXPECT_EQ(huge_view, huge);
  EXPECT_GT(arena.interned_bytes(), size_t{64} * 1024);
}

TEST(BlockArenaTest, AddBlockPinsPayloadBeyondCallerRelease) {
  BlockArena arena;
  std::vector<std::string_view> records;
  {
    auto payload = std::make_shared<const std::string>("1,2\n3,4\nuntermina"
                                                       "ted");
    records = arena.AddBlock(payload);
    // The caller's reference dies here; the arena's pin must keep the
    // bytes alive.
  }
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0], "1,2");
  EXPECT_EQ(records[1], "3,4");
  EXPECT_EQ(records[2], "unterminated");
  EXPECT_EQ(arena.pinned_blocks(), 1u);
}

TEST(BlockArenaTest, OpResultsOutliveArenaEviction) {
  // Views produced from arena bytes are materialized into owned strings
  // by every operation before they escape; this mirrors that flow and
  // lets ASan prove the owned results don't alias evicted chunks.
  std::vector<std::string> results;
  {
    BlockArena arena;
    for (int i = 0; i < 1000; ++i) {
      std::string_view v = arena.Intern("row-" + std::to_string(i));
      if (i % 3 == 0) results.emplace_back(v);
    }
    arena.Clear();  // Evicts every chunk; `results` must not notice.
    EXPECT_TRUE(arena.empty());
  }
  ASSERT_EQ(results.size(), 334u);
  EXPECT_EQ(results.front(), "row-0");
  EXPECT_EQ(results.back(), "row-999");
}

// ---------------------------------------------------------------------
// SpatialRecordReader: parse-once columns and reuse after Clear().

TEST(SpatialRecordReaderTest, GeometryIsParsedOncePerRecord) {
  SpatialRecordReader reader(ShapeType::kPoint);
  for (int i = 0; i < 100; ++i) {
    reader.Add(PointToCsv(Point(i, -i)));
  }
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
  SpatialRecordReader reader(ShapeType::kPoint);
  reader.Add(index::EncodeLocalIndexHeader(envelopes));
  reader.Add("0,0");
  reader.Add("5,5");
  ASSERT_TRUE(reader.has_local_index());
  index::ResetGeometryParseCount();
  const auto entries = reader.Envelopes();
  EXPECT_EQ(index::GeometryParseCount(), 0u);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[1].box, envelopes[1]);
}

TEST(SpatialRecordReaderTest, ClearDropsPreparsedEnvelopesAndColumns) {
  SpatialRecordReader reader(ShapeType::kPoint);
  reader.Add(index::EncodeLocalIndexHeader(
      {Envelope(1, 1, 1, 1), Envelope(2, 2, 2, 2)}));
  reader.Add("1,1");
  reader.Add("2,2");
  ASSERT_TRUE(reader.has_local_index());
  ASSERT_EQ(reader.Envelopes().size(), 2u);

  reader.Clear();
  EXPECT_EQ(reader.NumRecords(), 0u);
  EXPECT_FALSE(reader.has_local_index());
  EXPECT_EQ(reader.bad_records(), 0u);

  // Reuse with a different record count and NO header: were the two
  // stale preparsed envelopes still around, they would either be served
  // for the wrong records or trip has_local_index() at size 2.
  reader.Add("10,10");
  reader.Add("not-a-point");
  reader.Add("30,30");
  EXPECT_FALSE(reader.has_local_index());
  const auto entries = reader.Envelopes();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].box, Envelope::FromPoint(Point(10, 10)));
  EXPECT_EQ(entries[1].box, Envelope::FromPoint(Point(30, 30)));
  EXPECT_EQ(entries[1].payload, 2u);
  EXPECT_EQ(reader.bad_records(), 1u);
  EXPECT_EQ(reader.EnvelopeAt(1), nullptr);
}

TEST(SpatialRecordReaderTest, ClearAlsoReleasesInternedBytes) {
  SpatialRecordReader reader(ShapeType::kPoint);
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 500; ++i) {
      // Add() interns (the temporary dies immediately); records() views
      // must point at arena-owned bytes.
      reader.Add(PointToCsv(Point(round, i)));
    }
    ASSERT_EQ(reader.NumRecords(), 500u);
    EXPECT_EQ(reader.records().front(), PointToCsv(Point(round, 0)));
    EXPECT_EQ(reader.Points().size(), 500u);
    reader.Clear();
  }
  EXPECT_EQ(reader.NumRecords(), 0u);
}

TEST(SpatialRecordReaderTest, BorrowedViewsStableWhileArenaGrows) {
  // Mixing borrowed and interned records: growing the intern arena must
  // never move previously added records of either kind.
  const std::string stable_a = "1,2";
  const std::string stable_b = "3,4";
  SpatialRecordReader reader(ShapeType::kPoint);
  reader.AddBorrowed(stable_a);
  for (int i = 0; i < 2000; ++i) {
    reader.Add(PointToCsv(Point(i, i)));
  }
  reader.AddBorrowed(stable_b);
  EXPECT_EQ(reader.records().front(), "1,2");
  EXPECT_EQ(reader.records().back(), "3,4");
  EXPECT_EQ(reader.records().front().data(), stable_a.data());
  EXPECT_EQ(reader.Points().size(), 2002u);
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
