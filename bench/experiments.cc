// The experiments of EXPERIMENTS.md, E1-E13. Each function builds its
// datasets on fresh BenchClusters, runs its operations in a fixed order
// and returns one Row per configuration. Every value is simulated, so
// the rows are the same on every machine; only host_ms is not.

#include "experiments.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <tuple>

#include "bench_common.h"
#include "common/stopwatch.h"
#include "core/aggregate_op.h"
#include "core/closest_pair_op.h"
#include "core/convex_hull_op.h"
#include "core/farthest_pair_op.h"
#include "core/knn.h"
#include "core/knn_join.h"
#include "core/range_query.h"
#include "core/skyline_op.h"
#include "core/spatial_join.h"
#include "core/union_op.h"
#include "geometry/skyline.h"
#include "geometry/wkt.h"
#include "index/record_shape.h"
#include "pigeon/executor.h"
#include "pigeon/parser.h"
#include "viz/plot.h"

namespace shadoop::bench {

Row& Row::Set(std::string name, double value) {
  values.emplace_back(std::move(name), value);
  return *this;
}

double Row::operator[](std::string_view name) const {
  for (const auto& [key, value] : values) {
    if (key == name) return value;
  }
  std::fprintf(stderr, "row %s has no value %.*s\n", label.c_str(),
               static_cast<int>(name.size()), name.data());
  std::abort();
}

size_t Scaled(size_t full, double scale) {
  return static_cast<size_t>(std::llround(static_cast<double>(full) * scale));
}

namespace {

using index::PartitionScheme;
using index::ShapeType;
using workload::Distribution;

constexpr PartitionScheme kSchemes[] = {
    PartitionScheme::kGrid,    PartitionScheme::kStr,
    PartitionScheme::kStrPlus, PartitionScheme::kQuadTree,
    PartitionScheme::kKdTree,  PartitionScheme::kZCurve,
    PartitionScheme::kHilbert,
};

std::string Label(std::string_view name, size_t arg) {
  return std::string(name) + "/" + std::to_string(arg);
}

/// Appends a row with the values every operation reports: `sim_s`
/// (simulated cluster seconds, the metric EXPERIMENTS.md tabulates),
/// bytes read and shuffled, map tasks and jobs. Returns the row, so
/// callers can add their own values.
Row& AddStatsRow(Rows* rows, std::string label, const core::OpStats& stats) {
  return rows->emplace_back(std::move(label))
      .Set("sim_s", stats.cost.total_ms / 1000.0)
      .Set("MB_read", stats.cost.bytes_read / 1048576.0)
      .Set("MB_shuffled", stats.cost.bytes_shuffled / 1048576.0)
      .Set("map_tasks", stats.cost.num_map_tasks)
      .Set("jobs", stats.jobs_run);
}

/// Max/avg records per partition.
double Balance(const index::GlobalIndex& gi) {
  size_t max_records = 0;
  size_t total = 0;
  for (const index::Partition& p : gi.partitions()) {
    max_records = std::max(max_records, p.num_records);
    total += p.num_records;
  }
  return max_records / (static_cast<double>(total) / gi.NumPartitions());
}

/// `count` points (seed 42) on a cluster of their own, indexed with STR.
struct StrPoints {
  StrPoints(size_t count, Distribution dist, size_t block_size = 64 * 1024)
      : cluster(block_size) {
    WritePoints(&cluster.fs, "/pts", count, dist, 42);
    file = BuildIndex(&cluster.runner, "/pts", "/pts.str",
                      PartitionScheme::kStr);
  }
  BenchCluster cluster;
  index::SpatialFileInfo file;
};

/// Writes clustered rectangle files `a` and `b`, then indexes both with
/// STR into `<path>.str`. Returns the two indexes.
std::pair<index::SpatialFileInfo, index::SpatialFileInfo> StrRectPair(
    BenchCluster* cluster, const std::string& a, size_t count_a,
    uint64_t seed_a, const std::string& b, size_t count_b, uint64_t seed_b,
    double max_side_fraction) {
  WriteRects(&cluster->fs, a, count_a, seed_a, max_side_fraction);
  WriteRects(&cluster->fs, b, count_b, seed_b, max_side_fraction);
  return {BuildIndex(&cluster->runner, a, a + ".str", PartitionScheme::kStr,
                     ShapeType::kRectangle),
          BuildIndex(&cluster->runner, b, b + ".str", PartitionScheme::kStr,
                     ShapeType::kRectangle)};
}

/// The n log n CPU charge of a single-machine CG algorithm.
uint64_t NLogNOps(size_t n, double factor) {
  return static_cast<uint64_t>(
      n > 1 ? n * std::log2(static_cast<double>(n)) * factor : n);
}

/// The E12(b) ablation: a skyline mapper without local pruning, which
/// forwards every point to the single reducer (a naive MapReduce port).
class ForwardAllMapper : public mapreduce::Mapper {
 public:
  void Map(std::string_view record, mapreduce::MapContext& ctx) override {
    ctx.Emit("S", record);
  }
};

class GlobalSkylineReducer : public mapreduce::Reducer {
 public:
  void Reduce(std::string_view /*key*/, std::span<const std::string_view> values,
              mapreduce::ReduceContext& ctx) override {
    std::vector<Point> points;
    points.reserve(values.size());
    for (std::string_view value : values) {
      auto p = ParsePointCsv(value);
      if (p.ok()) points.push_back(p.value());
    }
    ctx.ChargeCpu(NLogNOps(points.size(), 20));
    for (const Point& p : Skyline(std::move(points))) {
      ctx.Write(PointToCsv(p));
    }
  }
};

}  // namespace

// E1: simulated build time of each technique over uniform and clustered
// points as the input grows.
Rows E1IndexBuild(double scale) {
  // Each build runs on a fresh cluster; its input is generated once.
  std::map<std::pair<size_t, bool>, std::vector<std::string>> inputs;
  Rows rows;
  for (PartitionScheme scheme : kSchemes) {
    for (size_t full : {25000, 50000, 100000}) {
      for (bool clustered : {false, true}) {
        const size_t count = Scaled(full, scale);
        std::vector<std::string>& input = inputs[{count, clustered}];
        if (input.empty()) {
          input = PointRecords(count,
                               clustered ? Distribution::kClustered
                                         : Distribution::kUniform,
                               42);
        }
        BenchCluster cluster;
        SHADOOP_CHECK_OK(cluster.fs.WriteLines("/pts", input));
        const index::SpatialFileInfo info =
            BuildIndex(&cluster.runner, "/pts", "/pts.idx", scheme);
        rows.emplace_back(Label(std::string("IndexBuild/") +
                                    index::PartitionSchemeName(scheme) +
                                    (clustered ? "/clustered" : "/uniform"),
                                count))
            .Set("sim_s", info.build_cost.total_ms / 1000.0)
            .Set("partitions", info.global_index.NumPartitions())
            .Set("MB_shuffled", info.build_cost.bytes_shuffled / 1048576.0);
      }
    }
  }
  return rows;
}

// E2: partition quality per technique on clustered points, then on
// clustered rectangles: balance (max/avg records), replication
// (stored/input records) and the pairwise overlap area of the partition
// MBRs over the area of the file MBR.
Rows E2IndexQuality(double scale) {
  const size_t count = Scaled(60000, scale);
  const std::vector<std::string> points =
      PointRecords(count, Distribution::kClustered, 7);
  Rows rows;
  for (bool rectangles : {false, true}) {
    for (PartitionScheme scheme : kSchemes) {
      BenchCluster cluster;
      const size_t input = rectangles ? count / 3 : count;
      if (rectangles) {
        WriteRects(&cluster.fs, "/data", input, 7, 0.02);
      } else {
        SHADOOP_CHECK_OK(cluster.fs.WriteLines("/data", points));
      }
      const index::SpatialFileInfo info = BuildIndex(
          &cluster.runner, "/data", "/data.idx", scheme,
          rectangles ? ShapeType::kRectangle : ShapeType::kPoint);
      const auto& parts = info.global_index.partitions();
      size_t stored = 0;
      double overlap = 0;
      for (size_t i = 0; i < parts.size(); ++i) {
        stored += parts[i].num_records;
        for (size_t j = i + 1; j < parts.size(); ++j) {
          overlap += parts[i].mbr.Intersection(parts[j].mbr).Area();
        }
      }
      const double area = info.global_index.Bounds().Area();
      rows.emplace_back(std::string("IndexQuality/") +
                        index::PartitionSchemeName(scheme) +
                        (rectangles ? "/rectangles" : "/points"))
          .Set("partitions", parts.size())
          .Set("balance", Balance(info.global_index))
          .Set("replication", static_cast<double>(stored) / input)
          .Set("mbr_overlap", area > 0 ? overlap / area : 0);
    }
  }
  return rows;
}

// E3: range query, Hadoop full scan vs the STR index, over query areas
// from 0.01% to 100% of the space.
Rows E3RangeQuery(double scale) {
  StrPoints data(Scaled(500000, scale), Distribution::kUniform);
  const Envelope space = data.file.global_index.Bounds();
  Rows rows;
  for (bool indexed : {false, true}) {
    // Query area in 1/10000 of the space.
    for (size_t permyriad : {1, 10, 100, 500, 2000, 10000}) {
      // A square of that area, anchored off-center so it does not
      // straddle every partition boundary symmetrically.
      const double side = std::sqrt(permyriad / 10000.0);
      const double w = space.Width() * side;
      const double h = space.Height() * side;
      const double x = space.min_x() + (space.Width() - w) * 0.37;
      const double y = space.min_y() + (space.Height() - h) * 0.59;
      const Envelope query(x, y, x + w, y + h);
      core::OpStats stats;
      const std::vector<std::string> result =
          indexed ? core::RangeQuerySpatial(&data.cluster.runner, data.file,
                                            query, &stats)
                        .ValueOrDie()
                  : core::RangeQueryHadoop(&data.cluster.runner, "/pts",
                                           ShapeType::kPoint, query, &stats)
                        .ValueOrDie();
      AddStatsRow(&rows,
                  Label(indexed ? "RangeSpatial" : "RangeHadoop", permyriad),
                  stats)
          .Set("results", result.size());
    }
  }
  return rows;
}

// E4: kNN, Hadoop full scan vs the iterative pruned search over an STR
// index: k sweeps at 200k clustered points, then the size at k = 10.
Rows E4Knn(double scale) {
  const std::pair<size_t, size_t> kArgs[] = {  // {k, dataset size}.
      {1, 200000},  {10, 200000}, {100, 200000}, {1000, 200000},
      {10, 50000}, {10, 100000}, {10, 400000}};
  const Point query(430000, 610000);
  std::map<size_t, std::unique_ptr<StrPoints>> data;  // Built on first use.
  Rows rows;
  for (bool indexed : {false, true}) {
    for (const auto& [k, full] : kArgs) {
      const size_t n = Scaled(full, scale);
      std::unique_ptr<StrPoints>& d = data[n];
      if (!d) d = std::make_unique<StrPoints>(n, Distribution::kClustered);
      core::OpStats stats;
      SHADOOP_CHECK_OK(
          (indexed ? core::KnnSpatial(&d->cluster.runner, d->file, query, k,
                                      &stats)
                   : core::KnnHadoop(&d->cluster.runner, "/pts",
                                     ShapeType::kPoint, query, k, &stats))
              .status());
      AddStatsRow(&rows,
                  Label(Label(indexed ? "KnnSpatial" : "KnnHadoop", k), n),
                  stats);
    }
  }
  return rows;
}

// E5: spatial join of clustered rectangles, |B| = 0.75|A|: SJMR over the
// raw files vs the distributed join over STR and over quad-tree indexes.
Rows E5SpatialJoin(double scale) {
  struct JoinData {
    explicit JoinData(size_t n) : count(n) {
      std::tie(a_str, b_str) =
          StrRectPair(&cluster, "/a", n, 5, "/b", n * 3 / 4, 6, 0.008);
      a_quad = BuildIndex(&cluster.runner, "/a", "/a.quad",
                          PartitionScheme::kQuadTree, ShapeType::kRectangle);
      b_quad = BuildIndex(&cluster.runner, "/b", "/b.quad",
                          PartitionScheme::kQuadTree, ShapeType::kRectangle);
    }
    size_t count;
    BenchCluster cluster;
    index::SpatialFileInfo a_str, b_str, a_quad, b_quad;
  };
  std::vector<std::unique_ptr<JoinData>> data;
  for (size_t full : {20000, 40000, 80000}) {
    data.push_back(std::make_unique<JoinData>(Scaled(full, scale)));
  }
  Rows rows;
  for (const auto& d : data) {
    core::OpStats stats;
    const auto result =
        core::SjmrJoin(&d->cluster.runner, "/a", ShapeType::kRectangle, "/b",
                       ShapeType::kRectangle, &stats)
            .ValueOrDie();
    AddStatsRow(&rows, Label("JoinSjmr", d->count), stats)
        .Set("results", result.size());
  }
  for (bool quad : {false, true}) {
    for (const auto& d : data) {
      core::OpStats stats;
      const auto result =
          core::DistributedJoin(&d->cluster.runner, quad ? d->a_quad : d->a_str,
                                quad ? d->b_quad : d->b_str, &stats)
              .ValueOrDie();
      AddStatsRow(&rows, Label(quad ? "JoinDjQuadTree" : "JoinDjStr", d->count),
                  stats)
          .Set("results", result.size());
    }
  }
  return rows;
}

// E6: computational-geometry operations, the single-machine algorithm vs
// Hadoop vs SpatialHadoop, on 300k clustered points and 4k polygons. The
// single-machine rows are costed, not run: a local scan of the file plus
// the algorithm's CPU charge in the cluster's own cost constants.
Rows E6CgOps(double scale) {
  BenchCluster cluster;
  mapreduce::JobRunner* runner = &cluster.runner;
  WritePoints(&cluster.fs, "/pts", Scaled(300000, scale),
              Distribution::kClustered, 42);
  const auto points_str =
      BuildIndex(runner, "/pts", "/pts.str", PartitionScheme::kStr);
  const auto points_grid =
      BuildIndex(runner, "/pts", "/pts.grid", PartitionScheme::kGrid);
  // The farthest-pair worst case: a thin ring puts (nearly) every point
  // on the convex hull, defeating the hull-based route.
  WritePoints(&cluster.fs, "/ring", Scaled(300000, scale),
              Distribution::kCircular, 42);
  const auto ring_str =
      BuildIndex(runner, "/ring", "/ring.str", PartitionScheme::kStr);
  WritePolygons(&cluster.fs, "/poly", Scaled(4000, scale), 9, 0.012);
  const auto polygons_quad = BuildIndex(runner, "/poly", "/poly.quad",
                                        PartitionScheme::kQuadTree,
                                        ShapeType::kPolygon);
  const hdfs::FileMeta points = cluster.fs.GetFileMeta("/pts").ValueOrDie();
  const hdfs::FileMeta poly = cluster.fs.GetFileMeta("/poly").ValueOrDie();
  uint64_t edges = 0;
  for (const std::string& line : cluster.fs.ReadLines("/poly").ValueOrDie()) {
    edges += index::RecordPolygon(line).ValueOrDie().NumVertices();
  }

  Rows rows;
  auto single = [&](const char* label, const hdfs::FileMeta& meta,
                    uint64_t cpu_ops) {
    rows.emplace_back(label).Set(
        "sim_s", core::SingleMachineCostMs(runner->cluster(), meta.total_bytes,
                                           meta.total_records, cpu_ops) /
                     1000.0);
  };
  core::OpStats stats;  // Filled by each operation below; `add` resets it.
  auto add = [&](const char* label, const auto& result) {
    SHADOOP_CHECK_OK(result.status());
    AddStatsRow(&rows, label, stats);
    stats = core::OpStats();
  };
  const size_t n = points.total_records;
  single("SkylineSingleMachine", points, NLogNOps(n, 20));
  add("SkylineHadoop", core::SkylineHadoop(runner, "/pts", &stats));
  add("SkylineSpatial", core::SkylineSpatial(runner, points_str, &stats));
  single("ConvexHullSingleMachine", points, NLogNOps(n, 20));
  add("ConvexHullHadoop", core::ConvexHullHadoop(runner, "/pts", &stats));
  add("ConvexHullSpatial",
      core::ConvexHullSpatial(runner, points_str, &stats));
  single("ClosestPairSingleMachine", points, NLogNOps(n, 40));
  add("ClosestPairSpatial",
      core::ClosestPairSpatial(runner, points_grid, &stats));
  single("FarthestPairSingleMachine", points, NLogNOps(n, 20));
  add("FarthestPairHadoop", core::FarthestPairHadoop(runner, "/pts", &stats));
  add("FarthestPairSpatial",
      core::FarthestPairSpatial(runner, points_str, &stats));
  // The circular worst case: the hull route degenerates while the pair
  // filter still prunes to near-diametral pairs.
  add("FarthestPairHadoopCircular",
      core::FarthestPairHadoop(runner, "/ring", &stats));
  add("FarthestPairSpatialCircular",
      core::FarthestPairSpatial(runner, ring_str, &stats));
  single("UnionSingleMachine", poly, edges * edges / 16 + edges * 100);
  add("UnionHadoop", core::UnionHadoop(runner, "/poly", &stats));
  add("UnionSpatialEnhanced",
      core::UnionSpatialEnhanced(runner, polygons_quad, &stats));
  return rows;
}

// E7: scale-out of fixed work over 1 to 32 worker slots: a near-full
// range scan, a distributed join and a Hadoop skyline.
Rows E7Scaleout(double scale) {
  constexpr int kSlots[] = {1, 2, 4, 8, 16, 32};
  const std::vector<std::string> uniform =
      PointRecords(Scaled(300000, scale), Distribution::kUniform, 42);
  const std::vector<std::string> anti_correlated =
      PointRecords(Scaled(300000, scale), Distribution::kAntiCorrelated, 42);
  Rows rows;
  for (int slots : kSlots) {
    BenchCluster cluster(64 * 1024, slots);
    SHADOOP_CHECK_OK(cluster.fs.WriteLines("/pts", uniform));
    core::OpStats stats;
    SHADOOP_CHECK_OK(core::RangeQueryHadoop(&cluster.runner, "/pts",
                                            ShapeType::kPoint,
                                            Envelope(0, 0, 9e5, 9e5), &stats)
                         .status());
    AddStatsRow(&rows, Label("ScanScaleout", slots), stats);
  }
  for (int slots : kSlots) {
    BenchCluster cluster(64 * 1024, slots);
    const auto [a, b] = StrRectPair(&cluster, "/a", Scaled(20000, scale), 5,
                                    "/b", Scaled(15000, scale), 6, 0.008);
    core::OpStats stats;
    SHADOOP_CHECK_OK(
        core::DistributedJoin(&cluster.runner, a, b, &stats).status());
    AddStatsRow(&rows, Label("JoinScaleout", slots), stats);
  }
  for (int slots : kSlots) {
    BenchCluster cluster(64 * 1024, slots);
    SHADOOP_CHECK_OK(cluster.fs.WriteLines("/pts", anti_correlated));
    core::OpStats stats;
    SHADOOP_CHECK_OK(
        core::SkylineHadoop(&cluster.runner, "/pts", &stats).status());
    AddStatsRow(&rows, Label("SkylineScaleout", slots), stats);
  }
  return rows;
}

// E8: block-size sensitivity: the STR build and a selective (~0.2% of the
// space) range query over 150k clustered points, for blocks of 4 KiB to
// 1 MiB.
Rows E8BlockSize(double scale) {
  Rows rows;
  for (size_t kib : {4, 16, 64, 256, 1024}) {
    StrPoints data(Scaled(150000, scale), Distribution::kClustered,
                   kib * 1024);
    const Envelope space = data.file.global_index.Bounds();
    const double x = space.min_x() + space.Width() * 0.4;
    const double y = space.min_y() + space.Height() * 0.4;
    const Envelope query(x, y, x + space.Width() * 0.045,
                         y + space.Height() * 0.045);
    core::OpStats stats;
    SHADOOP_CHECK_OK(core::RangeQuerySpatial(&data.cluster.runner, data.file,
                                             query, &stats)
                         .status());
    AddStatsRow(&rows, Label("BlockSize", kib), stats)
        .Set("build_sim_s", data.file.build_cost.total_ms / 1000.0)
        .Set("partitions", data.file.global_index.NumPartitions());
  }
  return rows;
}

// E9: the Pigeon layer: host time to parse a 7-statement script, and one
// unindexed range query issued through the C++ API and through Pigeon.
Rows E9Pigeon(double scale) {
  constexpr const char* kScript = R"(
  pts = LOAD '/pts' AS POINT;
  idx = INDEX pts WITH STR INTO '/pts.str2';
  r1 = RANGE idx RECTANGLE(100000, 100000, 200000, 200000);
  near = KNN idx POINT(500000, 500000) K 10;
  sky = SKYLINE idx;
  STORE r1 INTO '/out1';
  DUMP near;
)";
  constexpr int kParses = 1000;
  Rows rows;
  const Stopwatch parse_time;
  for (int i = 0; i < kParses; ++i) {
    SHADOOP_CHECK_OK(pigeon::Parse(kScript).status());
  }
  rows.emplace_back("PigeonParse").host_ms =
      parse_time.ElapsedMillis() / kParses;

  StrPoints data(Scaled(80000, scale), Distribution::kClustered);
  core::OpStats stats;
  SHADOOP_CHECK_OK(core::RangeQueryHadoop(
                       &data.cluster.runner, "/pts", ShapeType::kPoint,
                       Envelope(100000, 100000, 200000, 200000), &stats)
                       .status());
  AddStatsRow(&rows, "RangeViaApi", stats);
  pigeon::Executor executor(&data.cluster.runner);
  const auto report = executor.Execute(
      "pts = LOAD '/pts' AS POINT;"
      "r = RANGE pts RECTANGLE(100000, 100000, 200000, 200000);"
      "DUMP r;");
  SHADOOP_CHECK_OK(report.status());
  rows.emplace_back("RangeViaPigeon")
      .Set("sim_s", report->stats.cost.total_ms / 1000.0)
      .Set("jobs", report->stats.jobs_run);
  return rows;
}

// E10: single-level plots of 300k clustered points, Hadoop vs the STR
// index, for three image sizes; then tile pyramids of 1, 3 and 5 levels.
Rows E10Plot(double scale) {
  StrPoints data(Scaled(300000, scale), Distribution::kClustered);
  mapreduce::JobRunner* runner = &data.cluster.runner;
  Rows rows;
  for (bool indexed : {false, true}) {
    for (int pixels : {256, 512, 1024}) {
      viz::PlotOptions options;
      options.width = pixels;
      options.height = pixels;
      core::OpStats stats;
      SHADOOP_CHECK_OK(
          (indexed ? viz::PlotSpatial(runner, data.file, options, &stats)
                   : viz::PlotHadoop(runner, "/pts", ShapeType::kPoint,
                                     options, &stats))
              .status());
      AddStatsRow(&rows, Label(indexed ? "PlotSpatial" : "PlotHadoop", pixels),
                  stats);
    }
  }
  for (int levels : {1, 3, 5}) {
    viz::PyramidOptions options;
    options.tile_size = 256;
    options.num_levels = levels;
    core::OpStats stats;
    const auto tiles =
        viz::PlotPyramid(runner, data.file, options, "", &stats).ValueOrDie();
    AddStatsRow(&rows, Label("PlotPyramid", levels), stats)
        .Set("tiles", tiles.size());
  }
  return rows;
}

// E11: COUNT over 400k uniform points, Hadoop scan vs the STR index with
// its metadata shortcut, for centered queries covering 1% to 100%.
Rows E11Aggregate(double scale) {
  StrPoints data(Scaled(400000, scale), Distribution::kUniform);
  const Envelope space = data.file.global_index.Bounds();
  Rows rows;
  for (bool indexed : {false, true}) {
    for (size_t percent : {1, 10, 50, 90, 100}) {
      const double side = std::sqrt(percent / 100.0);
      const double w = space.Width() * side;
      const double h = space.Height() * side;
      const Point c = space.Center();
      const Envelope query(c.x - w / 2, c.y - h / 2, c.x + w / 2,
                           c.y + h / 2);
      core::OpStats stats;
      const int64_t count =
          indexed ? core::RangeCountSpatial(&data.cluster.runner, data.file,
                                            query, &stats)
                        .ValueOrDie()
                  : core::RangeCountHadoop(&data.cluster.runner, "/pts",
                                           ShapeType::kPoint, query, &stats)
                        .ValueOrDie();
      Row& row = AddStatsRow(
          &rows, Label(indexed ? "CountSpatial" : "CountHadoop", percent),
          stats);
      row.Set("count", count);
      if (indexed) {
        row.Set("metadata_parts",
                stats.counters.Get("count.metadata_partitions"));
      }
    }
  }
  return rows;
}

// E12: ablations of the design choices DESIGN.md calls out:
// (a) the STR sample ratio; (b) map-side local pruning in the skyline;
// (c) a replicating (quad-tree) vs a single-copy (STR) index under range
// queries over rectangles; (d) persisted local indexes (#lidx) under
// polygon range queries; (e) the R-tree probe vs the plane sweep as the
// distributed join's local kernel; (f) histogram-balanced SJMR on skewed
// rectangles.
Rows E12Ablation(double scale) {
  Rows rows;
  const std::vector<std::string> clustered =
      PointRecords(Scaled(200000, scale), Distribution::kClustered, 42);
  // (a) Ratio in 1/1000 %: 0.01% .. 10%.
  for (size_t ratio : {10, 100, 1000, 2000, 10000}) {
    BenchCluster cluster;
    SHADOOP_CHECK_OK(cluster.fs.WriteLines("/pts", clustered));
    index::IndexBuilder builder(&cluster.runner);
    index::IndexBuildOptions options;
    options.scheme = PartitionScheme::kStr;
    options.sample_ratio = ratio / 100000.0;
    const auto info =
        builder.Build("/pts", Label("/pts.r", ratio), options).ValueOrDie();
    rows.emplace_back(Label("SampleRatio", ratio))
        .Set("balance", Balance(info.global_index))
        .Set("build_sim_s", info.build_cost.total_ms / 1000.0)
        .Set("sample_pct", options.sample_ratio * 100);
  }

  {  // (b)
    BenchCluster cluster;
    WritePoints(&cluster.fs, "/pts", Scaled(300000, scale),
                Distribution::kUniform, 42);
    core::OpStats pruned;
    SHADOOP_CHECK_OK(
        core::SkylineHadoop(&cluster.runner, "/pts", &pruned).status());
    AddStatsRow(&rows, "SkylineWithLocalPruning", pruned);

    mapreduce::JobConfig job;
    job.name = "skyline-naive";
    job.splits = mapreduce::MakeBlockSplits(cluster.fs, "/pts").ValueOrDie();
    job.mapper = []() { return std::make_unique<ForwardAllMapper>(); };
    job.reducer = []() { return std::make_unique<GlobalSkylineReducer>(); };
    job.num_reducers = 1;
    const mapreduce::JobResult result = cluster.runner.Run(job);
    SHADOOP_CHECK_OK(result.status);
    core::OpStats naive;
    naive.Accumulate(result);
    AddStatsRow(&rows, "SkylineWithoutLocalPruning", naive);
  }

  {  // (c)
    BenchCluster cluster;
    WriteRects(&cluster.fs, "/rects", Scaled(120000, scale), 5, 0.01);
    const auto replicated =
        BuildIndex(&cluster.runner, "/rects", "/rects.quad",
                   PartitionScheme::kQuadTree, ShapeType::kRectangle);
    const auto single_copy =
        BuildIndex(&cluster.runner, "/rects", "/rects.str",
                   PartitionScheme::kStr, ShapeType::kRectangle);
    auto query = [&](const char* label, const index::SpatialFileInfo& file) {
      core::OpStats stats;
      const auto result =
          core::RangeQuerySpatial(&cluster.runner, file,
                                  Envelope(3e5, 3e5, 4.5e5, 4.5e5), &stats)
              .ValueOrDie();
      AddStatsRow(&rows, label, stats)
          .Set("results", result.size())
          .Set("deduplicated", stats.counters.Get("range.deduplicated"));
    };
    query("RangeOverReplicatedIndex", replicated);
    query("RangeOverSingleCopyIndex", single_copy);
  }

  {  // (d)
    BenchCluster cluster;
    WritePolygons(&cluster.fs, "/poly", Scaled(40000, scale), 11, 0.005);
    index::IndexBuilder builder(&cluster.runner);
    index::IndexBuildOptions options;
    options.scheme = PartitionScheme::kStr;
    options.shape = ShapeType::kPolygon;
    const auto plain =
        builder.Build("/poly", "/poly.plain", options).ValueOrDie();
    options.build_local_indexes = true;
    const auto with_lidx =
        builder.Build("/poly", "/poly.lidx", options).ValueOrDie();
    auto query = [&](const char* label, const index::SpatialFileInfo& file) {
      core::OpStats stats;
      const Stopwatch wall;
      const auto result =
          core::RangeQuerySpatial(&cluster.runner, file,
                                  Envelope(2e5, 2e5, 7e5, 7e5), &stats)
              .ValueOrDie();
      const double host_ms = wall.ElapsedMillis();
      AddStatsRow(&rows, label, stats).Set("results", result.size()).host_ms =
          host_ms;
    };
    query("RangeWithoutLocalIndex", plain);
    query("RangeWithPersistedLocalIndex", with_lidx);
  }

  {  // (e)
    BenchCluster cluster;
    const auto files = StrRectPair(&cluster, "/ka", Scaled(40000, scale), 5,
                                   "/kb", Scaled(30000, scale), 6, 0.008);
    auto join = [&](const char* label, core::LocalJoinAlgorithm algorithm) {
      core::OpStats stats;
      core::DjOptions options;
      options.local_algorithm = algorithm;
      const Stopwatch wall;
      const auto result = core::DistributedJoin(&cluster.runner, files.first,
                                                files.second, &stats, options)
                              .ValueOrDie();
      const double host_ms = wall.ElapsedMillis();
      AddStatsRow(&rows, label, stats).Set("results", result.size()).host_ms =
          host_ms;
    };
    join("JoinKernelRTreeProbe", core::LocalJoinAlgorithm::kRTreeProbe);
    join("JoinKernelPlaneSweep", core::LocalJoinAlgorithm::kPlaneSweep);
  }

  {  // (f)
    BenchCluster cluster;
    WriteRects(&cluster.fs, "/sa", Scaled(40000, scale), 7, 0.006);
    WriteRects(&cluster.fs, "/sb", Scaled(30000, scale), 8, 0.006);
    auto join = [&](const char* label, bool histogram_balanced) {
      core::OpStats stats;
      core::SjmrOptions options;
      options.histogram_balanced = histogram_balanced;
      const auto result =
          core::SjmrJoin(&cluster.runner, "/sa", ShapeType::kRectangle, "/sb",
                         ShapeType::kRectangle, &stats, options)
              .ValueOrDie();
      AddStatsRow(&rows, label, stats)
          .Set("results", result.size())
          .Set("reduce_makespan_s", stats.cost.reduce_makespan_ms / 1000.0);
    };
    join("SjmrUniformGridOnSkew", false);
    join("SjmrHistogramBalancedOnSkew", true);
  }
  return rows;
}

// E13: kNN join of clustered points (for every record of A, its k nearest
// in B, |B| = 60k) over two STR indexes: k sweeps at |A| = 20k, then |A|
// sweeps at k = 4.
Rows E13KnnJoin(double scale) {
  const std::pair<size_t, size_t> kArgs[] = {  // {k, |A|}.
      {1, 20000}, {4, 20000}, {16, 20000}, {4, 10000}, {4, 40000}};
  struct KnnJoinData {
    KnnJoinData(size_t count_a, size_t count_b) {
      WritePoints(&cluster.fs, "/a", count_a, Distribution::kClustered, 5);
      WritePoints(&cluster.fs, "/b", count_b, Distribution::kClustered, 5);
      a = BuildIndex(&cluster.runner, "/a", "/a.str", PartitionScheme::kStr);
      b = BuildIndex(&cluster.runner, "/b", "/b.str", PartitionScheme::kStr);
    }
    BenchCluster cluster;
    index::SpatialFileInfo a, b;
  };
  std::map<size_t, std::unique_ptr<KnnJoinData>> data;  // Built on first use.
  Rows rows;
  for (const auto& [k, full] : kArgs) {
    const size_t n = Scaled(full, scale);
    std::unique_ptr<KnnJoinData>& d = data[n];
    if (!d) d = std::make_unique<KnnJoinData>(n, Scaled(60000, scale));
    core::OpStats stats;
    const auto answers =
        core::KnnJoinSpatial(&d->cluster.runner, d->a, d->b, k, &stats)
            .ValueOrDie();
    AddStatsRow(&rows, Label(Label("KnnJoin", k), n), stats)
        .Set("results", answers.size());
  }
  return rows;
}

}  // namespace shadoop::bench
