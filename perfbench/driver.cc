// The repository benchmark driver: runs one named workload through the
// library's public API in this process, checks every result against an
// oracle of its own (oracle.h), and prints the end-to-end metrics — or,
// with --trace 1, the per-layer metrics of a second, traced pass.
//
// Usage:
//   perfbench_driver --workload <bulk_build|live_serve|cold_join>
//                    --seed <n> --seconds <s> [--trace 0|1]
//                    [--trace-out <file>] [--commit <id>]
//                    [--plant-wrong-oracle]
//
// Every workload replays a fixed op sequence generated from --seed; its
// length scales with --seconds (a nominal op rate per workload), with a
// floor that keeps the reported tail percentile at ten or more samples
// beyond it. The last stdout line is one JSON object with the keys
// correct, attempted, failed and metrics; the lines before it repeat
// every metric with its unit and sample count, and a host-speed probe.
// A wrong result exits 1. --plant-wrong-oracle (live_serve only) corrupts
// one expected value, so the benchmark's self-test can check that a wrong
// answer fails the run.

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/op_stats.h"
#include "core/spatial_join.h"
#include "hdfs/file_system.h"
#include "index/index_builder.h"
#include "index/record_shape.h"
#include "mapreduce/job_runner.h"
#include "optimizer/optimizer.h"
#include "server/query_server.h"
#include "simd/dispatch.h"

#include "harness.h"
#include "oracle.h"

namespace perfbench {
namespace {

namespace sh = shadoop;
using oracle::Box;
using oracle::Pt;

constexpr double kSide = 1e6;  // Records live in [0, 1e6]^2.

// ---------------------------------------------------------------------
// The simulated cluster of bench/bench_common.h: 64 KiB blocks on 25
// datanodes, 25 task slots, bandwidths scaled with the block size.

sh::hdfs::HdfsConfig BenchHdfs() {
  sh::hdfs::HdfsConfig config;
  config.block_size = 64 * 1024;
  config.num_datanodes = 25;
  return config;
}

sh::mapreduce::ClusterConfig BenchCluster() {
  sh::mapreduce::ClusterConfig config;
  config.num_slots = 25;
  config.disk_bytes_per_ms = 100.0;
  config.net_bytes_per_ms = 125.0;
  return config;
}

// ---------------------------------------------------------------------
// Input generation (the benchmark's own, so library changes to the
// workload generators or to number formatting never change the inputs).

class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    state_ += 0x9e3779b97f4a7c15ULL;
    return Mix64(state_);
  }
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  double Gaussian() {
    const double u = std::max(Uniform(), 1e-300);
    return std::sqrt(-2.0 * std::log(u)) * std::cos(2.0 * M_PI * Uniform());
  }
  size_t Below(size_t n) { return static_cast<size_t>(Next() % n); }

 private:
  uint64_t state_;
};

uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  return Mix64(seed * 0x9e3779b97f4a7c15ULL + stream);
}

std::string Coord(double v) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

/// Query-text coordinates: three decimals, and the oracle uses the value
/// the text parses back to, so both sides see the same window.
double Rounded(double v, std::string* text) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  *text = buf;
  double out = 0;
  oracle::ParseNumber(*text, &out);
  return out;
}

/// Cluster centres of a dataset. They come from a constant per dataset,
/// not from --seed: the seed varies which records are drawn, not where
/// the dense regions sit, so join selectivity and partition shapes — and
/// with them the work per op — stay comparable from seed to seed.
std::vector<Pt> FixedLayout(uint64_t layout_id, int clusters) {
  Rng rng(StreamSeed(layout_id, 0x1a7));
  std::vector<Pt> centers(static_cast<size_t>(clusters));
  for (Pt& c : centers) c = {rng.Uniform(), rng.Uniform()};
  return centers;
}

constexpr int kClusters = 16;
constexpr double kClusterSigma = 0.03;  // Fraction of the side.

double Clamp01(double v) { return std::clamp(v, 0.0, 1.0); }

Pt ClusteredUnit(Rng& rng, const std::vector<Pt>& centers) {
  const Pt& c = centers[rng.Below(centers.size())];
  return {Clamp01(c.x + rng.Gaussian() * kClusterSigma),
          Clamp01(c.y + rng.Gaussian() * kClusterSigma)};
}

std::string PointRecord(Pt unit) {
  return Coord(unit.x * kSide) + "," + Coord(unit.y * kSide);
}

struct PolygonSet {
  std::vector<std::string> records;
  std::vector<std::vector<Pt>> rings;
};

/// Star-convex polygons (simple by construction): 4-12 vertices at
/// jittered angles around a centre, circumradius up to
/// `max_radius_fraction` of the side. Clustered centres when `centers`
/// is non-empty, uniform otherwise.
PolygonSet Polygons(Rng& rng, const std::vector<Pt>& centers, size_t count,
                    double max_radius_fraction) {
  PolygonSet set;
  set.records.reserve(count);
  set.rings.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const Pt c = centers.empty() ? Pt{rng.Uniform(), rng.Uniform()}
                                 : ClusteredUnit(rng, centers);
    const int vertices = 4 + static_cast<int>(rng.Below(9));
    const double base = (0.2 + 0.8 * rng.Uniform()) * max_radius_fraction;
    std::vector<Pt> ring;
    std::string text = "POLYGON ((";
    for (int v = 0; v < vertices; ++v) {
      const double angle = 2.0 * M_PI * (v + 0.8 * rng.Uniform()) / vertices;
      const double r = base * (0.5 + 0.5 * rng.Uniform());
      ring.push_back({(c.x + r * std::cos(angle)) * kSide,
                      (c.y + r * std::sin(angle)) * kSide});
    }
    for (const Pt& p : ring) text += Coord(p.x) + " " + Coord(p.y) + ", ";
    text += Coord(ring[0].x) + " " + Coord(ring[0].y) + "))";
    set.records.push_back(std::move(text));
    set.rings.push_back(std::move(ring));
  }
  return set;
}

RowDigest DigestOf(const std::vector<std::string>& rows) {
  RowDigest d;
  for (const std::string& row : rows) d.Add(row);
  return d;
}

/// Op count of a run: `seconds` at the nominal rate, at least `floor`,
/// and odd when `odd` (see BulkBuild for why).
size_t OpCount(double seconds, double per_second, size_t floor, bool odd) {
  size_t n = std::max(floor, static_cast<size_t>(std::ceil(seconds * per_second)));
  if (odd && n % 2 == 0) ++n;
  return n;
}

// ---------------------------------------------------------------------
// Counters at layer boundaries.

CounterSnapshot Snap(const sh::hdfs::FileSystem& fs) {
  CounterSnapshot s;
  s.parses = sh::index::GeometryParseCount();
  const sh::hdfs::IoStats& io = fs.io_stats();
  s.bytes_read = io.bytes_read.load();
  s.bytes_written = io.bytes_written.load();
  s.blocks_read = io.blocks_read.load();
  return s;
}

SpanRecorder RecorderFor(int thread, const sh::hdfs::FileSystem* fs) {
  return SpanRecorder(thread, [fs] { return Snap(*fs); });
}

// ---------------------------------------------------------------------
// Metrics.

struct MetricDef {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, in output order (BENCHMARK.json lists the same).
const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},
      {"ops_per_s", "ops/s"},
      {"latency_p50_ms", "ms"},
      {"latency_tail_ms", "ms"},
      {"sim_ms_per_op", "sim_ms"},
      {"peak_rss_mb", "MiB"},
  };
  return defs;
}

/// Per-layer metrics. Every workload reports all of them; a layer the
/// workload never calls reads 0.
const std::vector<MetricDef>& LayerMetrics() {
  static const std::vector<MetricDef> defs = {
      {"index.parses_per_record", "ratio"},
      {"index.parses_per_op", "count"},
      {"index.partitions", "count"},
      {"index.replication_ratio", "ratio"},
      {"hdfs.bytes_read_per_record", "B"},
      {"hdfs.bytes_written_per_record", "B"},
      {"hdfs.blocks_read_per_op", "count"},
      {"mapreduce.bytes_shuffled_per_record", "B"},
      {"mapreduce.sim_map_ms", "sim_ms"},
      {"mapreduce.sim_shuffle_ms", "sim_ms"},
      {"mapreduce.sim_reduce_ms", "sim_ms"},
      {"mapreduce.map_tasks_per_op", "count"},
      {"mapreduce.jobs_per_op", "count"},
      {"mapreduce.job_wall_ms", "ms"},
      {"mapreduce.artifact_hit_ratio", "ratio"},
      {"mapreduce.admission_queued_ratio", "ratio"},
      {"optimizer.plan_ms", "ms"},
      {"core.self_ms", "ms"},
      {"core.partitions_read_ratio", "ratio"},
      {"server.self_ms", "ms"},
      {"server.result_cache_hit_ratio", "ratio"},
      {"catalog.rewritten_partition_ratio", "ratio"},
      {"catalog.append_p50_ms", "ms"},
      {"trace.overhead_pct", "%"},
  };
  return defs;
}

using MetricMap = std::map<std::string, double>;

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Per-op layer sums that the single-caller workloads accumulate from
/// their op spans, and the live workload from whole-phase deltas.
struct LayerSums {
  double ops = 0;
  double records = 0;  // Input records the ops read.
  CounterSnapshot delta;
  double bytes_shuffled = 0;
  double sim_map = 0;
  double sim_shuffle = 0;
  double sim_reduce = 0;
  double map_tasks = 0;
  double jobs = 0;
  double partitions = 0;  // Σ partitions of the index each op built/read.
  double partition_records = 0;

  void AddDelta(const CounterSnapshot& a, const CounterSnapshot& b) {
    delta.parses += b.parses - a.parses;
    delta.bytes_read += b.bytes_read - a.bytes_read;
    delta.bytes_written += b.bytes_written - a.bytes_written;
    delta.blocks_read += b.blocks_read - a.blocks_read;
  }
  void AddCost(const sh::mapreduce::JobCost& cost) {
    bytes_shuffled += static_cast<double>(cost.bytes_shuffled);
    sim_map += cost.map_makespan_ms;
    sim_shuffle += cost.shuffle_ms;
    sim_reduce += cost.reduce_makespan_ms;
    map_tasks += cost.num_map_tasks;
  }

  void Fill(MetricMap* m) const {
    (*m)["index.parses_per_record"] = Ratio(static_cast<double>(delta.parses), records);
    (*m)["index.parses_per_op"] = Ratio(static_cast<double>(delta.parses), ops);
    (*m)["index.partitions"] = Ratio(partitions, ops);
    (*m)["index.replication_ratio"] = Ratio(partition_records, records);
    (*m)["hdfs.bytes_read_per_record"] = Ratio(static_cast<double>(delta.bytes_read), records);
    (*m)["hdfs.bytes_written_per_record"] =
        Ratio(static_cast<double>(delta.bytes_written), records);
    (*m)["hdfs.blocks_read_per_op"] = Ratio(static_cast<double>(delta.blocks_read), ops);
    (*m)["mapreduce.bytes_shuffled_per_record"] = Ratio(bytes_shuffled, records);
    (*m)["mapreduce.sim_map_ms"] = Ratio(sim_map, ops);
    (*m)["mapreduce.sim_shuffle_ms"] = Ratio(sim_shuffle, ops);
    (*m)["mapreduce.sim_reduce_ms"] = Ratio(sim_reduce, ops);
    (*m)["mapreduce.map_tasks_per_op"] = Ratio(map_tasks, ops);
    (*m)["mapreduce.jobs_per_op"] = Ratio(jobs, ops);
  }
};

/// What one timed pass measured.
struct Pass {
  std::vector<double> latency_ms;  // Ops the latency percentiles cover.
  double op_ms = 0;                // Σ latency of every op.
  double busy_s = 0;               // Denominator of ops_per_s.
  int64_t attempted = 0;
  int64_t failed = 0;
  double sim_ms = 0;  // Σ JobCost::total_ms over the sim-counted ops.
  int64_t sim_ops = 0;
  std::vector<std::string> mismatches;
  MetricMap layer;  // Traced pass only.
  std::vector<Span> spans;
  int64_t tracer_ns = 0;  // Time spent inside the span recorders.

  void Mismatch(std::string what) {
    if (mismatches.size() < 20) mismatches.push_back(std::move(what));
    else mismatches.back() = "... and more";
  }
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Driver-side work: records, op sequence, oracle answers. Untimed.
  virtual void Generate(uint64_t seed, double seconds) = 0;
  /// Program set-up (timed as setup_s); discards any earlier set-up.
  virtual void SetUp() = 0;
  virtual Pass Run(bool traced) = 0;
  /// Makes Generate corrupt one expected value, so that the benchmark's
  /// self-test can check that a wrong answer fails the run. False when the
  /// workload has no such hook.
  virtual bool PlantWrongOracle() { return false; }
};

/// latency_tail_ms is p90 on every workload. The op-count floors keep ten
/// or more samples beyond it.
constexpr double kTailPercentile = 90;

void Check(const sh::Status& status, const char* what) {
  if (!status.ok()) {
    std::cerr << "set-up failed (" << what << "): " << status.ToString() << "\n";
    std::exit(2);
  }
}

// ---------------------------------------------------------------------
// bulk_build: one caller; each op indexes a pre-uploaded source with STR
// into a fresh path. Ops alternate point and polygon sources, starting
// and ending with points, so the point builds are one more than half the
// ops: when the two latency modes separate, the median is then a point
// build instead of a value in the gap between the modes.

class BulkBuild : public Workload {
 public:
  void Generate(uint64_t seed, double seconds) override {
    Rng point_rng(StreamSeed(seed, 11));
    const std::vector<Pt> layout = FixedLayout(101, kClusters);
    Source& points = sources_[0];
    points.path = "/src/points";
    points.shape = sh::index::ShapeType::kPoint;
    for (size_t i = 0; i < kPoints; ++i) {
      points.records.push_back(PointRecord(ClusteredUnit(point_rng, layout)));
    }
    Rng poly_rng(StreamSeed(seed, 12));
    Source& polygons = sources_[1];
    polygons.path = "/src/polygons";
    polygons.shape = sh::index::ShapeType::kPolygon;
    polygons.local_indexes = true;
    polygons.records =
        Polygons(poly_rng, FixedLayout(102, kClusters), kPolygons, 0.03).records;
    for (Source& s : sources_) {
      s.digest = DigestOf(s.records);
      size_t bytes = 0;
      for (const std::string& r : s.records) bytes += r.size() + 1;
      // The partition count STR may produce: one cell per block of input
      // at most rounded up to a full square grid, and at least half that.
      const size_t blocks = (bytes + kBlock - 1) / kBlock;
      const size_t side = static_cast<size_t>(std::ceil(std::sqrt(blocks)));
      s.min_partitions = (blocks + 1) / 2;
      s.max_partitions = side * side;
    }
    num_ops_ = OpCount(seconds, kOpsPerSecond, kMinOps, /*odd=*/true);
  }

  void SetUp() override {
    runner_.reset();
    fs_ = std::make_unique<sh::hdfs::FileSystem>(BenchHdfs());
    runner_ = std::make_unique<sh::mapreduce::JobRunner>(fs_.get(), BenchCluster());
    for (const Source& s : sources_) Check(fs_->WriteLines(s.path, s.records), "upload");
    // One untimed build per source lets lazy set-up (the shared thread
    // pool, allocator growth) finish before the timed ops.
    sh::index::IndexBuilder builder(runner_.get());
    for (const Source& s : sources_) {
      Check(builder.Build(s.path, "/warm", BuildOptions(s)).status(), "warm-up build");
      fs_->Delete("/warm");
      fs_->Delete(sh::index::MasterPathFor("/warm"));
    }
  }

  Pass Run(bool traced) override {
    Pass pass;
    SpanRecorder rec = RecorderFor(0, fs_.get());
    LayerSums sums;
    size_t expected_partitions[2] = {0, 0};
    sh::index::IndexBuilder builder(runner_.get());
    const uint64_t cache_lookups_before =
        runner_->artifact_cache()->hits() + runner_->artifact_cache()->misses();
    const uint64_t cache_hits_before = runner_->artifact_cache()->hits();
    for (size_t i = 0; i < num_ops_; ++i) {
      const int kind = static_cast<int>(i % 2);
      const Source& src = sources_[kind];
      const std::string dest = "/idx/" + std::to_string(i);
      const sh::index::IndexBuildOptions options = BuildOptions(src);

      int op = -1;
      int span = -1;
      if (traced) {
        op = rec.Begin("op", static_cast<int64_t>(i), -1);
        span = rec.Begin("index.Build", static_cast<int64_t>(i), op);
      }
      const int64_t t0 = NowNs();
      sh::Result<sh::index::SpatialFileInfo> built = builder.Build(src.path, dest, options);
      const int64_t t1 = NowNs();
      if (traced) {
        rec.End(span);
        rec.End(op);
        sums.AddDelta(rec.spans()[op].at_start, rec.spans()[op].at_end);
      }
      ++pass.attempted;
      pass.latency_ms.push_back(NsToMs(t1 - t0));
      if (!built.ok()) {
        ++pass.failed;
        continue;
      }
      const sh::index::SpatialFileInfo& info = built.value();
      pass.sim_ms += info.build_cost.total_ms;
      ++pass.sim_ops;

      // Oracle: every input record lands in the output exactly once (STR
      // assigns each record to one cell), and the partition count is the
      // file's block count, in STR's range, and the same on every build
      // of the source.
      const auto& parts = info.global_index.partitions();
      double part_records = 0;
      for (const auto& p : parts) part_records += static_cast<double>(p.num_records);
      const size_t got = parts.size();
      if (expected_partitions[kind] == 0) expected_partitions[kind] = got;
      sh::Result<sh::hdfs::FileMeta> meta = fs_->GetFileMeta(dest);
      if (!meta.ok() || meta->blocks.size() != got || got != expected_partitions[kind] ||
          got < src.min_partitions || got > src.max_partitions) {
        pass.Mismatch("op " + std::to_string(i) + ": " + std::to_string(got) +
                      " partitions");
      }
      if (OutputDigest(dest, meta) != src.digest) {
        pass.Mismatch("op " + std::to_string(i) + ": output records differ from input");
      }
      sums.ops += 1;
      sums.records += static_cast<double>(src.records.size());
      sums.AddCost(info.build_cost);
      sums.partitions += static_cast<double>(got);
      sums.partition_records += part_records;
      fs_->Delete(dest);
      fs_->Delete(sh::index::MasterPathFor(dest));
    }
    for (double ms : pass.latency_ms) pass.op_ms += ms;
    pass.busy_s = pass.op_ms / 1000.0;
    if (traced) {
      sums.Fill(&pass.layer);
      const uint64_t lookups = runner_->artifact_cache()->hits() +
                               runner_->artifact_cache()->misses() - cache_lookups_before;
      pass.layer["mapreduce.artifact_hit_ratio"] = Ratio(
          static_cast<double>(runner_->artifact_cache()->hits() - cache_hits_before),
          static_cast<double>(lookups));
      pass.spans = rec.spans();
      pass.tracer_ns = rec.overhead_ns();
    }
    return pass;
  }

 private:
  static constexpr size_t kPoints = 250000;
  static constexpr size_t kPolygons = 14000;
  static constexpr size_t kBlock = 64 * 1024;
  // Ops per second measured on a 4-core x86 host (g++ 12, RelWithDebInfo):
  // 4-6. The floor keeps p90 at ten samples beyond it; at 20 s the two
  // agree (100 ops, made odd).
  static constexpr double kOpsPerSecond = 5;
  static constexpr size_t kMinOps = 101;

  struct Source {
    std::string path;
    sh::index::ShapeType shape = sh::index::ShapeType::kPoint;
    bool local_indexes = false;
    std::vector<std::string> records;
    RowDigest digest;
    size_t min_partitions = 0;
    size_t max_partitions = 0;
  };

  static sh::index::IndexBuildOptions BuildOptions(const Source& src) {
    sh::index::IndexBuildOptions options;
    options.scheme = sh::index::PartitionScheme::kStr;
    options.shape = src.shape;
    options.build_local_indexes = src.local_indexes;
    return options;
  }

  /// Digest of the data records of an indexed file (local-index headers
  /// skipped), read block by block.
  RowDigest OutputDigest(const std::string& path,
                         const sh::Result<sh::hdfs::FileMeta>& meta) const {
    RowDigest d;
    if (!meta.ok()) return d;
    for (size_t b = 0; b < meta->blocks.size(); ++b) {
      auto payload = fs_->ReadBlockRaw(path, b);
      if (!payload.ok()) return RowDigest{};
      std::string_view rest = **payload;
      while (!rest.empty()) {
        const size_t nl = rest.find('\n');
        const std::string_view line = rest.substr(0, nl);
        if (!line.empty() && line.front() != '#') d.Add(line);
        if (nl == std::string_view::npos) break;
        rest.remove_prefix(nl + 1);
      }
    }
    return d;
  }

  Source sources_[2];
  size_t num_ops_ = 0;
  std::unique_ptr<sh::hdfs::FileSystem> fs_;
  std::unique_ptr<sh::mapreduce::JobRunner> runner_;
};

// ---------------------------------------------------------------------
// cold_join: one caller; each op builds a fresh JobRunner (empty artifact
// cache) on the shared file system, plans the join with the optimizer,
// runs the chosen strategy as the Pigeon executor does, and drops the
// runner. Ops alternate the dense and the sparse overlay, starting and
// ending with the dense one (the median argument of bulk_build), and
// cycle through kDraws independent draws of the three inputs: the
// simulated cost of a dense join is set by its heaviest partition-pair
// task and swings by about 25% from one draw to the next, so a run
// averages several draws to stay close to the workload's mean.

class ColdJoin : public Workload {
 public:
  void Generate(uint64_t seed, double seconds) override {
    // Draws are independent; generating them (and counting their oracle
    // pairs) on three threads keeps the untimed preparation short.
    std::vector<std::thread> workers;
    for (int t = 0; t < 3; ++t) {
      workers.emplace_back([this, seed, t] {
        for (int d = t; d < kDraws; d += 3) GenerateDraw(seed, d);
      });
    }
    for (std::thread& w : workers) w.join();
    num_ops_ = OpCount(seconds, kOpsPerSecond, kMinOps, /*odd=*/true);
  }

  void GenerateDraw(uint64_t seed, int d) {
    Draw& draw = draws_[d];
    const uint64_t stream = 20 + 10 * static_cast<uint64_t>(d);
    Rng base_rng(StreamSeed(seed, stream + 1));
    Rng dense_rng(StreamSeed(seed, stream + 2));
    Rng sparse_rng(StreamSeed(seed, stream + 3));
    PolygonSet base = Polygons(base_rng, FixedLayout(201, kClusters), kBase, 0.03);
    PolygonSet dense = Polygons(dense_rng, FixedLayout(202, kClusters), kOverlay, 0.03);
    PolygonSet sparse = Polygons(sparse_rng, {}, kOverlay, 0.005);
    draw.expected_pairs[0] = oracle::CountIntersectingPairs(base.rings, dense.rings);
    draw.expected_pairs[1] = oracle::CountIntersectingPairs(base.rings, sparse.rings);
    draw.records[0] = std::move(base.records);
    draw.records[1] = std::move(dense.records);
    draw.records[2] = std::move(sparse.records);
  }

  void SetUp() override {
    fs_ = std::make_unique<sh::hdfs::FileSystem>(BenchHdfs());
    sh::mapreduce::JobRunner runner(fs_.get(), BenchCluster());
    sh::index::IndexBuilder builder(&runner);
    const char* names[3] = {"base", "dense", "sparse"};
    for (int d = 0; d < kDraws; ++d) {
      for (int i = 0; i < 3; ++i) {
        const std::string path = "/draw" + std::to_string(d) + "/" + names[i];
        Check(fs_->WriteLines(path, draws_[d].records[i]), "upload");
        sh::index::IndexBuildOptions options;
        options.scheme = sh::index::PartitionScheme::kStr;
        options.shape = sh::index::ShapeType::kPolygon;
        sh::Result<sh::index::SpatialFileInfo> info =
            builder.Build(path, path + ".idx", options);
        Check(info.status(), "index build");
        draws_[d].infos[i] = std::move(info).value();
      }
    }
    // One untimed join per overlay: the first joins grow the process heap
    // for their pair rows (tens of MB), which later ops reuse.
    for (int overlay = 1; overlay <= 2; ++overlay) {
      const Draw& draw = draws_[0];
      Check(sh::core::DistributedJoin(&runner, draw.infos[0], draw.infos[overlay]).status(),
            "warm-up join");
    }
  }

  Pass Run(bool traced) override {
    Pass pass;
    SpanRecorder rec = RecorderFor(0, fs_.get());
    LayerSums sums;
    double cache_hits = 0;
    double cache_lookups = 0;
    std::string plans[kDraws][2];
    double draw_sim[kDraws][2] = {};
    double draw_ops[kDraws][2] = {};
    const sh::mapreduce::ClusterConfig cluster = BenchCluster();
    for (size_t i = 0; i < num_ops_; ++i) {
      const int overlay_index = static_cast<int>(i % 2);
      const int d = static_cast<int>((i / 2) % kDraws);
      const Draw& draw = draws_[d];
      const sh::index::SpatialFileInfo& base = draw.infos[0];
      const sh::index::SpatialFileInfo& overlay = draw.infos[1 + overlay_index];
      sh::core::OpStats stats;
      sh::Result<std::vector<std::string>> rows = std::vector<std::string>();
      int op = -1;
      int span = -1;
      if (traced) op = rec.Begin("op", static_cast<int64_t>(i), -1);
      const int64_t t0 = NowNs();
      auto runner = std::make_unique<sh::mapreduce::JobRunner>(fs_.get(), cluster);
      if (traced) span = rec.Begin("optimizer.PlanJoin", static_cast<int64_t>(i), op);
      const sh::optimizer::JoinPlan plan = sh::optimizer::PlanJoin(cluster, base, overlay);
      if (traced) {
        rec.End(span);
        span = rec.Begin("core.Join", static_cast<int64_t>(i), op);
      }
      if (plan.strategy == sh::optimizer::JoinStrategy::kSjmr) {
        rows = sh::core::SjmrJoin(runner.get(), base.data_path, base.shape,
                                  overlay.data_path, overlay.shape, &stats);
      } else {
        sh::core::DjOptions dj;
        dj.build_right = plan.strategy == sh::optimizer::JoinStrategy::kDjBuildRight;
        rows = sh::core::DistributedJoin(runner.get(), base, overlay, &stats, dj);
      }
      if (traced) rec.End(span, stats.wall_ms);
      const double hits = static_cast<double>(runner->artifact_cache()->hits());
      const double lookups = hits + static_cast<double>(runner->artifact_cache()->misses());
      runner.reset();
      const int64_t t1 = NowNs();
      if (traced) {
        rec.End(op);
        sums.AddDelta(rec.spans()[op].at_start, rec.spans()[op].at_end);
      }
      ++pass.attempted;
      pass.latency_ms.push_back(NsToMs(t1 - t0));
      if (!rows.ok()) {
        ++pass.failed;
        continue;
      }
      pass.sim_ms += stats.cost.total_ms;
      ++pass.sim_ops;
      plans[d][overlay_index] = plan.decision.chosen;
      draw_sim[d][overlay_index] += stats.cost.total_ms;
      draw_ops[d][overlay_index] += 1;
      const uint64_t expected = draw.expected_pairs[overlay_index];
      if (rows->size() != expected) {
        pass.Mismatch("op " + std::to_string(i) + ": " + std::to_string(rows->size()) +
                      " pairs, oracle " + std::to_string(expected));
      }
      sums.ops += 1;
      sums.records += static_cast<double>(draw.records[0].size() +
                                          draw.records[1 + overlay_index].size());
      sums.AddCost(stats.cost);
      sums.jobs += stats.jobs_run;
      for (const auto* info : {&base, &overlay}) {
        sums.partitions += static_cast<double>(info->global_index.NumPartitions());
        for (const auto& p : info->global_index.partitions()) {
          sums.partition_records += static_cast<double>(p.num_records);
        }
      }
      cache_hits += hits;
      cache_lookups += lookups;
    }
    for (double ms : pass.latency_ms) pass.op_ms += ms;
    pass.busy_s = pass.op_ms / 1000.0;
    const char* overlay_names[2] = {"dense", "sparse"};
    for (int d = 0; d < kDraws; ++d) {
      for (int k = 0; k < 2; ++k) {
        std::cout << "join draw=" << d << " overlay=" << overlay_names[k]
                  << " pairs=" << draws_[d].expected_pairs[k] << " plan=" << plans[d][k]
                  << " sim_ms_per_op=" << Num(Ratio(draw_sim[d][k], draw_ops[d][k])) << "\n";
      }
    }
    if (traced) {
      pass.spans = rec.spans();
      pass.tracer_ns = rec.overhead_ns();
      sums.Fill(&pass.layer);
      const SpanSummary plan = Summarize(pass.spans, "optimizer.PlanJoin");
      const SpanSummary join = Summarize(pass.spans, "core.Join");
      double job_wall = 0;
      for (const Span& s : pass.spans) {
        if (std::string_view(s.name) == "core.Join") job_wall += s.external_child_ms;
      }
      pass.layer["optimizer.plan_ms"] = plan.mean_ms;
      pass.layer["core.self_ms"] = join.mean_self_ms;
      pass.layer["mapreduce.job_wall_ms"] = Ratio(job_wall, static_cast<double>(join.count));
      pass.layer["mapreduce.artifact_hit_ratio"] = Ratio(cache_hits, cache_lookups);
      pass.layer["core.partitions_read_ratio"] = Ratio(sums.map_tasks, sums.partitions);
    }
    return pass;
  }

 private:
  static constexpr int kDraws = 6;
  static constexpr size_t kBase = 14000;
  static constexpr size_t kOverlay = 10000;
  static constexpr double kOpsPerSecond = 7.5;
  static constexpr size_t kMinOps = 101;

  struct Draw {
    std::vector<std::string> records[3];  // base, dense, sparse.
    uint64_t expected_pairs[2] = {0, 0};  // base x dense, base x sparse.
    sh::index::SpatialFileInfo infos[3];
  };

  Draw draws_[kDraws];
  size_t num_ops_ = 0;
  std::unique_ptr<sh::hdfs::FileSystem> fs_;
};

// ---------------------------------------------------------------------
// live_serve: two tenant sessions on one QueryServer, one client thread
// each, closed loop. Reads are RANGE / COUNT / KNN in equal thirds, and
// one in five repeats an earlier read of the same session; the `live`
// session follows the latest version and appends a small batch every
// kAppendInterval requests; the `pinned` session stays on the version it
// opened. The op sequence is fixed per seed and replayed in full, so
// every run grows the live version by the same records.

class LiveServe : public Workload {
 public:
  bool PlantWrongOracle() override {
    plant_ = true;
    return true;
  }

  void Generate(uint64_t seed, double seconds) override {
    const std::vector<Pt> layout = FixedLayout(301, kClusters);
    Rng data_rng(StreamSeed(seed, 31));
    base_.reserve(kPoints);
    std::vector<Pt> units;
    units.reserve(kPoints);
    for (size_t i = 0; i < kPoints; ++i) {
      units.push_back(ClusteredUnit(data_rng, layout));
      base_.push_back(PointRecord(units.back()));
    }
    // Appended points come from the base distribution.
    const size_t reads = OpCount(seconds, kReadsPerSecond, kMinReads, false);
    const size_t appends = reads / (kAppendInterval - 1);
    batches_.resize(appends);
    for (std::vector<std::string>& batch : batches_) {
      for (size_t i = 0; i < kBatchPoints; ++i) {
        batch.push_back(PointRecord(ClusteredUnit(data_rng, layout)));
      }
    }

    oracle::PointOracle oracle(Box{0, 0, kSide, kSide}, 256);
    for (const std::string& r : base_) oracle.Add(r, 0);
    for (size_t b = 0; b < batches_.size(); ++b) {
      for (const std::string& r : batches_[b]) oracle.Add(r, static_cast<uint32_t>(b + 1));
    }
    oracle.Seal();

    Rng warm_rng(StreamSeed(seed, 32));
    for (Session& s : sessions_) {
      for (size_t i = 0; i < kWarmupReads; ++i) {
        s.warmup.push_back(MakeRead(warm_rng, units).script);
      }
    }
    for (int k = 0; k < 2; ++k) {
      Session& s = sessions_[k];
      Rng rng(StreamSeed(seed, 33 + static_cast<uint64_t>(k)));
      uint32_t version = 1;
      size_t next_batch = 0;
      std::vector<size_t> reads_so_far;
      const bool live = k == 0;
      while (reads_so_far.size() < reads) {
        if (live && (s.requests.size() + 1) % kAppendInterval == 0 &&
            next_batch < batches_.size()) {
          Request append;
          append.kind = Request::kAppend;
          append.script = "g = LOAD '/batch/" + std::to_string(next_batch) + "' APPEND pts;";
          append.version = ++version;
          ++next_batch;
          s.requests.push_back(std::move(append));
          continue;
        }
        Request read;
        if (!reads_so_far.empty() && rng.Uniform() < kRepeatShare) {
          read = s.requests[reads_so_far[rng.Below(reads_so_far.size())]];
        } else {
          read = MakeRead(rng, units);
        }
        read.version = version;
        Expect(oracle, &read);
        reads_so_far.push_back(s.requests.size());
        s.requests.push_back(std::move(read));
      }
    }
    if (plant_) {
      Request& first = sessions_[1].requests.front();
      first.digest.count += 1;
      first.count += 1;
      first.kth = first.kth * 2 + 1;
    }
  }

  void SetUp() override {
    server_.reset();
    fs_ = std::make_unique<sh::hdfs::FileSystem>(BenchHdfs());
    Check(fs_->WriteLines("/pts", base_), "upload");
    for (size_t b = 0; b < batches_.size(); ++b) {
      Check(fs_->WriteLines("/batch/" + std::to_string(b), batches_[b]), "upload");
    }
    {
      sh::mapreduce::JobRunner runner(fs_.get(), BenchCluster());
      sh::index::IndexBuilder builder(&runner);
      sh::index::IndexBuildOptions options;
      options.scheme = sh::index::PartitionScheme::kStr;
      options.shape = sh::index::ShapeType::kPoint;
      options.build_local_indexes = true;
      Check(builder.Build("/pts", "/pts.idx", options).status(), "index build");
    }
    sh::server::ServerOptions options;
    options.cluster = BenchCluster();
    server_ = std::make_unique<sh::server::QueryServer>(fs_.get(), options);
    Check(server_->AttachDataset("pts", "/pts.idx"), "attach");
    for (Session& s : sessions_) {
      sh::Result<sh::server::SessionId> id = server_->OpenSession(s.tenant, 1);
      Check(id.status(), "open session");
      s.id = id.value();
    }
    Check(server_->Execute(sessions_[0].id, "SET snapshot_version 0;").status(),
          "snapshot_version");
    for (Session& s : sessions_) {
      for (const std::string& script : s.warmup) {
        Check(server_->Execute(s.id, script).status(), "warm-up");
      }
    }
  }

  Pass Run(bool traced) override {
    const CounterSnapshot before = Snap(*fs_);
    const uint64_t cache_hits = server_->result_cache().hits();
    const uint64_t cache_misses = server_->result_cache().misses();
    sh::mapreduce::TenantStats adm_before[2];
    for (int k = 0; k < 2; ++k) {
      adm_before[k] = server_->admission().StatsFor(sessions_[k].tenant);
    }
    std::vector<Outcome> outcomes[2];
    SpanRecorder recs[2] = {RecorderFor(0, fs_.get()), RecorderFor(1, fs_.get())};
    const int64_t t0 = NowNs();
    {
      std::vector<std::thread> clients;
      for (int k = 0; k < 2; ++k) {
        clients.emplace_back([this, k, traced, &outcomes, &recs] {
          outcomes[k] = Serve(sessions_[k], traced ? &recs[k] : nullptr);
        });
      }
      for (std::thread& t : clients) t.join();
    }
    const int64_t t1 = NowNs();
    const CounterSnapshot after = Snap(*fs_);

    Pass pass;
    pass.busy_s = NsToMs(t1 - t0) / 1000.0;
    std::vector<double> append_ms;
    LayerSums sums;
    double wall = 0;
    double rewritten = 0;
    double touched = 0;
    double read_map_tasks = 0;
    double read_records = 0;
    // Partitions and Σ partition records of each version read, looked up
    // after the pass so the lookups stay out of the traced loop.
    std::map<uint32_t, std::pair<double, double>> version_partitions;
    for (int k = 0; traced && k < 2; ++k) {
      for (const Request& req : sessions_[k].requests) {
        if (req.kind == Request::kAppend || version_partitions.count(req.version)) continue;
        sh::Result<sh::index::SpatialFileInfo> snap =
            server_->catalog().Snapshot("pts", req.version);
        if (!snap.ok()) continue;
        double records = 0;
        for (const auto& p : snap->global_index.partitions()) {
          records += static_cast<double>(p.num_records);
        }
        version_partitions[req.version] = {
            static_cast<double>(snap->global_index.NumPartitions()), records};
      }
    }
    for (int k = 0; k < 2; ++k) {
      const Session& s = sessions_[k];
      for (size_t i = 0; i < s.requests.size(); ++i) {
        const Request& req = s.requests[i];
        const Outcome& out = outcomes[k][i];
        ++pass.attempted;
        pass.op_ms += out.latency_ms;
        sums.ops += 1;
        sums.jobs += out.jobs;
        wall += out.job_wall_ms;
        if (req.kind == Request::kAppend) {
          append_ms.push_back(out.latency_ms);
          sums.records += kBatchPoints;
          rewritten += out.appended_partitions;
          touched += out.appended_partitions + out.shared_partitions;
          if (out.ok) sums.AddCost(out.cost);
          else ++pass.failed;
          continue;
        }
        pass.latency_ms.push_back(out.latency_ms);
        if (!out.ok) {
          ++pass.failed;
          continue;
        }
        pass.sim_ms += out.cost.total_ms;
        ++pass.sim_ops;
        sums.AddCost(out.cost);
        read_map_tasks += out.cost.num_map_tasks;
        read_records += static_cast<double>(kPoints + (req.version - 1) * kBatchPoints);
        sums.records += static_cast<double>(kPoints + (req.version - 1) * kBatchPoints);
        if (traced) {
          sums.partitions += version_partitions[req.version].first;
          sums.partition_records += version_partitions[req.version].second;
        }
        if (!Matches(req, out)) {
          pass.Mismatch(s.tenant + " request " + std::to_string(i) + " (" + req.script + ")");
        }
      }
    }
    std::sort(append_ms.begin(), append_ms.end());
    if (traced) {
      sums.delta = CounterSnapshot{after.parses - before.parses,
                                   after.bytes_read - before.bytes_read,
                                   after.bytes_written - before.bytes_written,
                                   after.blocks_read - before.blocks_read};
      sums.Fill(&pass.layer);
      for (int k = 0; k < 2; ++k) {
        pass.spans.insert(pass.spans.end(), recs[k].spans().begin(), recs[k].spans().end());
        pass.tracer_ns += recs[k].overhead_ns();
      }
      double self = 0;
      double execs = 0;
      for (int k = 0; k < 2; ++k) {
        const std::vector<Span>& spans = recs[k].spans();
        for (size_t i = 0; i < spans.size(); ++i) {
          if (std::string_view(spans[i].name) != "server.Execute") continue;
          self += SelfMs(spans, i);
          execs += 1;
        }
      }
      pass.layer["server.self_ms"] = Ratio(self, execs);
      pass.layer["mapreduce.job_wall_ms"] = Ratio(wall, sums.ops);
      const double hits = static_cast<double>(server_->result_cache().hits() - cache_hits);
      const double misses =
          static_cast<double>(server_->result_cache().misses() - cache_misses);
      pass.layer["server.result_cache_hit_ratio"] = Ratio(hits, hits + misses);
      pass.layer["catalog.rewritten_partition_ratio"] = Ratio(rewritten, touched);
      pass.layer["catalog.append_p50_ms"] = append_ms.empty() ? 0 : NearestRank(append_ms, 50);
      double queued = 0;
      double admitted = 0;
      for (int k = 0; k < 2; ++k) {
        const sh::mapreduce::TenantStats now = server_->admission().StatsFor(sessions_[k].tenant);
        queued += static_cast<double>(now.jobs_queued - adm_before[k].jobs_queued);
        admitted += static_cast<double>(now.jobs_admitted - adm_before[k].jobs_admitted);
      }
      pass.layer["mapreduce.admission_queued_ratio"] = Ratio(queued, admitted);
      pass.layer["core.partitions_read_ratio"] = Ratio(read_map_tasks, sums.partitions);
      pass.layer["index.replication_ratio"] = Ratio(sums.partition_records, read_records);
    }
    std::vector<double> reads = pass.latency_ms;
    std::sort(reads.begin(), reads.end());
    if (PercentileSupported(reads.size(), 99)) {
      std::cout << "read_p99_ms=" << Num(NearestRank(reads, 99)) << " samples=" << reads.size()
                << "\n";
    }
    if (!append_ms.empty()) {
      std::cout << "append_p50_ms=" << Num(NearestRank(append_ms, 50))
                << " samples=" << append_ms.size() << "\n";
    }
    return pass;
  }

 private:
  static constexpr size_t kPoints = 400000;
  // An append rewrites every partition it touches, and points drawn from
  // the base distribution touch about one partition each: a 10-point
  // append took 125-140 ms on a 4-core x86 host, a 200-point one 2.2 s.
  // Ten points every 2000 live requests keep appends near a tenth of the
  // live session's time.
  static constexpr size_t kBatchPoints = 10;
  static constexpr size_t kAppendInterval = 2000;
  static constexpr size_t kWarmupReads = 400;
  static constexpr double kRepeatShare = 0.2;
  static constexpr size_t kK = 10;
  // Reads per session: nominal rate on a 4-core x86 host, and a floor of
  // 500 per session so the pooled reads keep p99 at ten samples beyond.
  static constexpr double kReadsPerSecond = 800;
  static constexpr size_t kMinReads = 500;
  bool plant_ = false;

  struct Request {
    enum Kind { kRange, kCount, kKnn, kAppend } kind = kRange;
    std::string script;
    Box window;
    Pt q;
    uint32_t version = 1;  // Version the request reads (append: creates).
    RowDigest digest;      // Oracle answers.
    uint64_t count = 0;
    double kth = 0;
  };

  struct Session {
    std::string tenant;
    sh::server::SessionId id = 0;
    std::vector<std::string> warmup;
    std::vector<Request> requests;
  };

  struct Outcome {
    bool ok = false;
    double latency_ms = 0;
    sh::mapreduce::JobCost cost;
    double jobs = 0;
    double job_wall_ms = 0;
    double appended_partitions = 0;
    double shared_partitions = 0;
    RowDigest digest;
    size_t rows = 0;
    uint64_t count = 0;
    double kth = -1;
  };

  Request MakeRead(Rng& rng, const std::vector<Pt>& units) const {
    Request r;
    r.kind = static_cast<Request::Kind>(rng.Below(3));
    // Half the centres sit on data points, half are uniform.
    const Pt c = rng.Uniform() < 0.5 ? units[rng.Below(units.size())]
                                     : Pt{rng.Uniform(), rng.Uniform()};
    std::string x, y;
    if (r.kind == Request::kKnn) {
      r.q = {Rounded(c.x * kSide, &x), Rounded(c.y * kSide, &y)};
      r.script = "k = KNN pts POINT(" + x + ", " + y + ") K " + std::to_string(kK) +
                 "; DUMP k;";
      return r;
    }
    const double max_side = r.kind == Request::kRange ? 0.02 : 0.10;
    const double w = std::max(rng.Uniform(), 0.05) * max_side * kSide;
    const double h = std::max(rng.Uniform(), 0.05) * max_side * kSide;
    std::string x1, y1;
    r.window = Box{Rounded(c.x * kSide - w / 2, &x), Rounded(c.y * kSide - h / 2, &y),
                   Rounded(c.x * kSide + w / 2, &x1), Rounded(c.y * kSide + h / 2, &y1)};
    const std::string rect = "RECTANGLE(" + x + ", " + y + ", " + x1 + ", " + y1 + ")";
    r.script = r.kind == Request::kRange ? "r = RANGE pts " + rect + "; DUMP r;"
                                         : "c = COUNT pts " + rect + "; DUMP c;";
    return r;
  }

  void Expect(const oracle::PointOracle& oracle, Request* r) const {
    if (r->kind == Request::kKnn) {
      r->kth = oracle.KthDistance(r->q, kK, r->version);
    } else {
      r->digest = oracle.Range(r->window, r->version);
      r->count = r->digest.count;
    }
  }

  bool Matches(const Request& req, const Outcome& out) const {
    switch (req.kind) {
      case Request::kRange:
        return out.digest == req.digest;
      case Request::kCount:
        return out.rows == 1 && out.count == req.count;
      case Request::kKnn:
        return out.rows == kK &&
               std::abs(out.kth - req.kth) <= 1e-9 * std::max(1.0, req.kth);
      case Request::kAppend:
        return true;
    }
    return false;
  }

  /// One client's closed loop over its session's requests.
  std::vector<Outcome> Serve(const Session& s, SpanRecorder* rec) {
    std::vector<Outcome> outcomes(s.requests.size());
    const sh::pigeon::ExecutionReport* report = server_->SessionReport(s.id).value();
    for (size_t i = 0; i < s.requests.size(); ++i) {
      const Request& req = s.requests[i];
      Outcome& out = outcomes[i];
      const double wall_before = report->stats.wall_ms;
      const int jobs_before = report->stats.jobs_run;
      const int64_t appended_before =
          report->stats.counters.Get("ingest.appended_partitions");
      const int64_t shared_before = report->stats.counters.Get("ingest.shared_partitions");
      int op = -1;
      int span = -1;
      if (rec != nullptr) {
        op = rec->Begin("op", static_cast<int64_t>(i), -1);
        span = rec->Begin("server.Execute", static_cast<int64_t>(i), op);
      }
      const int64_t t0 = NowNs();
      sh::Result<sh::server::RequestResult> result = server_->Execute(s.id, req.script);
      const int64_t t1 = NowNs();
      out.job_wall_ms = report->stats.wall_ms - wall_before;
      if (rec != nullptr) {
        rec->End(span, out.job_wall_ms);
        rec->End(op);
      }
      out.latency_ms = NsToMs(t1 - t0);
      out.ok = result.ok();
      if (!out.ok) continue;
      out.jobs = report->stats.jobs_run - jobs_before;
      out.cost = result->cost;
      if (req.kind == Request::kAppend) {
        out.appended_partitions = static_cast<double>(
            report->stats.counters.Get("ingest.appended_partitions") - appended_before);
        out.shared_partitions = static_cast<double>(
            report->stats.counters.Get("ingest.shared_partitions") - shared_before);
        continue;
      }
      const std::vector<std::string>& rows = result->rows;
      out.rows = rows.size();
      if (req.kind == Request::kRange) {
        out.digest = DigestOf(rows);
      } else if (req.kind == Request::kCount) {
        if (rows.size() == 1) {
          std::from_chars(rows[0].data(), rows[0].data() + rows[0].size(), out.count);
        }
      } else {
        out.kth = -1;
        for (const std::string& row : rows) {
          Pt p;
          if (!oracle::ParsePointRecord(row, &p)) {
            out.kth = std::nan("");
            break;
          }
          out.kth = std::max(out.kth, oracle::Distance(p, req.q));
        }
      }
    }
    return outcomes;
  }

  std::vector<std::string> base_;
  std::vector<std::vector<std::string>> batches_;
  Session sessions_[2] = {Session{"live", 0, {}, {}}, Session{"pinned", 0, {}, {}}};
  std::unique_ptr<sh::hdfs::FileSystem> fs_;
  std::unique_ptr<sh::server::QueryServer> server_;
};

// ---------------------------------------------------------------------
// Reporting.

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss: KiB.
}

/// host_probe_ms on the 4-core x86 host the bounds were set on: the median
/// over 43 runs, whose probes ranged from 21.6 to 26.6 ms.
constexpr double kReferenceProbeMs = 24.0;

struct EndToEnd {
  MetricMap values;  // Host times scaled to the reference host speed.
  MetricMap raw;     // Host times as measured on this run's host.
  std::map<std::string, size_t> samples;
  double failed_ratio = 0;
};

/// End-to-end metrics of a pass. The host on which they were calibrated
/// drifted by up to 40% within minutes, in step with its probe (correlation
/// 0.89 over 20 bulk_build runs), while every run of a seed did the same
/// work. So host times are scaled by kReferenceProbeMs / probe_ms: a run on
/// a host that is 10% slower reports times 10% shorter than it measured,
/// and ops_per_s 10% higher. The raw values print beside them.
EndToEnd EndToEndOf(const Pass& pass, const std::vector<double>& setup_s, double probe_ms) {
  EndToEnd e;
  std::vector<double> lat = pass.latency_ms;
  std::sort(lat.begin(), lat.end());
  e.raw["setup_s"] = Median(setup_s);
  e.samples["setup_s"] = setup_s.size();
  e.raw["ops_per_s"] = Ratio(static_cast<double>(pass.attempted), pass.busy_s);
  e.samples["ops_per_s"] = static_cast<size_t>(pass.attempted);
  e.raw["latency_p50_ms"] = NearestRank(lat, 50);
  e.samples["latency_p50_ms"] = lat.size();
  e.raw["latency_tail_ms"] = NearestRank(lat, kTailPercentile);
  e.samples["latency_tail_ms"] = lat.size();
  e.values = e.raw;
  const double speed = kReferenceProbeMs / probe_ms;
  for (const char* time : {"setup_s", "latency_p50_ms", "latency_tail_ms"}) {
    e.values[time] *= speed;
  }
  e.values["ops_per_s"] /= speed;
  e.values["sim_ms_per_op"] = Ratio(pass.sim_ms, static_cast<double>(pass.sim_ops));
  e.samples["sim_ms_per_op"] = static_cast<size_t>(pass.sim_ops);
  e.values["peak_rss_mb"] = PeakRssMb();
  e.samples["peak_rss_mb"] = 1;
  e.failed_ratio = Ratio(static_cast<double>(pass.failed), static_cast<double>(pass.attempted));
  return e;
}

void PrintEndToEnd(const std::string& label, const EndToEnd& e) {
  for (const MetricDef& m : EndToEndMetrics()) {
    std::cout << label << " " << m.name << "=" << Num(e.values.at(m.name))
              << " unit=" << m.unit << " samples=" << e.samples.at(m.name);
    if (std::string_view(m.name) == "latency_tail_ms") {
      std::cout << " percentile=p" << kTailPercentile;
    }
    const auto raw = e.raw.find(m.name);
    if (raw != e.raw.end()) std::cout << " raw=" << Num(raw->second);
    std::cout << "\n";
  }
  std::cout << label << " failed_ratio=" << Num(e.failed_ratio) << " unit=fraction\n";
}

void WriteTrace(const std::string& path, const std::string& meta, const Pass& pass) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot write trace file " << path << "\n";
    return;
  }
  out << "{\"meta\": " << meta << "}\n";
  for (size_t i = 0; i < pass.spans.size(); ++i) {
    const Span& s = pass.spans[i];
    out << "{\"name\": \"" << s.name << "\", \"thread\": " << s.thread
        << ", \"op\": " << s.op << ", \"parent\": " << s.parent
        << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << ", \"external_child_ms\": " << Num(s.external_child_ms)
        << ", \"parses\": " << s.at_end.parses - s.at_start.parses
        << ", \"bytes_read\": " << s.at_end.bytes_read - s.at_start.bytes_read
        << ", \"bytes_written\": " << s.at_end.bytes_written - s.at_start.bytes_written
        << ", \"blocks_read\": " << s.at_end.blocks_read - s.at_start.blocks_read << "}\n";
  }
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
  std::string commit = "unknown";
  bool plant = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      args->workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      args->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      args->seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      args->trace = std::string(argv[++i]) == "1";
    } else if (arg == "--trace-out" && has_value) {
      args->trace_out = argv[++i];
    } else if (arg == "--commit" && has_value) {
      args->commit = argv[++i];
    } else if (arg == "--plant-wrong-oracle") {
      args->plant = true;
    } else {
      std::cerr << "unknown argument: " << arg << "\n";
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: perfbench_driver --workload <bulk_build|live_serve|"
                 "cold_join> --seed <n> --seconds <s> [--trace 0|1]\n";
    return 2;
  }
  std::unique_ptr<Workload> workload;
  if (args.workload == "bulk_build") {
    workload = std::make_unique<BulkBuild>();
  } else if (args.workload == "live_serve") {
    workload = std::make_unique<LiveServe>();
  } else if (args.workload == "cold_join") {
    workload = std::make_unique<ColdJoin>();
  } else {
    std::cerr << "unknown workload: " << args.workload << "\n";
    return 2;
  }
  if (args.plant && !workload->PlantWrongOracle()) {
    std::cerr << "--plant-wrong-oracle is implemented for live_serve only\n";
    return 2;
  }

  const std::string simd = sh::simd::TargetName(sh::simd::ActiveTarget());
  const std::string meta =
      "{\"workload\": " + JsonString(args.workload) + ", \"seed\": " +
      std::to_string(args.seed) + ", \"seconds\": " + Num(args.seconds) +
      ", \"commit\": " + JsonString(args.commit) + ", \"compiler\": " +
      JsonString(PERFBENCH_COMPILER) + ", \"build_type\": " +
      JsonString(PERFBENCH_BUILD_TYPE) + ", \"nproc\": " +
      std::to_string(std::thread::hardware_concurrency()) + ", \"simd\": " +
      JsonString(simd) + "}";
  std::cout << "meta " << meta << "\n";

  // The host-speed probe runs before generation, after each set-up and
  // after each pass; EndToEndOf scales host times by the median.
  std::vector<double> probe_ms;
  auto probe = [&probe_ms] { probe_ms.push_back(HostProbeMs()); };
  probe();
  workload->Generate(args.seed, args.seconds);
  // setup_s is the median of three set-ups. A traced run reports per-layer
  // metrics only, so it sets up once before each pass.
  std::vector<double> setup_s;
  for (int i = 0; i < (args.trace ? 1 : 3); ++i) {
    const int64_t t0 = NowNs();
    workload->SetUp();
    setup_s.push_back(NsToMs(NowNs() - t0) / 1000.0);
    probe();
  }
  const Pass untraced = workload->Run(/*traced=*/false);
  probe();
  const EndToEnd e2e = EndToEndOf(untraced, setup_s, Median(probe_ms));
  PrintEndToEnd("end_to_end", e2e);
  std::cout << "host_probe_ms=" << Num(Median(probe_ms)) << " samples=" << probe_ms.size()
            << " reference=" << Num(kReferenceProbeMs) << "\n";

  bool correct = untraced.mismatches.empty();
  for (const std::string& m : untraced.mismatches) std::cerr << "MISMATCH " << m << "\n";
  int64_t attempted = untraced.attempted;
  int64_t failed = untraced.failed;
  std::string metrics;
  auto add_metric = [&metrics](const MetricDef& m, double value) {
    if (!metrics.empty()) metrics += ", ";
    metrics += JsonString(m.name) + ": {\"value\": " + Num(value) +
               ", \"unit\": " + JsonString(m.unit) + "}";
  };

  if (args.trace) {
    const int64_t t0 = NowNs();
    workload->SetUp();
    const double traced_setup_s = NsToMs(NowNs() - t0) / 1000.0;
    probe();
    Pass traced = workload->Run(/*traced=*/true);
    probe();
    PrintEndToEnd("traced_end_to_end", EndToEndOf(traced, {traced_setup_s}, Median(probe_ms)));
    traced.layer["trace.overhead_pct"] = 100.0 * Ratio(NsToMs(traced.tracer_ns), traced.op_ms);
    for (const std::string& m : traced.mismatches) std::cerr << "MISMATCH " << m << "\n";
    correct = correct && traced.mismatches.empty();
    attempted += traced.attempted;
    failed += traced.failed;
    for (const MetricDef& m : LayerMetrics()) {
      const auto it = traced.layer.find(m.name);
      const double value = it == traced.layer.end() ? 0 : it->second;
      std::cout << "per_layer " << m.name << "=" << Num(value) << " unit=" << m.unit
                << " ops=" << traced.attempted << "\n";
      add_metric(m, value);
    }
    if (!args.trace_out.empty()) WriteTrace(args.trace_out, meta, traced);
  } else {
    for (const MetricDef& m : EndToEndMetrics()) add_metric(m, e2e.values.at(m.name));
  }
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {" << metrics << "}}" << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
