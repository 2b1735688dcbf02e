#include "core/spatial_join.h"

#include <cmath>
#include <memory>

#include "common/string_util.h"
#include "core/file_mbr.h"
#include "core/histogram_op.h"
#include "core/query_pipeline.h"
#include "core/spatial_record_reader.h"
#include "geometry/wkt.h"
#include "index/grid_partitioner.h"
#include "index/packed_rtree.h"
#include "index/str_partitioner.h"

namespace shadoop::core {
namespace {

using mapreduce::JobResult;
using mapreduce::MapContext;

/// True when the pair passes the join predicate: extents intersect, with
/// exact refinement for polygon pairs. The rings are views into the
/// readers' parse-once polygon columns, so a candidate appearing in many
/// pairs is never re-parsed or copied. A record without a ring (malformed,
/// but given an envelope by a #lidx header) matches on its envelope.
bool JoinMatch(SpatialRecordReader& reader_a, uint32_t pa,
               const Envelope& env_a, SpatialRecordReader& reader_b,
               uint32_t pb, const Envelope& env_b) {
  if (!env_a.Intersects(env_b)) return false;
  if (reader_a.shape() == index::ShapeType::kPolygon &&
      reader_b.shape() == index::ShapeType::kPolygon) {
    const RingView ring_a = reader_a.PolygonAt(pa);
    const RingView ring_b = reader_b.PolygonAt(pb);
    if (!ring_a.ring.empty() && !ring_b.ring.empty()) {
      return RingsIntersect(ring_a, ring_b);
    }
  }
  return true;
}

/// Joins two record sets with the selected in-memory kernel. Emits
/// matched pairs that pass `accept_ref` (the duplicate-avoidance
/// predicate over the pair's reference point). Returns charged CPU ops.
/// `flip_output` emits the second reader's record first — callers that
/// swapped their inputs to move the build side use it to keep the output
/// line format (original A record, separator, B record).
uint64_t LocalJoin(SpatialRecordReader& reader_a,
                   const std::vector<index::PackedRTree::Entry>& entries_a,
                   SpatialRecordReader& reader_b,
                   const std::vector<index::PackedRTree::Entry>& entries_b,
                   LocalJoinAlgorithm algorithm,
                   const std::function<bool(const Point&)>& accept_ref,
                   const std::function<void(std::string)>& emit,
                   bool flip_output = false) {
  // Payload -> envelope lookup (payloads index records(), but entries may
  // skip malformed records, so positions and payloads differ).
  std::vector<Envelope> env_of_a(reader_a.NumRecords());
  for (const auto& e : entries_a) env_of_a[e.payload] = e.box;
  std::vector<Envelope> env_of_b(reader_b.NumRecords());
  for (const auto& e : entries_b) env_of_b[e.payload] = e.box;

  uint64_t refine_cpu = 0;
  const uint64_t kernel_cpu = LocalJoinPairs(
      entries_a, entries_b, algorithm,
      [&](uint32_t pa, uint32_t pb) {
        const Envelope& env_a = env_of_a[pa];
        const Envelope& env_b = env_of_b[pb];
        const Point ref = env_a.Intersection(env_b).BottomLeft();
        if (!accept_ref(ref)) return;
        refine_cpu += 200;
        if (JoinMatch(reader_a, pa, env_a, reader_b, pb, env_b)) {
          const std::string_view ra = reader_a.records()[pa];
          const std::string_view rb = reader_b.records()[pb];
          const std::string_view first = flip_output ? rb : ra;
          const std::string_view second = flip_output ? ra : rb;
          std::string line;
          line.reserve(first.size() + 1 + second.size());
          line.append(first);
          line.push_back(kJoinSeparator);
          line.append(second);
          emit(std::move(line));
        }
      });
  return kernel_cpu + refine_cpu;
}

// ---------------------------------------------------------------------
// SJMR

/// Map phase of SJMR: repartitions records of one input on the shared
/// cell tiling. The split meta is "A" or "B".
class SjmrMapper : public mapreduce::Mapper {
 public:
  SjmrMapper(index::ShapeType shape_a, index::ShapeType shape_b,
             std::shared_ptr<const index::Partitioner> grid)
      : shape_a_(shape_a), shape_b_(shape_b), grid_(std::move(grid)) {}

  void BeginSplit(MapContext& ctx) override {
    tag_ = ctx.split().meta;
  }

  void Map(std::string_view record, MapContext& ctx) override {
    if (index::IsMetadataRecord(record)) return;
    const index::ShapeType shape = tag_ == "A" ? shape_a_ : shape_b_;
    auto env = index::RecordEnvelope(shape, record);
    if (!env.ok()) {
      ctx.counters().Increment("sjmr.bad_records");
      return;
    }
    std::string tagged;
    tagged.reserve(tag_.size() + record.size());
    tagged.append(tag_);
    tagged.append(record);
    grid_->AssignEnvelope(env.value(), &cells_);
    for (int cell : cells_) {
      char key[16];
      std::snprintf(key, sizeof(key), "%010d", cell);
      ctx.Emit(key, tagged);
    }
  }

 private:
  index::ShapeType shape_a_;
  index::ShapeType shape_b_;
  std::shared_ptr<const index::Partitioner> grid_;
  std::string tag_;
  std::vector<int> cells_;  // Reused by every record.
};

/// Reduce phase of SJMR: joins one grid cell.
class SjmrReducer : public mapreduce::Reducer {
 public:
  SjmrReducer(index::ShapeType shape_a, index::ShapeType shape_b,
              std::shared_ptr<const index::Partitioner> grid,
              LocalJoinAlgorithm algorithm)
      : shape_a_(shape_a),
        shape_b_(shape_b),
        grid_(std::move(grid)),
        algorithm_(algorithm) {}

  void Reduce(std::string_view key, std::span<const std::string_view> values,
              mapreduce::ReduceContext& ctx) override {
    auto cell_id = ParseInt64(key);
    if (!cell_id.ok()) {
      ctx.Fail(cell_id.status());
      return;
    }
    const Envelope cell = grid_->CellExtent(static_cast<int>(cell_id.value()));

    SpatialRecordReader reader_a(shape_a_);
    SpatialRecordReader reader_b(shape_b_);
    for (std::string_view value : values) {
      if (value.empty()) continue;
      // `values` outlives the readers (both are scoped to this call), so
      // the untagged tails can be borrowed instead of copied.
      const std::string_view tail = std::string_view(value).substr(1);
      if (value[0] == 'A') {
        reader_a.AddBorrowed(tail);
      } else {
        reader_b.AddBorrowed(tail);
      }
    }
    // Reference-point duplicate avoidance: a record pair overlapping
    // several grid cells is reported only by the cell owning the
    // bottom-left corner of the pair's intersection. Cells on the global
    // top/right edge accept their closed boundary (no neighbour exists
    // there to double-report).
    uint64_t cpu = LocalJoin(
        reader_a, reader_a.Envelopes(), reader_b, reader_b.Envelopes(),
        algorithm_,
        [this, &cell](const Point& ref) { return AcceptRef(cell, ref); },
        [this, &ctx](std::string line) {
          ctx.Write(std::move(line));
          ++results_;
        });
    ctx.ChargeCpu(cpu);
  }

  void Finish(mapreduce::ReduceContext& ctx) override {
    // Counted once per task; a task without results adds no counter.
    if (results_ > 0) ctx.counters().Increment("join.results", results_);
  }

 private:
  bool AcceptRef(const Envelope& cell, const Point& ref) const {
    const bool right_edge = cell.max_x() >= grid_space_max_x_;
    const bool top_edge = cell.max_y() >= grid_space_max_y_;
    return cell.ContainsHalfOpen(ref, right_edge, top_edge);
  }

 public:
  void SetSpaceMax(double max_x, double max_y) {
    grid_space_max_x_ = max_x;
    grid_space_max_y_ = max_y;
  }

 private:
  index::ShapeType shape_a_;
  index::ShapeType shape_b_;
  std::shared_ptr<const index::Partitioner> grid_;
  LocalJoinAlgorithm algorithm_;
  double grid_space_max_x_ = std::numeric_limits<double>::infinity();
  double grid_space_max_y_ = std::numeric_limits<double>::infinity();
  int64_t results_ = 0;
};

// ---------------------------------------------------------------------
// Distributed join (DJ)

/// Map-only join of one partition pair. Block 0 of the split holds the A
/// partition, block 1 the B partition.
class DjMapper : public PairPartitionMapper {
 public:
  DjMapper(index::ShapeType shape_a, index::ShapeType shape_b, bool dedup_a,
           bool dedup_b, LocalJoinAlgorithm algorithm, bool build_right)
      : PairPartitionMapper(shape_a, shape_b),
        dedup_a_(dedup_a),
        dedup_b_(dedup_b),
        algorithm_(algorithm),
        build_right_(build_right) {}

 protected:
  void Process(const SplitExtent& extent_a, const SplitExtent& extent_b,
               SpatialRecordReader& reader_a, SpatialRecordReader& reader_b,
               MapContext& ctx) override {
    auto accept = [this, &extent_a, &extent_b](const Point& ref) {
      if (dedup_a_) {
        const bool right = extent_a.cell.max_x() >= extent_a.file_mbr.max_x();
        const bool top = extent_a.cell.max_y() >= extent_a.file_mbr.max_y();
        if (!extent_a.cell.ContainsHalfOpen(ref, right, top)) return false;
      }
      if (dedup_b_) {
        const bool right = extent_b.cell.max_x() >= extent_b.file_mbr.max_x();
        const bool top = extent_b.cell.max_y() >= extent_b.file_mbr.max_y();
        if (!extent_b.cell.ContainsHalfOpen(ref, right, top)) return false;
      }
      return true;
    };
    int64_t results = 0;
    const auto write = [&ctx, &results](std::string line) {
      ctx.WriteOutput(std::move(line));
      ++results;
    };
    // The kernel builds on its first input; swapping the readers moves the
    // build side while flip_output keeps the A-first line format. The
    // reference point and the match predicate are symmetric, so the same
    // pairs come out either way.
    const uint64_t cpu =
        build_right_
            ? LocalJoin(reader_b, reader_b.Envelopes(), reader_a,
                        reader_a.Envelopes(), algorithm_, accept, write,
                        /*flip_output=*/true)
            : LocalJoin(reader_a, reader_a.Envelopes(), reader_b,
                        reader_b.Envelopes(), algorithm_, accept, write);
    ctx.ChargeCpu(cpu);
    // Counted once per task; a task without results adds no counter.
    if (results > 0) ctx.counters().Increment("join.results", results);
  }

 private:
  bool dedup_a_;
  bool dedup_b_;
  LocalJoinAlgorithm algorithm_;
  bool build_right_;
};

}  // namespace

Result<std::pair<std::string, std::string>> SplitJoinOutput(
    const std::string& line) {
  const size_t sep = line.find(kJoinSeparator);
  if (sep == std::string::npos) {
    return Status::ParseError("join output line without separator");
  }
  return std::make_pair(line.substr(0, sep), line.substr(sep + 1));
}

Result<std::vector<std::string>> SjmrJoin(mapreduce::JobRunner* runner,
                                          const std::string& path_a,
                                          index::ShapeType shape_a,
                                          const std::string& path_b,
                                          index::ShapeType shape_b,
                                          OpStats* stats,
                                          const SjmrOptions& options) {
  hdfs::FileSystem* fs = runner->file_system();

  // Preprocessing scans: both file MBRs (counted in stats).
  SHADOOP_ASSIGN_OR_RETURN(Envelope mbr_a,
                           ComputeFileMbr(runner, path_a, shape_a, stats));
  SHADOOP_ASSIGN_OR_RETURN(Envelope mbr_b,
                           ComputeFileMbr(runner, path_b, shape_b, stats));
  Envelope space = mbr_a;
  space.ExpandToInclude(mbr_b);

  SHADOOP_ASSIGN_OR_RETURN(hdfs::FileMeta meta_a, fs->GetFileMeta(path_a));
  SHADOOP_ASSIGN_OR_RETURN(hdfs::FileMeta meta_b, fs->GetFileMeta(path_b));
  const int target_cells = std::max<int>(
      1, static_cast<int>((meta_a.total_bytes + meta_b.total_bytes) /
                          fs->config().block_size));

  std::shared_ptr<index::Partitioner> grid;
  if (options.histogram_balanced) {
    // One more scan pair builds a combined density histogram; STR-style
    // quantile cells then even out the per-reducer load under skew.
    const int res = std::max(2, options.histogram_resolution);
    SHADOOP_ASSIGN_OR_RETURN(
        GridHistogram hist_a,
        ComputeGridHistogram(runner, path_a, shape_a, space, res, res,
                             stats));
    SHADOOP_ASSIGN_OR_RETURN(
        GridHistogram hist_b,
        ComputeGridHistogram(runner, path_b, shape_b, space, res, res,
                             stats));
    for (int row = 0; row < res; ++row) {
      for (int col = 0; col < res; ++col) {
        hist_a.Add(col, row, hist_b.At(col, row));
      }
    }
    const std::vector<Point> sample = hist_a.ToWeightedSample(20000);
    grid = std::make_shared<index::StrPartitioner>(/*replicate=*/true);
    SHADOOP_RETURN_NOT_OK(grid->Construct(space, sample, target_cells));
  } else {
    grid = std::make_shared<index::GridPartitioner>();
    SHADOOP_RETURN_NOT_OK(grid->Construct(space, {}, target_cells));
  }

  std::shared_ptr<const index::Partitioner> grid_const = grid;
  const double space_max_x = space.max_x();
  const double space_max_y = space.max_y();
  const LocalJoinAlgorithm algorithm = options.local_algorithm;
  SHADOOP_ASSIGN_OR_RETURN(
      JobResult result,
      SpatialJobBuilder(runner)
          .Name("sjmr")
          .ScanFile(path_a, "A")
          .ScanFile(path_b, "B")
          .Map([shape_a, shape_b, grid_const]() {
            return std::make_unique<SjmrMapper>(shape_a, shape_b, grid_const);
          })
          .Reduce(
              [shape_a, shape_b, grid_const, space_max_x, space_max_y,
               algorithm]() {
                auto reducer = std::make_unique<SjmrReducer>(
                    shape_a, shape_b, grid_const, algorithm);
                reducer->SetSpaceMax(space_max_x, space_max_y);
                return reducer;
              },
              runner->cluster().num_slots)
          .Run(stats));
  return std::move(result.output);
}

Result<std::vector<std::string>> DistributedJoin(
    mapreduce::JobRunner* runner, const index::SpatialFileInfo& file_a,
    const index::SpatialFileInfo& file_b, OpStats* stats,
    const DjOptions& options) {
  // Global join: overlapping partition pairs from the two master files.
  const std::vector<std::pair<int, int>> pairs =
      index::OverlappingPartitionPairs(file_a.global_index,
                                       file_b.global_index);

  const index::ShapeType shape_a = file_a.shape;
  const index::ShapeType shape_b = file_b.shape;
  const bool dedup_a = file_a.global_index.IsDisjoint();
  const bool dedup_b = file_b.global_index.IsDisjoint();
  const LocalJoinAlgorithm algorithm = options.local_algorithm;
  const bool build_right = options.build_right;
  SHADOOP_ASSIGN_OR_RETURN(
      JobResult result,
      SpatialJobBuilder(runner)
          .Name("distributed-join")
          .ScanPartitionPairs(file_a, file_b, pairs)
          .Map([shape_a, shape_b, dedup_a, dedup_b, algorithm,
                build_right]() {
            return std::make_unique<DjMapper>(shape_a, shape_b, dedup_a,
                                              dedup_b, algorithm, build_right);
          })
          .Run(stats));
  return std::move(result.output);
}

}  // namespace shadoop::core
