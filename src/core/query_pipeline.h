#ifndef SHADOOP_CORE_QUERY_PIPELINE_H_
#define SHADOOP_CORE_QUERY_PIPELINE_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "core/op_stats.h"
#include "core/spatial_file_splitter.h"
#include "core/spatial_record_reader.h"
#include "index/index_builder.h"
#include "index/packed_rtree.h"
#include "mapreduce/job_runner.h"

namespace shadoop::core {

/// The unified query pipeline of the framework: every spatial operation —
/// built-in or user-defined — plans and executes its MapReduce jobs
/// through this one layer, so the paper's five-step skeleton (partition /
/// filter / local-process / prune / merge) has a single hot path:
///
///   - SpatialJobBuilder owns the *plan* steps: global-index filtering,
///     InputSplit construction with MBR metadata, default partitioner and
///     reducer wiring, and uniform OpStats/JobCost collection.
///   - SpatialRecordReader owns the *local-process* plumbing: records of
///     one partition are parsed once, and the local R-tree is built lazily
///     and memoized, with the cost model charged exactly once.
///   - PartitionMapper / PairPartitionMapper bridge the two: they decode
///     the split's partition extents and feed SpatialRecordReaders, so an
///     operation's mapper is just its local-processing step.

// ---------------------------------------------------------------------
// Partition mappers

/// Base mapper for single-partition splits of a spatially indexed file:
/// decodes the SplitExtent carried in the split meta, hands each block's
/// records to a SpatialRecordReader in one call, and hands both to
/// Process() once the split is fully read — the operation's local-process
/// step.
class PartitionMapper : public mapreduce::Mapper {
 public:
  explicit PartitionMapper(index::ShapeType shape, bool parse_extent = true)
      : reader_(shape), parse_extent_(parse_extent) {}

  void BeginSplit(mapreduce::MapContext& ctx) override;
  void BeginBlock(size_t ordinal, mapreduce::MapContext& ctx) override;
  // Final: the runner calls MapBlock, which feeds the reader directly,
  // so a per-record override here would never run.
  void Map(std::string_view record, mapreduce::MapContext& ctx) final;
  void MapBlock(const hdfs::BlockRecords& block,
                mapreduce::MapContext& ctx) final;
  void EndSplit(mapreduce::MapContext& ctx) override;

 protected:
  /// Runs once per split with every record buffered. `extent` is the
  /// decoded partition extent (default-constructed when the mapper was
  /// built with parse_extent = false, e.g. over plain block splits).
  virtual void Process(const SplitExtent& extent, SpatialRecordReader& reader,
                       mapreduce::MapContext& ctx) = 0;

 private:
  SpatialRecordReader reader_;
  SplitExtent extent_;
  bool parse_extent_;
  bool failed_ = false;
};

/// Base mapper for pair splits (block 0 = partition of file A, later
/// blocks = partition(s) of file B): hands each side's blocks to its own
/// SpatialRecordReader and calls Process() with both.
class PairPartitionMapper : public mapreduce::Mapper {
 public:
  PairPartitionMapper(index::ShapeType shape_a, index::ShapeType shape_b,
                      bool parse_extents = true)
      : reader_a_(shape_a),
        reader_b_(shape_b),
        parse_extents_(parse_extents) {}

  void BeginSplit(mapreduce::MapContext& ctx) override;
  void BeginBlock(size_t ordinal, mapreduce::MapContext& ctx) override;
  // Final: the runner calls MapBlock, which feeds the reader directly,
  // so a per-record override here would never run.
  void Map(std::string_view record, mapreduce::MapContext& ctx) final;
  void MapBlock(const hdfs::BlockRecords& block,
                mapreduce::MapContext& ctx) final;
  void EndSplit(mapreduce::MapContext& ctx) override;

 protected:
  virtual void Process(const SplitExtent& extent_a,
                       const SplitExtent& extent_b,
                       SpatialRecordReader& reader_a,
                       SpatialRecordReader& reader_b,
                       mapreduce::MapContext& ctx) = 0;

 private:
  SpatialRecordReader reader_a_;
  SpatialRecordReader reader_b_;
  SplitExtent extent_a_;
  SplitExtent extent_b_;
  bool parse_extents_;
  bool in_a_ = true;
  bool failed_ = false;
};

// ---------------------------------------------------------------------
// SpatialJobBuilder

/// Fluent builder for the one MapReduce job shape every spatial operation
/// uses. Input methods are additive (an operation may mix indexed scans,
/// pair scans and custom splits in one job); planning errors are deferred
/// and reported by Run(), so call sites chain without intermediate error
/// handling:
///
///   SHADOOP_ASSIGN_OR_RETURN(
///       mapreduce::JobResult result,
///       SpatialJobBuilder(runner)
///           .Name("range-query-spatial")
///           .ScanIndexed(file, RangeFilter(query))
///           .Map([...]() { return std::make_unique<MyMapper>(...); })
///           .Run(stats));
class SpatialJobBuilder {
 public:
  explicit SpatialJobBuilder(mapreduce::JobRunner* runner)
      : runner_(runner) {}

  SpatialJobBuilder& Name(std::string name);

  // ------------------------------------------------------------------
  // Plan: input selection (the paper's partition + filter steps).

  /// One split per HDFS block of `path` — the plain-Hadoop full scan.
  /// A non-empty `tag` is stored as each split's meta (SJMR uses "A"/"B"
  /// to tell its two inputs apart).
  SpatialJobBuilder& ScanFile(const std::string& path, std::string tag = "");

  /// One split per partition of the indexed file surviving `filter` (the
  /// global-index filter step; default keeps every partition). Split meta
  /// carries the encoded SplitExtent.
  SpatialJobBuilder& ScanIndexed(const index::SpatialFileInfo& file,
                                 const FilterFunction& filter = {});

  /// One split per partition *pair*, reading both partitions' blocks.
  SpatialJobBuilder& ScanPartitionPairs(
      const index::SpatialFileInfo& a, const index::SpatialFileInfo& b,
      const std::vector<std::pair<int, int>>& pairs);

  /// Appends operation-built splits (multi-block joins, custom metas).
  SpatialJobBuilder& AddSplit(mapreduce::InputSplit split);
  SpatialJobBuilder& AddSplits(std::vector<mapreduce::InputSplit> splits);

  // ------------------------------------------------------------------
  // Plan: phase wiring (local-process + merge steps).

  SpatialJobBuilder& Map(mapreduce::MapperFactory mapper);
  SpatialJobBuilder& Combine(mapreduce::ReducerFactory combiner);
  SpatialJobBuilder& Reduce(mapreduce::ReducerFactory reducer,
                            int num_reducers = 1);

  /// The shared two-round merge shape of the CG operations (skyline,
  /// convex hull): a parallel pre-merge round with one reducer per ~4
  /// surviving partitions (capped at the cluster's slots), constant-key
  /// groups spread round-robin; the caller runs the final merge on the
  /// small survivor set master-side.
  SpatialJobBuilder& ParallelMerge(mapreduce::ReducerFactory reducer);

  SpatialJobBuilder& Partition(mapreduce::Partitioner partitioner);

  // ------------------------------------------------------------------
  // Plan inspection.

  /// Splits planned so far (post-filter). Lets operations prune the whole
  /// job ("every partition filtered out") without running it.
  size_t NumSplits() const { return splits_.size(); }

  /// First deferred planning error, OK if none.
  const Status& plan_status() const { return status_; }

  // ------------------------------------------------------------------
  // Execute: runs the job, accumulates `stats` (counters, JobCost,
  /// jobs_run), and returns the failed status of planning or execution.
  Result<mapreduce::JobResult> Run(OpStats* stats);

 private:
  mapreduce::JobRunner* runner_;
  Status status_;
  std::string name_ = "spatial-job";
  std::vector<mapreduce::InputSplit> splits_;
  mapreduce::MapperFactory mapper_;
  mapreduce::ReducerFactory combiner_;
  mapreduce::ReducerFactory reducer_;
  mapreduce::Partitioner partitioner_;
  int num_reducers_ = 1;
  bool parallel_merge_ = false;
};

// ---------------------------------------------------------------------
// Two-round point merge

/// What the CG operations built on the two-round merge (skyline, convex
/// hull) differ in; RunPointMerge is everything else.
struct PointMerge {
  /// Reduces a point set to its survivors.
  std::vector<Point> (*algorithm)(std::vector<Point>);
  const char* key;             // Emit key of the map-side survivors.
  const char* counter_prefix;  // "<prefix>.bad_records" etc.
};

/// Runs `merge` over the builder's planned input: each map task runs the
/// algorithm on its split's points and emits the survivors; a
/// ParallelMerge round reruns it on shares of them; the master runs it
/// once more on what is left. Pass `indexed` when the builder scanned
/// that file through a partition filter, to count
/// "<prefix>.partitions_processed" and "<prefix>.partitions_pruned".
Result<std::vector<Point>> RunPointMerge(SpatialJobBuilder& builder,
                                         const PointMerge& merge,
                                         const char* job_name,
                                         const index::SpatialFileInfo* indexed,
                                         OpStats* stats);

}  // namespace shadoop::core

#endif  // SHADOOP_CORE_QUERY_PIPELINE_H_
