#ifndef SHADOOP_INDEX_INDEX_BUILDER_H_
#define SHADOOP_INDEX_INDEX_BUILDER_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "index/global_index.h"
#include "index/record_shape.h"
#include "mapreduce/job_runner.h"

namespace shadoop::index {

/// Options of a spatial index build.
struct IndexBuildOptions {
  PartitionScheme scheme = PartitionScheme::kStr;
  ShapeType shape = ShapeType::kPoint;

  /// Fraction of records sampled for boundary computation.
  double sample_ratio = 0.02;

  /// Hard cap on the sample size kept on the master.
  size_t max_sample = 100000;

  /// Number of cells to create; 0 derives it from the input size and the
  /// HDFS block size (one partition per block, the paper's layout).
  int target_partitions = 0;

  /// When true, every partition block starts with a persisted local-index
  /// header (the record envelopes in block order), so readers bulk-load
  /// the partition R-tree without parsing any geometry. Costs extra
  /// storage; pays off for geometry-heavy records (polygons).
  bool build_local_indexes = false;
};

/// Handle to a spatially indexed file: the data file (one partition per
/// block) plus its global index, persisted in the companion master file.
struct SpatialFileInfo {
  std::string data_path;
  std::string master_path;
  ShapeType shape = ShapeType::kPoint;
  bool has_local_indexes = false;
  GlobalIndex global_index;

  /// Aggregate simulated cost and merged counters of the build jobs.
  mapreduce::JobCost build_cost;
  mapreduce::Counters build_counters;
};

/// Builds spatially indexed files with the paper's three-phase MapReduce
/// pipeline:
///   1. an analysis job scans the input once, computing the file MBR and
///      drawing a deterministic record sample,
///   2. the master constructs partition boundaries from the sample
///      (Partitioner::Construct),
///   3. a partitioning job routes every record to its cell(s) and the
///      builder lays cells out as one HDFS block each, writing the global
///      index into the master file.
class IndexBuilder {
 public:
  explicit IndexBuilder(mapreduce::JobRunner* runner) : runner_(runner) {}

  /// Indexes `source_path` into `dest_path` (+ "<dest_path>_master").
  Result<SpatialFileInfo> Build(const std::string& source_path,
                                const std::string& dest_path,
                                const IndexBuildOptions& options);

 private:
  mapreduce::JobRunner* runner_;
};

// The on-disk layout of an indexed file: IndexBuilder::Build and catalog
// appends both write it through EncodePartitionBlock + AppendPartitionBlock
// and WriteMasterFile.

/// One partition block, ready to store.
struct EncodedPartition {
  Envelope mbr;
  /// The whole block: the "#lidx ..." header line when built with a
  /// local index, then the records, each line ending in '\n'.
  std::string payload;
  size_t num_records = 0;  // Data records, the header not counted.
  bool has_header = false;
};

/// The pure half of writing a partition: its MBR and its block payload,
/// with a `#lidx` header when `local_index`. `envelopes[i]` is
/// `records[i]`'s envelope, empty when it failed to parse. Touches no
/// shared state, so callers may encode many partitions in parallel.
EncodedPartition EncodePartitionBlock(
    const std::vector<Envelope>& envelopes,
    const std::vector<std::string_view>& records, bool local_index);

/// The serial half: stores `encoded.payload` as the next block of
/// `writer` (FileWriter::AppendBlock) and sets the partition's
/// num_records, num_bytes and mbr.
void AppendPartitionBlock(hdfs::FileWriter* writer, EncodedPartition encoded,
                          Partition* part);

/// Writes `info.master_path`: the header "#scheme=<name> shape=<name>
/// [lidx=1]" that LoadSpatialFileFromMaster parses, then one line per
/// partition of the global index.
Status WriteMasterFile(hdfs::FileSystem* fs, const SpatialFileInfo& info);

/// Opens an existing indexed file by reading its master file.
Result<SpatialFileInfo> LoadSpatialFile(const hdfs::FileSystem& fs,
                                        const std::string& data_path);

/// Same, but with the master file at an explicit path. Versioned datasets
/// keep one master per version next to a shared data path, so the
/// companion-path convention does not apply to them.
Result<SpatialFileInfo> LoadSpatialFileFromMaster(
    const hdfs::FileSystem& fs, const std::string& data_path,
    const std::string& master_path);

/// Master-file path convention.
std::string MasterPathFor(const std::string& data_path);

}  // namespace shadoop::index

#endif  // SHADOOP_INDEX_INDEX_BUILDER_H_
