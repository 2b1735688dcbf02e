#include "index/index_builder.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <type_traits>
#include <utility>

#include "common/random.h"
#include "common/string_util.h"
#include "geometry/wkt.h"
#include "index/partitioner.h"
#include "mapreduce/thread_pool.h"

namespace shadoop::index {
namespace {

using mapreduce::InputSplit;
using mapreduce::JobConfig;
using mapreduce::JobResult;
using mapreduce::MapContext;
using mapreduce::Mapper;

/// Hard cap on the boundary sample kept on the master.
constexpr size_t kMaxSample = 100000;

uint64_t SplitSeed(const InputSplit& split) {
  uint64_t seed = 0xa1b2c3d4e5f60718ULL;
  for (const mapreduce::BlockRef& block : split.blocks) {
    for (char c : block.path) seed = seed * 131 + static_cast<uint64_t>(c);
    seed = seed * 1000003 + block.block_index;
  }
  return seed;
}

/// What the parser returns for one source block's data records, in
/// order: a point's coordinates or another shape's envelope. Metadata and
/// malformed records carry none; their positions are listed instead.
struct BlockEnvelopes {
  std::vector<Point> points;        // Point sources.
  std::vector<Envelope> envelopes;  // Every other shape.
  std::vector<uint32_t> skipped;    // Ascending record positions.
  int64_t malformed = 0;
};

/// A parsed point's or envelope's bytes, as a routed record carries them
/// through the shuffle.
template <typename T>
std::string_view AsBytes(const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  return {reinterpret_cast<const char*>(&value), sizeof(T)};
}

std::shared_ptr<const BlockEnvelopes> ParseBlock(
    ShapeType shape, const hdfs::BlockRecords& block) {
  auto parsed = std::make_shared<BlockEnvelopes>();
  parsed->points.reserve(shape == ShapeType::kPoint ? block.size() : 0);
  parsed->envelopes.reserve(shape == ShapeType::kPoint ? 0 : block.size());
  for (size_t i = 0; i < block.size(); ++i) {
    const std::string_view record = block[i];
    const bool metadata = IsMetadataRecord(record);
    bool valid = false;
    if (!metadata && shape == ShapeType::kPoint) {
      auto point = RecordPoint(record);
      if ((valid = point.ok())) parsed->points.push_back(point.value());
    } else if (!metadata) {
      auto env = RecordEnvelope(shape, record);
      if ((valid = env.ok())) parsed->envelopes.push_back(env.value());
    }
    if (!valid) parsed->skipped.push_back(static_cast<uint32_t>(i));
    if (!valid && !metadata) ++parsed->malformed;
  }
  return parsed;
}

/// Base of the two source mappers: each takes whole blocks and reads a
/// block's envelopes through the runner's artifact cache as
/// `ienv:<shape>:<block id>`, so the analysis job parses each record and
/// a later job over the same source parses none. With the cache off (any
/// fault injector installed) the task builds the entry and drops it.
class SourceMapper : public Mapper {
 public:
  SourceMapper(ShapeType shape, const char* bad_counter)
      : shape_(shape), bad_counter_(bad_counter) {}

  void BeginBlock(size_t ordinal, MapContext&) override { ordinal_ = ordinal; }
  // Final, and never called: the runner hands whole blocks to MapBlock.
  void Map(std::string_view, MapContext&) final {}
  void MapBlock(const hdfs::BlockRecords& block, MapContext& ctx) final {
    auto build = [this, &block] { return ParseBlock(shape_, block); };
    mapreduce::ArtifactCache* cache = ctx.artifact_cache();
    const uint64_t block_id = ctx.block_cache_id(ordinal_);
    const std::shared_ptr<const BlockEnvelopes> parsed =
        cache == nullptr || block_id == 0
            ? build()
            : std::static_pointer_cast<const BlockEnvelopes>(cache->GetOrBuild(
                  "ienv:" + std::to_string(static_cast<int>(shape_)) + ':' +
                      std::to_string(block_id),
                  build));
    if (parsed->malformed > 0) {
      ctx.counters().Increment(bad_counter_, parsed->malformed);
    }
    size_t skip = 0;
    size_t k = 0;
    for (size_t i = 0; i < block.size(); ++i) {
      if (skip < parsed->skipped.size() && parsed->skipped[skip] == i) {
        ++skip;
        continue;
      }
      // A point source stores no envelopes, any other no points.
      if (parsed->envelopes.empty()) {
        const Point& point = parsed->points[k];
        MapRecord(block[i], Envelope::FromPoint(point), AsBytes(point), ctx);
      } else {
        const Envelope& env = parsed->envelopes[k];
        MapRecord(block[i], env, AsBytes(env), ctx);
      }
      ++k;
    }
  }

 protected:
  /// One data record of the block and its envelope, in block order;
  /// `parsed` holds the bytes of what the parser returned for it.
  virtual void MapRecord(std::string_view record, const Envelope& env,
                         std::string_view parsed, MapContext& ctx) = 0;

 private:
  ShapeType shape_;
  const char* bad_counter_;
  size_t ordinal_ = 0;
};

/// Analysis phase: computes the per-split MBR and emits a record sample.
/// Output lines: "MBR <csv>" and "S <x,y>".
class AnalysisMapper : public SourceMapper {
 public:
  AnalysisMapper(ShapeType shape, double sample_ratio)
      : SourceMapper(shape, "analysis.bad_records"),
        sample_ratio_(sample_ratio) {}

  void BeginSplit(MapContext& ctx) override {
    rng_ = std::make_unique<Random>(SplitSeed(ctx.split()));
  }

  void EndSplit(MapContext& ctx) override {
    if (!mbr_.IsEmpty()) {
      ctx.WriteOutput("MBR " + EnvelopeToCsv(mbr_));
    }
  }

 protected:
  void MapRecord(std::string_view, const Envelope& env, std::string_view,
                 MapContext& ctx) override {
    mbr_.ExpandToInclude(env);
    if (rng_->NextBool(sample_ratio_)) {
      ctx.WriteOutput("S " + PointToCsv(env.Center()));
    }
  }

 private:
  double sample_ratio_;
  Envelope mbr_;
  std::unique_ptr<Random> rng_;
};

/// Partitioning phase: routes every record to its cell(s), with what the
/// parser returned for it attached, so the encode parses nothing.
class PartitionMapper : public SourceMapper {
 public:
  PartitionMapper(ShapeType shape, std::shared_ptr<const Partitioner> part)
      : SourceMapper(shape, "partition.bad_records"),
        partitioner_(std::move(part)) {}

 protected:
  void MapRecord(std::string_view record, const Envelope& env,
                 std::string_view parsed, MapContext& ctx) override {
    partitioner_->AssignEnvelope(env, &cells_);
    for (int cell : cells_) {
      // "%010d": zero-padded keys keep within-reducer groups in numeric
      // order. Cell ids are non-negative ints, so ten digits always fit.
      char key[10];
      for (int i = 9, rest = cell; i >= 0; --i, rest /= 10) {
        key[i] = static_cast<char>('0' + rest % 10);
      }
      ctx.Emit(std::string_view(key, sizeof(key)), record, parsed);
    }
    if (cells_.size() > 1) {
      ctx.counters().Increment("partition.replicated_records",
                               static_cast<int64_t>(cells_.size()) - 1);
    }
  }

 private:
  std::shared_ptr<const Partitioner> partitioner_;
  std::vector<int> cells_;  // Reused by every record.
};

/// Identity reducer tagging each record with its cell id: one pair row
/// (cell id, record) per record, its parse still attached.
class PartitionReducer : public mapreduce::Reducer {
 public:
  void Reduce(std::string_view, std::span<const std::string_view>,
              mapreduce::ReduceContext& ctx) override {
    ctx.WriteGroup();
  }
};

using CellBlocks = std::vector<std::pair<int, EncodedPartition>>;

/// Encodes one reduce task's pair rows: one block per run of equal cell
/// ids (a cell's rows are consecutive), from the records and the parses
/// attached to them. Returns (cell id, block) in row order.
Result<CellBlocks> EncodeCells(const mapreduce::PairRows& rows,
                               ShapeType shape, int num_cells,
                               bool local_index) {
  CellBlocks blocks;
  std::vector<std::string_view> records;
  std::vector<Envelope> envelopes;
  const bool points = shape == ShapeType::kPoint;
  const size_t parsed_size = points ? sizeof(Point) : sizeof(Envelope);
  for (size_t i = 0, j = 0; i < rows.size(); i = j) {
    const std::string_view key = rows.key(i);
    SHADOOP_ASSIGN_OR_RETURN(const int64_t cell, ParseInt64(key));
    if (cell < 0 || cell >= num_cells) {
      return Status::Internal("partition job routed a record to cell " +
                              std::to_string(cell) + " of " +
                              std::to_string(num_cells));
    }
    records.clear();
    envelopes.clear();
    for (j = i; j < rows.size() && rows.key(j) == key; ++j) {
      const std::string_view parsed = rows.attachment(j);
      if (parsed.size() != parsed_size) {
        return Status::Internal("a routed record carries a " +
                                std::to_string(parsed.size()) + "-byte parse");
      }
      // The bytes may be unaligned: copied out, never cast.
      Envelope& env = envelopes.emplace_back();
      if (points) {
        Point point;
        std::memcpy(&point, parsed.data(), sizeof(point));
        env = Envelope::FromPoint(point);
      } else {
        std::memcpy(&env, parsed.data(), sizeof(env));
      }
      records.push_back(rows.value(j));
    }
    blocks.emplace_back(static_cast<int>(cell),
                        EncodePartitionBlock(envelopes, records, local_index));
  }
  return blocks;
}

}  // namespace

std::string MasterPathFor(const std::string& data_path) {
  return data_path + "_master";
}

Result<SpatialFileInfo> IndexBuilder::Build(const std::string& source_path,
                                            const std::string& dest_path,
                                            const IndexBuildOptions& options) {
  hdfs::FileSystem* fs = runner_->file_system();
  SHADOOP_ASSIGN_OR_RETURN(hdfs::FileMeta source_meta,
                           fs->GetFileMeta(source_path));
  if (fs->Exists(dest_path)) {
    return Status::AlreadyExists("destination exists: " + dest_path);
  }

  SpatialFileInfo info;
  info.data_path = dest_path;
  info.master_path = MasterPathFor(dest_path);
  info.shape = options.shape;

  // ---------------------------------------------------------------------
  // Phase 1: analysis job (file MBR + sample).
  JobConfig analysis;
  analysis.name = "index-analysis";
  SHADOOP_ASSIGN_OR_RETURN(analysis.splits,
                           mapreduce::MakeBlockSplits(*fs, source_path));
  const ShapeType shape = options.shape;
  const double ratio = options.sample_ratio;
  analysis.mapper = [shape, ratio]() {
    return std::make_unique<AnalysisMapper>(shape, ratio);
  };
  JobResult analysis_result = runner_->Run(analysis);
  SHADOOP_RETURN_NOT_OK(analysis_result.status);
  info.build_cost += analysis_result.cost;
  info.build_counters.MergeFrom(analysis_result.counters);

  Envelope space;
  std::vector<Point> sample;
  for (const std::string& line : analysis_result.output) {
    if (line.rfind("MBR ", 0) == 0) {
      SHADOOP_ASSIGN_OR_RETURN(Envelope e,
                               ParseEnvelopeCsv(line.substr(4)));
      space.ExpandToInclude(e);
    } else if (line.rfind("S ", 0) == 0) {
      SHADOOP_ASSIGN_OR_RETURN(Point p, ParsePointCsv(line.substr(2)));
      sample.push_back(p);
    }
  }
  if (space.IsEmpty()) {
    return Status::InvalidArgument("input file '" + source_path +
                                   "' has no valid records to index");
  }
  if (sample.size() > kMaxSample) {
    // Deterministic thinning: keep a stride subset.
    std::vector<Point> thinned;
    thinned.reserve(kMaxSample);
    const double stride = static_cast<double>(sample.size()) / kMaxSample;
    for (size_t i = 0; i < kMaxSample; ++i) {
      thinned.push_back(sample[static_cast<size_t>(i * stride)]);
    }
    sample = std::move(thinned);
  }

  // ---------------------------------------------------------------------
  // Phase 2: boundary computation on the master.
  int target = options.target_partitions;
  if (target <= 0) {
    target = static_cast<int>(
        (source_meta.total_bytes + fs->config().block_size - 1) /
        fs->config().block_size);
    target = std::max(target, 1);
  }
  SHADOOP_ASSIGN_OR_RETURN(std::unique_ptr<Partitioner> partitioner_owned,
                           MakePartitioner(options.scheme));
  SHADOOP_RETURN_NOT_OK(partitioner_owned->Construct(space, sample, target));
  std::shared_ptr<const Partitioner> partitioner(std::move(partitioner_owned));

  // ---------------------------------------------------------------------
  // Phase 3: partitioning job.
  JobConfig partition_job;
  partition_job.name = "index-partition";
  SHADOOP_ASSIGN_OR_RETURN(partition_job.splits,
                           mapreduce::MakeBlockSplits(*fs, source_path));
  partition_job.mapper = [shape, partitioner]() {
    return std::make_unique<PartitionMapper>(shape, partitioner);
  };
  partition_job.reducer = []() { return std::make_unique<PartitionReducer>(); };
  partition_job.num_reducers =
      std::min(partitioner->NumCells(), runner_->cluster().num_slots);
  JobResult partition_result = runner_->Run(partition_job);
  SHADOOP_RETURN_NOT_OK(partition_result.status);
  info.build_cost += partition_result.cost;
  info.build_counters.MergeFrom(partition_result.counters);

  // Each reduce task's cells are encoded on the pool from the envelopes
  // their records carry, then placed by cell id...
  const int num_cells = partitioner->NumCells();
  const std::vector<mapreduce::PairRows>& tasks = partition_result.pair_rows;
  std::vector<Result<CellBlocks>> encoded(tasks.size(), CellBlocks());
  mapreduce::ParallelFor(
      tasks.size(), runner_->cluster().num_slots, [&](size_t t) {
        encoded[t] = EncodeCells(tasks[t], shape, num_cells,
                                 options.build_local_indexes);
      });
  std::vector<EncodedPartition*> by_cell(num_cells, nullptr);
  for (Result<CellBlocks>& blocks : encoded) {
    if (!blocks.ok()) return blocks.status();
    for (auto& [cell, block] : *blocks) {
      if (by_cell[cell] != nullptr) {
        return Status::Internal("partition job routed cell " +
                                std::to_string(cell) + " to two reducers");
      }
      by_cell[cell] = &block;
    }
  }

  // ...and laid out serially, one cell per HDFS block, in cell order.
  // Empty cells are dropped (standard practice: the global index only
  // records materialized partitions).
  SHADOOP_ASSIGN_OR_RETURN(std::unique_ptr<hdfs::FileWriter> writer,
                           fs->Create(dest_path));
  std::vector<Partition> partitions;
  for (int cell = 0; cell < num_cells; ++cell) {
    if (by_cell[cell] == nullptr) continue;
    Partition& part = partitions.emplace_back();
    part.id = static_cast<int>(partitions.size() - 1);
    part.block_index = partitions.size() - 1;
    part.cell = partitioner->CellExtent(cell);
    AppendPartitionBlock(writer.get(), std::move(*by_cell[cell]), &part);
  }
  SHADOOP_RETURN_NOT_OK(writer->Close());

  info.global_index = GlobalIndex(options.scheme, std::move(partitions));
  info.has_local_indexes = options.build_local_indexes;

  SHADOOP_RETURN_NOT_OK(WriteMasterFile(fs, info));
  return info;
}

EncodedPartition EncodePartitionBlock(
    const std::vector<Envelope>& envelopes,
    const std::vector<std::string_view>& records, bool local_index) {
  EncodedPartition encoded;
  for (const Envelope& env : envelopes) encoded.mbr.ExpandToInclude(env);
  size_t record_bytes = 0;
  for (std::string_view record : records) record_bytes += record.size() + 1;
  if (local_index) {
    encoded.payload = EncodeLocalIndexHeader(envelopes);
    encoded.payload.push_back('\n');
  }
  encoded.payload.reserve(encoded.payload.size() + record_bytes);
  for (std::string_view record : records) {
    encoded.payload.append(record);
    encoded.payload.push_back('\n');
  }
  encoded.num_records = records.size();
  encoded.has_header = local_index;
  return encoded;
}

void AppendPartitionBlock(hdfs::FileWriter* writer, EncodedPartition encoded,
                          Partition* part) {
  part->num_records = encoded.num_records;
  part->num_bytes = encoded.payload.size();
  part->mbr = encoded.mbr;
  writer->AppendBlock(std::move(encoded.payload),
                      encoded.num_records + (encoded.has_header ? 1 : 0));
}

Status WriteMasterFile(hdfs::FileSystem* fs, const SpatialFileInfo& info) {
  std::vector<std::string> lines;
  lines.push_back(std::string("#scheme=") +
                  PartitionSchemeName(info.global_index.scheme()) +
                  " shape=" + ShapeTypeName(info.shape) +
                  (info.has_local_indexes ? " lidx=1" : ""));
  for (std::string& line : info.global_index.ToLines()) {
    lines.push_back(std::move(line));
  }
  return fs->WriteLines(info.master_path, lines);
}

Result<SpatialFileInfo> LoadSpatialFile(const hdfs::FileSystem& fs,
                                        const std::string& data_path) {
  return LoadSpatialFileFromMaster(fs, data_path, MasterPathFor(data_path));
}

Result<SpatialFileInfo> LoadSpatialFileFromMaster(
    const hdfs::FileSystem& fs, const std::string& data_path,
    const std::string& master_path) {
  SHADOOP_ASSIGN_OR_RETURN(std::vector<std::string> lines,
                           fs.ReadLines(master_path));
  if (lines.empty() || lines.front().rfind("#scheme=", 0) != 0) {
    return Status::ParseError("master file missing header: " + master_path);
  }
  // Header format: "#scheme=<name> shape=<name> [lidx=1]".
  const std::string& header = lines.front();
  std::string scheme_name;
  std::string shape_name;
  bool has_lidx = false;
  for (std::string_view field :
       SplitWhitespace(std::string_view(header).substr(1))) {
    const size_t eq = field.find('=');
    if (eq == std::string_view::npos) continue;
    const std::string_view key = field.substr(0, eq);
    const std::string_view value = field.substr(eq + 1);
    if (key == "scheme") {
      scheme_name = std::string(value);
    } else if (key == "shape") {
      shape_name = std::string(value);
    } else if (key == "lidx") {
      has_lidx = value == "1";
    }
  }
  if (scheme_name.empty() || shape_name.empty()) {
    return Status::ParseError("bad master header: " + header);
  }
  SHADOOP_ASSIGN_OR_RETURN(PartitionScheme scheme,
                           ParsePartitionScheme(scheme_name));
  SHADOOP_ASSIGN_OR_RETURN(ShapeType shape, ParseShapeType(shape_name));

  // Every partition must name its own existing block. A master that
  // disagrees with its blocks would otherwise load, and then answer
  // queries without some blocks or fail a task attempt long after.
  auto master_error = [&master_path](const std::string& where,
                                     const std::string& what) {
    return Status::ParseError("master file " + master_path + " " + where +
                              ": " + what);
  };
  // Per file a line names: the byte size of each of its blocks.
  std::map<std::string, std::vector<size_t>> block_bytes;
  auto blocks_of = [&](const std::string& file)
      -> Result<const std::vector<size_t>*> {
    auto it = block_bytes.find(file);
    if (it == block_bytes.end()) {
      SHADOOP_ASSIGN_OR_RETURN(hdfs::FileMeta meta, fs.GetFileMeta(file));
      std::vector<size_t> bytes;
      bytes.reserve(meta.blocks.size());
      for (const hdfs::BlockMeta& block : meta.blocks) {
        bytes.push_back(block.num_bytes);
      }
      it = block_bytes.emplace(file, std::move(bytes)).first;
    }
    return &it->second;
  };
  std::set<std::pair<std::string, size_t>> named_blocks;
  bool any_source_path = false;
  std::vector<Partition> partitions;
  partitions.reserve(lines.size() - 1);
  for (size_t i = 1; i < lines.size(); ++i) {
    const std::string where = "line " + std::to_string(i + 1);
    Result<Partition> parsed = GlobalIndex::ParseLine(lines[i]);
    if (!parsed.ok()) return master_error(where, parsed.status().message());
    const Partition& part = partitions.emplace_back(std::move(parsed).value());
    any_source_path = any_source_path || !part.source_path.empty();
    const std::string& file = PartitionSourcePath(part, data_path);
    Result<const std::vector<size_t>*> blocks = blocks_of(file);
    if (!blocks.ok()) return master_error(where, blocks.status().message());
    const std::vector<size_t>& bytes = *blocks.value();
    const std::string block =
        "block " + std::to_string(part.block_index) + " of " + file;
    if (part.block_index >= bytes.size()) {
      return master_error(where, block + " does not exist (" +
                                     std::to_string(bytes.size()) +
                                     " blocks)");
    }
    if (!named_blocks.emplace(file, part.block_index).second) {
      return master_error(where, block + " is named by an earlier line");
    }
    // The splitter and the cost model read num_bytes: a line that
    // disagrees with its block (a truncated or swapped block) would
    // misprice every job over it.
    if (part.num_bytes != bytes[part.block_index]) {
      return master_error(
          where, block + " holds " + std::to_string(bytes[part.block_index]) +
                     " bytes, but the line says " +
                     std::to_string(part.num_bytes));
    }
    // The splitter, kNN and the cost model index partitions() by the ids
    // the partition filters return.
    const size_t position = partitions.size() - 1;
    if (part.id != static_cast<int>(position)) {
      return master_error(where, "partition id " + std::to_string(part.id) +
                                     " at position " +
                                     std::to_string(position));
    }
  }
  // A bulk build writes one block per partition.
  if (!any_source_path) {
    const std::string where = lines.size() > 1
                                  ? "lines 2-" + std::to_string(lines.size())
                                  : "line 1";
    Result<const std::vector<size_t>*> blocks = blocks_of(data_path);
    if (!blocks.ok()) return master_error(where, blocks.status().message());
    if (partitions.size() != blocks.value()->size()) {
      return master_error(
          where, std::to_string(partitions.size()) + " partitions for the " +
                     std::to_string(blocks.value()->size()) + " blocks of " +
                     data_path);
    }
  }

  SpatialFileInfo info;
  info.data_path = data_path;
  info.master_path = master_path;
  info.shape = shape;
  info.has_local_indexes = has_lidx;
  info.global_index = GlobalIndex(scheme, std::move(partitions));
  return info;
}

}  // namespace shadoop::index
