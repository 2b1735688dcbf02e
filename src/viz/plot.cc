#include "viz/plot.h"

#include <cstdio>
#include <memory>

#include "common/string_util.h"
#include "core/file_mbr.h"
#include "core/spatial_file_splitter.h"
#include "geometry/wkt.h"

namespace shadoop::viz {
namespace {

using mapreduce::JobConfig;
using mapreduce::JobResult;
using mapreduce::MapContext;

/// Map side of the single-level plot: rasterize the split into a private
/// canvas, emit non-zero pixels keyed by row (zero-padded, so each
/// reducer handles a band of rows).
class PlotMapper : public mapreduce::Mapper {
 public:
  PlotMapper(index::ShapeType shape, const PlotOptions& options,
             Envelope world)
      : shape_(shape), canvas_(options.width, options.height, world) {}

  /// One pixel per record center.
  void Map(std::string_view record, MapContext& ctx) override {
    if (index::IsMetadataRecord(record)) return;
    auto env = index::RecordEnvelope(shape_, record);
    if (env.ok()) {
      canvas_.AddPoint(env.value().Center());
    } else {
      ctx.counters().Increment("plot.bad_records");
    }
    ctx.ChargeCpu(100);  // Rasterization per record.
  }

  void EndSplit(MapContext& ctx) override {
    for (int y = 0; y < canvas_.height(); ++y) {
      for (int x = 0; x < canvas_.width(); ++x) {
        const double v = canvas_.At(x, y);
        if (v == 0.0) continue;
        char key[16];
        std::snprintf(key, sizeof(key), "%08d", y);
        ctx.Emit(key, std::to_string(x) + "," + FormatDouble(v));
      }
    }
  }

 private:
  index::ShapeType shape_;
  Canvas canvas_;
};

/// Reduce side: pixel-wise sum of one row.
class PlotReducer : public mapreduce::Reducer {
 public:
  void Reduce(std::string_view key, std::span<const std::string_view> values,
              mapreduce::ReduceContext& ctx) override {
    auto row = ParseInt64(key);
    if (!row.ok()) {
      ctx.Fail(row.status());
      return;
    }
    std::map<int64_t, double> pixels;
    for (std::string_view value : values) {
      auto fields = SplitString(value, ',');
      if (fields.size() != 2) continue;
      auto x = ParseInt64(fields[0]);
      auto v = ParseDouble(fields[1]);
      if (x.ok() && v.ok()) pixels[x.value()] += v.value();
    }
    ctx.ChargeCpu(pixels.size() * 20);
    for (const auto& [x, v] : pixels) {
      ctx.Write(std::to_string(x) + "," + std::string(key) + "," +
                FormatDouble(v));
    }
  }
};

Result<Canvas> RunPlotJob(mapreduce::JobRunner* runner,
                          std::vector<mapreduce::InputSplit> splits,
                          index::ShapeType shape, const PlotOptions& options,
                          const Envelope& world, core::OpStats* stats) {
  JobConfig job;
  job.name = "plot";
  job.splits = std::move(splits);
  job.mapper = [shape, options, world]() {
    return std::make_unique<PlotMapper>(shape, options, world);
  };
  job.reducer = []() { return std::make_unique<PlotReducer>(); };
  job.num_reducers = runner->cluster().num_slots;
  JobResult result = runner->Run(job);
  SHADOOP_RETURN_NOT_OK(result.status);
  if (stats != nullptr) stats->Accumulate(result);

  Canvas canvas(options.width, options.height, world);
  for (const std::string& line : result.output) {
    SHADOOP_RETURN_NOT_OK(canvas.AccumulateSparseRecord(line));
  }
  return canvas;
}

// ---------------------------------------------------------------------
// Pyramid

/// Map side of the multilevel plot: each record center contributes one
/// pixel per level, keyed by tile.
class PyramidMapper : public mapreduce::Mapper {
 public:
  PyramidMapper(index::ShapeType shape, PyramidOptions options,
                Envelope world)
      : shape_(shape), options_(options), world_(world) {}

  void Map(std::string_view record, MapContext& ctx) override {
    if (index::IsMetadataRecord(record)) return;
    auto env = index::RecordEnvelope(shape_, record);
    if (!env.ok()) {
      ctx.counters().Increment("plot.bad_records");
      return;
    }
    const Point p = env.value().Center();
    if (!world_.Contains(p) || world_.Width() <= 0 || world_.Height() <= 0) {
      return;
    }
    for (int level = 0; level < options_.num_levels; ++level) {
      const int tiles = 1 << level;
      const double fx = (p.x - world_.min_x()) / world_.Width();
      const double fy = (world_.max_y() - p.y) / world_.Height();
      const int global_px = std::min(
          tiles * options_.tile_size - 1,
          static_cast<int>(fx * tiles * options_.tile_size));
      const int global_py = std::min(
          tiles * options_.tile_size - 1,
          static_cast<int>(fy * tiles * options_.tile_size));
      const int tx = global_px / options_.tile_size;
      const int ty = global_py / options_.tile_size;
      char key[32];
      std::snprintf(key, sizeof(key), "%02d-%04d-%04d", level, tx, ty);
      ctx.Emit(key,
               std::to_string(global_px % options_.tile_size) + "," +
                   std::to_string(global_py % options_.tile_size) + ",1");
      ctx.ChargeCpu(50);
    }
  }

 private:
  index::ShapeType shape_;
  PyramidOptions options_;
  Envelope world_;
};

/// Combiner/reducer for pyramid tiles: sums pixel weights within a tile.
class PyramidReducer : public mapreduce::Reducer {
 public:
  explicit PyramidReducer(bool final_pass) : final_(final_pass) {}

  void Reduce(std::string_view key, std::span<const std::string_view> values,
              mapreduce::ReduceContext& ctx) override {
    std::map<std::pair<int64_t, int64_t>, double> pixels;
    for (std::string_view value : values) {
      auto fields = SplitString(value, ',');
      if (fields.size() != 3) continue;
      auto x = ParseInt64(fields[0]);
      auto y = ParseInt64(fields[1]);
      auto v = ParseDouble(fields[2]);
      if (x.ok() && y.ok() && v.ok()) {
        pixels[{x.value(), y.value()}] += v.value();
      }
    }
    ctx.ChargeCpu(pixels.size() * 20);
    for (const auto& [xy, v] : pixels) {
      const std::string pixel = std::to_string(xy.first) + "," +
                                std::to_string(xy.second) + "," +
                                FormatDouble(v);
      ctx.Write(final_ ? std::string(key) + "|" + pixel : pixel);
    }
  }

 private:
  bool final_;
};

}  // namespace

Envelope TileWorld(const Envelope& world, const TileId& tile) {
  const int tiles = 1 << tile.level;
  const double w = world.Width() / tiles;
  const double h = world.Height() / tiles;
  // Tile y counts from the top (screen convention).
  const double max_y = world.max_y() - tile.y * h;
  return Envelope(world.min_x() + tile.x * w, max_y - h,
                  world.min_x() + (tile.x + 1) * w, max_y);
}

Result<Canvas> PlotHadoop(mapreduce::JobRunner* runner,
                          const std::string& path, index::ShapeType shape,
                          const PlotOptions& options, core::OpStats* stats) {
  // Unindexed inputs need an MBR scan first (one extra job).
  SHADOOP_ASSIGN_OR_RETURN(Envelope world,
                           core::ComputeFileMbr(runner, path, shape, stats));
  SHADOOP_ASSIGN_OR_RETURN(
      std::vector<mapreduce::InputSplit> splits,
      mapreduce::MakeBlockSplits(*runner->file_system(), path));
  return RunPlotJob(runner, std::move(splits), shape, options, world, stats);
}

Result<Canvas> PlotSpatial(mapreduce::JobRunner* runner,
                           const index::SpatialFileInfo& file,
                           const PlotOptions& options, core::OpStats* stats) {
  const Envelope world = file.global_index.Bounds();
  SHADOOP_ASSIGN_OR_RETURN(std::vector<mapreduce::InputSplit> splits,
                           core::SpatialSplits(file, core::KeepAllFilter));
  return RunPlotJob(runner, std::move(splits), file.shape, options, world,
                    stats);
}

Result<std::map<TileId, Canvas>> PlotPyramid(mapreduce::JobRunner* runner,
                                             const index::SpatialFileInfo& file,
                                             const PyramidOptions& options,
                                             const std::string& output_prefix,
                                             core::OpStats* stats) {
  if (options.num_levels < 1 || options.num_levels > 8) {
    return Status::InvalidArgument("num_levels must be in [1, 8]");
  }
  const Envelope world = file.global_index.Bounds();

  JobConfig job;
  job.name = "plot-pyramid";
  SHADOOP_ASSIGN_OR_RETURN(job.splits,
                           core::SpatialSplits(file, core::KeepAllFilter));
  const index::ShapeType shape = file.shape;
  const PyramidOptions opts = options;
  job.mapper = [shape, opts, world]() {
    return std::make_unique<PyramidMapper>(shape, opts, world);
  };
  job.combiner = []() { return std::make_unique<PyramidReducer>(false); };
  job.reducer = []() { return std::make_unique<PyramidReducer>(true); };
  job.num_reducers = runner->cluster().num_slots;
  JobResult result = runner->Run(job);
  SHADOOP_RETURN_NOT_OK(result.status);
  if (stats != nullptr) stats->Accumulate(result);

  // Assemble tiles from "LL-XXXX-YYYY|px,py,v" lines.
  std::map<TileId, Canvas> tiles;
  for (const std::string& line : result.output) {
    const size_t bar = line.find('|');
    if (bar == std::string::npos || bar < 10) {
      return Status::Internal("bad pyramid output line: " + line);
    }
    TileId id;
    SHADOOP_ASSIGN_OR_RETURN(int64_t level, ParseInt64(line.substr(0, 2)));
    SHADOOP_ASSIGN_OR_RETURN(int64_t tx, ParseInt64(line.substr(3, 4)));
    SHADOOP_ASSIGN_OR_RETURN(int64_t ty, ParseInt64(line.substr(8, 4)));
    id.level = static_cast<int>(level);
    id.x = static_cast<int>(tx);
    id.y = static_cast<int>(ty);
    auto [it, inserted] = tiles.try_emplace(
        id, options.tile_size, options.tile_size, TileWorld(world, id));
    SHADOOP_RETURN_NOT_OK(
        it->second.AccumulateSparseRecord(line.substr(bar + 1)));
  }

  if (!output_prefix.empty()) {
    for (const auto& [id, canvas] : tiles) {
      const std::string path = output_prefix + "/tile-" +
                               std::to_string(id.level) + "-" +
                               std::to_string(id.x) + "-" +
                               std::to_string(id.y);
      SHADOOP_RETURN_NOT_OK(
          StoreCanvas(runner->file_system(), path, canvas));
    }
  }
  return tiles;
}

Status StoreCanvas(hdfs::FileSystem* fs, const std::string& path,
                   const Canvas& canvas) {
  std::vector<std::string> lines;
  lines.push_back("#canvas " + std::to_string(canvas.width()) + " " +
                  std::to_string(canvas.height()) + " " +
                  EnvelopeToCsv(canvas.world()));
  for (std::string& record : canvas.ToSparseRecords()) {
    lines.push_back(std::move(record));
  }
  return fs->WriteLines(path, lines);
}

Result<Canvas> LoadCanvas(const hdfs::FileSystem& fs,
                          const std::string& path) {
  SHADOOP_ASSIGN_OR_RETURN(std::vector<std::string> lines,
                           fs.ReadLines(path));
  if (lines.empty() || lines.front().rfind("#canvas ", 0) != 0) {
    return Status::ParseError("missing canvas header in " + path);
  }
  auto fields = SplitWhitespace(std::string_view(lines.front()).substr(8));
  if (fields.size() != 3) {
    return Status::ParseError("bad canvas header: " + lines.front());
  }
  SHADOOP_ASSIGN_OR_RETURN(int64_t width, ParseInt64(fields[0]));
  SHADOOP_ASSIGN_OR_RETURN(int64_t height, ParseInt64(fields[1]));
  SHADOOP_ASSIGN_OR_RETURN(Envelope world, ParseEnvelopeCsv(fields[2]));
  Canvas canvas(static_cast<int>(width), static_cast<int>(height), world);
  for (size_t i = 1; i < lines.size(); ++i) {
    SHADOOP_RETURN_NOT_OK(canvas.AccumulateSparseRecord(lines[i]));
  }
  return canvas;
}

}  // namespace shadoop::viz
