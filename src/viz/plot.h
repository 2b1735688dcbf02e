#ifndef SHADOOP_VIZ_PLOT_H_
#define SHADOOP_VIZ_PLOT_H_

#include <map>
#include <string>

#include "common/result.h"
#include "core/op_stats.h"
#include "index/index_builder.h"
#include "mapreduce/job_runner.h"
#include "viz/canvas.h"

namespace shadoop::viz {

struct PlotOptions {
  int width = 512;
  int height = 512;
};

/// Single-level plot: rasterizes a whole file into one canvas, one pixel
/// per record center, with a MapReduce job (map: rasterize one split into
/// a partial canvas; shuffle: sparse pixels keyed by row band; reduce:
/// pixel-wise merge).
///
/// The Hadoop flavour computes the file MBR with an extra scan job. The
/// SpatialHadoop flavour gets the MBR from the global index for free, and
/// its spatially clustered partitions touch few pixel rows each, so the
/// row-band shuffle is better aggregated — less data shuffled for the
/// same image.
Result<Canvas> PlotHadoop(mapreduce::JobRunner* runner,
                          const std::string& path, index::ShapeType shape,
                          const PlotOptions& options,
                          core::OpStats* stats = nullptr);

Result<Canvas> PlotSpatial(mapreduce::JobRunner* runner,
                           const index::SpatialFileInfo& file,
                           const PlotOptions& options,
                           core::OpStats* stats = nullptr);

/// Tile address in a multilevel pyramid: level 0 is one tile covering the
/// world; level L is a 2^L x 2^L tile grid.
struct TileId {
  int level = 0;
  int x = 0;
  int y = 0;

  friend bool operator<(const TileId& a, const TileId& b) {
    return std::tie(a.level, a.x, a.y) < std::tie(b.level, b.x, b.y);
  }
  friend bool operator==(const TileId& a, const TileId& b) {
    return a.level == b.level && a.x == b.x && a.y == b.y;
  }
};

struct PyramidOptions {
  int tile_size = 256;
  int num_levels = 3;  // Levels 0 .. num_levels-1.
};

/// Multilevel plot: one MapReduce job produces every tile of every zoom
/// level (the web-map pyramid). Only non-empty tiles are materialized.
/// When `output_prefix` is non-empty, each tile is also stored in HDFS as
/// "<prefix>/tile-<level>-<x>-<y>" in the text canvas format (see
/// StoreCanvas); convert to PGM/PPM locally with Canvas::ToPgm().
Result<std::map<TileId, Canvas>> PlotPyramid(
    mapreduce::JobRunner* runner, const index::SpatialFileInfo& file,
    const PyramidOptions& options, const std::string& output_prefix = "",
    core::OpStats* stats = nullptr);

/// World envelope of one pyramid tile.
Envelope TileWorld(const Envelope& world, const TileId& tile);

/// Persists a canvas as an HDFS text file: a "#canvas W H <world-csv>"
/// header followed by sparse pixel records. (HDFS files here are
/// line-oriented, so binary image formats are rendered locally instead.)
Status StoreCanvas(hdfs::FileSystem* fs, const std::string& path,
                   const Canvas& canvas);
Result<Canvas> LoadCanvas(const hdfs::FileSystem& fs, const std::string& path);

}  // namespace shadoop::viz

#endif  // SHADOOP_VIZ_PLOT_H_
