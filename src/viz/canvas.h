#ifndef SHADOOP_VIZ_CANVAS_H_
#define SHADOOP_VIZ_CANVAS_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "geometry/envelope.h"
#include "geometry/point.h"

namespace shadoop::viz {

/// A raster accumulation canvas: a width x height grid of double
/// intensities mapped onto a world-coordinate envelope. Map tasks
/// rasterize their partition into a private Canvas, ship it through the
/// shuffle in sparse text form, and reducers merge by pixel — the
/// HadoopViz single-level plotting pattern.
class Canvas {
 public:
  Canvas() = default;
  Canvas(int width, int height, const Envelope& world);

  int width() const { return width_; }
  int height() const { return height_; }
  const Envelope& world() const { return world_; }
  bool IsEmpty() const { return pixels_.empty(); }

  /// Intensity at pixel (x, y); (0, 0) is the top-left corner.
  double At(int x, int y) const { return pixels_[Index(x, y)]; }
  void Set(int x, int y, double value) { pixels_[Index(x, y)] = value; }

  /// Accumulates `weight` at the pixel covering world point `p`
  /// (no-op outside the world envelope).
  void AddPoint(const Point& p, double weight = 1.0);

  /// Largest intensity (0 for an empty canvas).
  double MaxIntensity() const;

  /// Number of pixels with non-zero intensity.
  size_t CountNonZero() const;

  /// Sparse text codec used on the shuffle: one "x,y,value" record per
  /// non-zero pixel.
  std::vector<std::string> ToSparseRecords() const;
  Status AccumulateSparseRecord(std::string_view record);

  /// Binary PGM (grayscale) with log intensity scaling — dense point data
  /// stays readable. The returned string is the full file payload.
  std::string ToPgm() const;

  /// Binary PPM with a heat palette (black -> red -> yellow -> white).
  std::string ToPpm() const;

 private:
  size_t Index(int x, int y) const {
    return static_cast<size_t>(y) * width_ + x;
  }
  /// World -> pixel transform; false when outside.
  bool ToPixel(const Point& p, int* x, int* y) const;

  int width_ = 0;
  int height_ = 0;
  Envelope world_;
  std::vector<double> pixels_;
};

}  // namespace shadoop::viz

#endif  // SHADOOP_VIZ_CANVAS_H_
