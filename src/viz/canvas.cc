#include "viz/canvas.h"

#include <algorithm>
#include <cmath>

#include "common/string_util.h"

namespace shadoop::viz {

Canvas::Canvas(int width, int height, const Envelope& world)
    : width_(std::max(1, width)),
      height_(std::max(1, height)),
      world_(world),
      pixels_(static_cast<size_t>(width_) * height_, 0.0) {}

bool Canvas::ToPixel(const Point& p, int* x, int* y) const {
  if (!world_.Contains(p) || world_.Width() <= 0 || world_.Height() <= 0) {
    return false;
  }
  const double fx = (p.x - world_.min_x()) / world_.Width();
  // Screen convention: y grows downward.
  const double fy = (world_.max_y() - p.y) / world_.Height();
  *x = std::min(width_ - 1, static_cast<int>(fx * width_));
  *y = std::min(height_ - 1, static_cast<int>(fy * height_));
  return true;
}

void Canvas::AddPoint(const Point& p, double weight) {
  int x = 0;
  int y = 0;
  if (ToPixel(p, &x, &y)) pixels_[Index(x, y)] += weight;
}

double Canvas::MaxIntensity() const {
  double max = 0;
  for (double v : pixels_) max = std::max(max, v);
  return max;
}

size_t Canvas::CountNonZero() const {
  size_t count = 0;
  for (double v : pixels_) count += v != 0.0;
  return count;
}

std::vector<std::string> Canvas::ToSparseRecords() const {
  std::vector<std::string> records;
  for (int y = 0; y < height_; ++y) {
    for (int x = 0; x < width_; ++x) {
      const double v = pixels_[Index(x, y)];
      if (v != 0.0) {
        records.push_back(std::to_string(x) + "," + std::to_string(y) + "," +
                          FormatDouble(v));
      }
    }
  }
  return records;
}

Status Canvas::AccumulateSparseRecord(std::string_view record) {
  auto fields = SplitString(record, ',');
  if (fields.size() != 3) {
    return Status::ParseError("bad pixel record: '" + std::string(record) +
                              "'");
  }
  SHADOOP_ASSIGN_OR_RETURN(int64_t x, ParseInt64(fields[0]));
  SHADOOP_ASSIGN_OR_RETURN(int64_t y, ParseInt64(fields[1]));
  SHADOOP_ASSIGN_OR_RETURN(double v, ParseDouble(fields[2]));
  if (x < 0 || x >= width_ || y < 0 || y >= height_) {
    return Status::InvalidArgument("pixel out of canvas: '" +
                                   std::string(record) + "'");
  }
  pixels_[Index(static_cast<int>(x), static_cast<int>(y))] += v;
  return Status::OK();
}

namespace {

/// Log-scaled intensity in [0, 1].
double Tone(double value, double max) {
  if (value <= 0 || max <= 0) return 0;
  return std::log1p(value) / std::log1p(max);
}

}  // namespace

std::string Canvas::ToPgm() const {
  const double max = MaxIntensity();
  std::string out = "P5\n" + std::to_string(width_) + " " +
                    std::to_string(height_) + "\n255\n";
  out.reserve(out.size() + pixels_.size());
  for (double v : pixels_) {
    out.push_back(static_cast<char>(
        static_cast<unsigned char>(Tone(v, max) * 255.0)));
  }
  return out;
}

std::string Canvas::ToPpm() const {
  const double max = MaxIntensity();
  std::string out = "P6\n" + std::to_string(width_) + " " +
                    std::to_string(height_) + "\n255\n";
  out.reserve(out.size() + pixels_.size() * 3);
  for (double v : pixels_) {
    const double t = Tone(v, max);
    // Heat ramp: black -> red -> yellow -> white.
    const double r = std::clamp(t * 3.0, 0.0, 1.0);
    const double g = std::clamp(t * 3.0 - 1.0, 0.0, 1.0);
    const double b = std::clamp(t * 3.0 - 2.0, 0.0, 1.0);
    out.push_back(static_cast<char>(static_cast<unsigned char>(r * 255)));
    out.push_back(static_cast<char>(static_cast<unsigned char>(g * 255)));
    out.push_back(static_cast<char>(static_cast<unsigned char>(b * 255)));
  }
  return out;
}

}  // namespace shadoop::viz
