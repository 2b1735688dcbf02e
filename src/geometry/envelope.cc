#include "geometry/envelope.h"

#include <algorithm>
#include <cmath>

#include "common/string_util.h"

namespace shadoop {

double Envelope::MinDistance(const Point& p) const {
  if (IsEmpty()) return std::numeric_limits<double>::infinity();
  const double dx = std::max({min_x_ - p.x, 0.0, p.x - max_x_});
  const double dy = std::max({min_y_ - p.y, 0.0, p.y - max_y_});
  return std::sqrt(dx * dx + dy * dy);
}

double Envelope::MinDistance(const Envelope& other) const {
  if (IsEmpty() || other.IsEmpty()) {
    return std::numeric_limits<double>::infinity();
  }
  const double dx =
      std::max({other.min_x_ - max_x_, 0.0, min_x_ - other.max_x_});
  const double dy =
      std::max({other.min_y_ - max_y_, 0.0, min_y_ - other.max_y_});
  return std::sqrt(dx * dx + dy * dy);
}

double Envelope::MaxDistance(const Envelope& other) const {
  if (IsEmpty() || other.IsEmpty()) return 0.0;
  const double dx = std::max(std::abs(other.max_x_ - min_x_),
                             std::abs(max_x_ - other.min_x_));
  const double dy = std::max(std::abs(other.max_y_ - min_y_),
                             std::abs(max_y_ - other.min_y_));
  return std::sqrt(dx * dx + dy * dy);
}

std::string Envelope::ToString() const {
  if (IsEmpty()) return "ENVELOPE(EMPTY)";
  return "ENVELOPE(" + FormatDouble(min_x_) + "," + FormatDouble(min_y_) +
         "," + FormatDouble(max_x_) + "," + FormatDouble(max_y_) + ")";
}

}  // namespace shadoop
