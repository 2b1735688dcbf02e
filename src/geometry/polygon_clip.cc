#include "geometry/polygon_clip.h"

namespace shadoop {

std::optional<Segment> ClipSegmentToBox(const Segment& s, const Envelope& box) {
  if (box.IsEmpty()) return std::nullopt;
  double t0 = 0.0;
  double t1 = 1.0;
  const double dx = s.b.x - s.a.x;
  const double dy = s.b.y - s.a.y;
  const double p[4] = {-dx, dx, -dy, dy};
  const double q[4] = {s.a.x - box.min_x(), box.max_x() - s.a.x,
                       s.a.y - box.min_y(), box.max_y() - s.a.y};
  for (int i = 0; i < 4; ++i) {
    if (p[i] == 0.0) {
      if (q[i] < 0.0) return std::nullopt;  // Parallel and outside.
      continue;
    }
    const double r = q[i] / p[i];
    if (p[i] < 0.0) {
      if (r > t1) return std::nullopt;
      if (r > t0) t0 = r;
    } else {
      if (r < t0) return std::nullopt;
      if (r < t1) t1 = r;
    }
  }
  if (t0 >= t1) return std::nullopt;
  return Segment(Point(s.a.x + t0 * dx, s.a.y + t0 * dy),
                 Point(s.a.x + t1 * dx, s.a.y + t1 * dy));
}

}  // namespace shadoop
