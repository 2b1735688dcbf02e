#include "geometry/polygon_union.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <tuple>

#include "geometry/envelope.h"

namespace shadoop {
namespace {

/// Canonical key for duplicate-edge detection: endpoints snapped to a
/// fixed grid and ordered, so the two directed copies of a shared border
/// collide.
struct SegmentKey {
  long long ax, ay, bx, by;
  friend bool operator<(const SegmentKey& s, const SegmentKey& t) {
    return std::tie(s.ax, s.ay, s.bx, s.by) < std::tie(t.ax, t.ay, t.bx, t.by);
  }
};

SegmentKey MakeKey(const Segment& s) {
  constexpr double kSnap = 1e9;
  long long ax = std::llround(s.a.x * kSnap);
  long long ay = std::llround(s.a.y * kSnap);
  long long bx = std::llround(s.b.x * kSnap);
  long long by = std::llround(s.b.y * kSnap);
  if (std::tie(ax, ay) > std::tie(bx, by)) {
    std::swap(ax, bx);
    std::swap(ay, by);
  }
  return SegmentKey{ax, ay, bx, by};
}

}  // namespace

std::vector<Segment> UnionBoundary(const std::vector<Polygon>& polygons) {
  std::vector<Envelope> bounds;
  bounds.reserve(polygons.size());
  for (const Polygon& p : polygons) bounds.push_back(p.Bounds());

  std::vector<Segment> kept;
  for (size_t pi = 0; pi < polygons.size(); ++pi) {
    for (const Segment& edge : polygons[pi].Edges()) {
      // 1. Split the edge at proper crossings with other polygons' edges.
      std::vector<double> cuts = {0.0, 1.0};
      const Envelope edge_bounds = edge.Bounds();
      for (size_t pj = 0; pj < polygons.size(); ++pj) {
        if (pj == pi || !edge_bounds.Intersects(bounds[pj])) continue;
        for (const Segment& other : polygons[pj].Edges()) {
          for (double t : CrossingParameters(edge, other)) cuts.push_back(t);
        }
      }
      std::sort(cuts.begin(), cuts.end());
      cuts.erase(std::unique(cuts.begin(), cuts.end(),
                             [](double a, double b) { return b - a < 1e-12; }),
                 cuts.end());

      // 2. Keep sub-edges whose midpoint is outside every other polygon.
      for (size_t k = 0; k + 1 < cuts.size(); ++k) {
        const double t0 = cuts[k];
        const double t1 = cuts[k + 1];
        const Segment sub(
            Point(edge.a.x + t0 * (edge.b.x - edge.a.x),
                  edge.a.y + t0 * (edge.b.y - edge.a.y)),
            Point(edge.a.x + t1 * (edge.b.x - edge.a.x),
                  edge.a.y + t1 * (edge.b.y - edge.a.y)));
        const Point mid = sub.Midpoint();
        bool interior = false;
        for (size_t pj = 0; pj < polygons.size(); ++pj) {
          if (pj == pi || !bounds[pj].Contains(mid)) continue;
          if (polygons[pj].ContainsInterior(mid)) {
            interior = true;
            break;
          }
        }
        if (!interior) kept.push_back(sub);
      }
    }
  }

  // 3. Remove edges traversed by more than one polygon (shared borders).
  std::map<SegmentKey, int> counts;
  for (const Segment& s : kept) ++counts[MakeKey(s)];
  std::vector<Segment> result;
  result.reserve(kept.size());
  for (const Segment& s : kept) {
    if (counts[MakeKey(s)] == 1) result.push_back(s);
  }
  return result;
}

double UnionBoundaryLength(const std::vector<Polygon>& polygons) {
  double total = 0.0;
  for (const Segment& s : UnionBoundary(polygons)) total += s.Length();
  return total;
}

}  // namespace shadoop
