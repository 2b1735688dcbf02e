#ifndef SHADOOP_GEOMETRY_POLYGON_UNION_H_
#define SHADOOP_GEOMETRY_POLYGON_UNION_H_

#include <vector>

#include "geometry/polygon.h"
#include "geometry/segment.h"

namespace shadoop {

/// Computes the boundary of the union of a set of simple polygons as a set
/// of line segments (the perimeter with all interior segments removed).
///
/// Algorithm (edge-classification overlay):
///   1. split every polygon edge at its proper crossings with edges of
///      every other polygon,
///   2. keep a sub-edge iff its midpoint is not strictly inside any other
///      polygon,
///   3. drop sub-edges shared by two polygons (an edge traversed twice is
///      interior to the union, e.g. the border between two adjacent ZIP
///      code areas).
///
/// This segment-soup representation matches what the distributed union
/// operation emits per node: the merge step only concatenates segments, so
/// no single machine ever needs the stitched result in memory.
std::vector<Segment> UnionBoundary(const std::vector<Polygon>& polygons);

/// Total length of the union boundary; the scalar tests and benchmarks
/// compare against.
double UnionBoundaryLength(const std::vector<Polygon>& polygons);

}  // namespace shadoop

#endif  // SHADOOP_GEOMETRY_POLYGON_UNION_H_
