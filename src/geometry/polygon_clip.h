#ifndef SHADOOP_GEOMETRY_POLYGON_CLIP_H_
#define SHADOOP_GEOMETRY_POLYGON_CLIP_H_

#include <optional>

#include "geometry/envelope.h"
#include "geometry/segment.h"

namespace shadoop {

/// Clips segment `s` to `box` (Liang–Barsky). Returns nullopt when the
/// segment lies entirely outside, or when the clipped portion degenerates
/// to a point.
std::optional<Segment> ClipSegmentToBox(const Segment& s, const Envelope& box);

}  // namespace shadoop

#endif  // SHADOOP_GEOMETRY_POLYGON_CLIP_H_
