// Reference answers the benchmark checks every operation against. They
// are computed from the generated records with code of the benchmark's
// own — text parsing, a uniform point grid and an exact polygon
// intersection test — so a defect in the library under test cannot also
// hide in its oracle. Header only; no library includes.
#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <queue>
#include <string>
#include <string_view>
#include <vector>

#include "harness.h"

namespace perfbench::oracle {

struct Pt {
  double x = 0;
  double y = 0;
};

struct Box {
  double min_x = 0;
  double min_y = 0;
  double max_x = 0;
  double max_y = 0;

  bool Contains(Pt p) const {
    return p.x >= min_x && p.x <= max_x && p.y >= min_y && p.y <= max_y;
  }
  bool Intersects(const Box& o) const {
    return min_x <= o.max_x && o.min_x <= max_x && min_y <= o.max_y &&
           o.min_y <= max_y;
  }
};

// ---------------------------------------------------------------------
// Record text.

inline bool ParseNumber(std::string_view text, double* out) {
  while (!text.empty() && text.front() == ' ') text.remove_prefix(1);
  while (!text.empty() && text.back() == ' ') text.remove_suffix(1);
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), *out);
  return ec == std::errc() && end == text.data() + text.size();
}

/// "x,y" optionally followed by a tab and attributes.
inline bool ParsePointRecord(std::string_view record, Pt* out) {
  record = record.substr(0, record.find('\t'));
  const size_t comma = record.find(',');
  if (comma == std::string_view::npos) return false;
  return ParseNumber(record.substr(0, comma), &out->x) &&
         ParseNumber(record.substr(comma + 1), &out->y);
}

inline double Distance(Pt a, Pt b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return std::sqrt(dx * dx + dy * dy);
}

// ---------------------------------------------------------------------
// Exact polygon intersection, closed boundaries (touching intersects).

inline double Cross(Pt o, Pt a, Pt b) {
  return (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x);
}

inline int Sign(double v) { return (v > 0) - (v < 0); }

inline bool WithinBox(Pt a, Pt b, Pt p) {
  return std::min(a.x, b.x) <= p.x && p.x <= std::max(a.x, b.x) &&
         std::min(a.y, b.y) <= p.y && p.y <= std::max(a.y, b.y);
}

inline bool SegmentsIntersect(Pt a, Pt b, Pt c, Pt d) {
  const int o1 = Sign(Cross(a, b, c));
  const int o2 = Sign(Cross(a, b, d));
  const int o3 = Sign(Cross(c, d, a));
  const int o4 = Sign(Cross(c, d, b));
  if (o1 * o2 < 0 && o3 * o4 < 0) return true;
  return (o1 == 0 && WithinBox(a, b, c)) || (o2 == 0 && WithinBox(a, b, d)) ||
         (o3 == 0 && WithinBox(c, d, a)) || (o4 == 0 && WithinBox(c, d, b));
}

/// Point in a simple ring, boundary included.
inline bool RingContains(const std::vector<Pt>& ring, Pt p) {
  bool inside = false;
  for (size_t i = 0, j = ring.size() - 1; i < ring.size(); j = i++) {
    const Pt a = ring[i];
    const Pt b = ring[j];
    if (Sign(Cross(a, b, p)) == 0 && WithinBox(a, b, p)) return true;
    if ((a.y > p.y) != (b.y > p.y)) {
      const double x = a.x + (b.x - a.x) * (p.y - a.y) / (b.y - a.y);
      if (p.x < x) inside = !inside;
    }
  }
  return inside;
}

inline Box BoundsOf(const std::vector<Pt>& ring) {
  Box box{ring[0].x, ring[0].y, ring[0].x, ring[0].y};
  for (const Pt& p : ring) {
    box.min_x = std::min(box.min_x, p.x);
    box.min_y = std::min(box.min_y, p.y);
    box.max_x = std::max(box.max_x, p.x);
    box.max_y = std::max(box.max_y, p.y);
  }
  return box;
}

inline bool RingsIntersect(const std::vector<Pt>& a, const std::vector<Pt>& b) {
  for (size_t i = 0; i < a.size(); ++i) {
    const Pt a0 = a[i];
    const Pt a1 = a[(i + 1) % a.size()];
    for (size_t j = 0; j < b.size(); ++j) {
      if (SegmentsIntersect(a0, a1, b[j], b[(j + 1) % b.size()])) return true;
    }
  }
  return RingContains(a, b[0]) || RingContains(b, a[0]);
}

/// Number of (a, b) pairs whose polygons intersect. Candidates come from
/// a uniform grid over the bounding boxes of `a`.
inline uint64_t CountIntersectingPairs(const std::vector<std::vector<Pt>>& a,
                                       const std::vector<std::vector<Pt>>& b) {
  if (a.empty() || b.empty()) return 0;
  std::vector<Box> a_box(a.size());
  Box space = BoundsOf(a[0]);
  for (size_t i = 0; i < a.size(); ++i) {
    a_box[i] = BoundsOf(a[i]);
    space.min_x = std::min(space.min_x, a_box[i].min_x);
    space.min_y = std::min(space.min_y, a_box[i].min_y);
    space.max_x = std::max(space.max_x, a_box[i].max_x);
    space.max_y = std::max(space.max_y, a_box[i].max_y);
  }
  constexpr int kCells = 128;
  const double cw = std::max((space.max_x - space.min_x) / kCells, 1e-9);
  const double ch = std::max((space.max_y - space.min_y) / kCells, 1e-9);
  auto cell_x = [&](double x) {
    return std::clamp(static_cast<int>((x - space.min_x) / cw), 0, kCells - 1);
  };
  auto cell_y = [&](double y) {
    return std::clamp(static_cast<int>((y - space.min_y) / ch), 0, kCells - 1);
  };
  std::vector<std::vector<uint32_t>> grid(kCells * kCells);
  for (size_t i = 0; i < a.size(); ++i) {
    for (int cx = cell_x(a_box[i].min_x); cx <= cell_x(a_box[i].max_x); ++cx) {
      for (int cy = cell_y(a_box[i].min_y); cy <= cell_y(a_box[i].max_y);
           ++cy) {
        grid[cx * kCells + cy].push_back(static_cast<uint32_t>(i));
      }
    }
  }
  std::vector<uint64_t> seen(a.size(), UINT64_MAX);
  uint64_t pairs = 0;
  for (size_t j = 0; j < b.size(); ++j) {
    const Box box = BoundsOf(b[j]);
    if (!box.Intersects(space)) continue;
    for (int cx = cell_x(box.min_x); cx <= cell_x(box.max_x); ++cx) {
      for (int cy = cell_y(box.min_y); cy <= cell_y(box.max_y); ++cy) {
        for (uint32_t i : grid[cx * kCells + cy]) {
          if (seen[i] == j) continue;
          seen[i] = j;
          if (a_box[i].Intersects(box) && RingsIntersect(a[i], b[j])) ++pairs;
        }
      }
    }
  }
  return pairs;
}

// ---------------------------------------------------------------------
// Points: range rows, counts and k-th neighbour distances per version.

/// A uniform grid over point records, each tagged with the generation
/// that added it (0 for the base load, i + 1 for the i-th append). A
/// query at version v sees generations < v.
class PointOracle {
 public:
  struct Entry {
    Pt p;
    uint64_t row_hash = 0;  // Mix64(Fnv1a(record)).
    uint32_t generation = 0;
  };

  PointOracle(Box space, int cells_per_side)
      : space_(space),
        n_(cells_per_side),
        cw_((space.max_x - space.min_x) / cells_per_side),
        ch_((space.max_y - space.min_y) / cells_per_side) {}

  void Add(std::string_view record, uint32_t generation) {
    Entry e;
    ParsePointRecord(record, &e.p);
    e.row_hash = Mix64(Fnv1a(record));
    e.generation = generation;
    pending_.push_back(e);
  }

  /// Sorts the added points into cells; call once, after the last Add.
  void Seal() {
    offsets_.assign(static_cast<size_t>(n_) * n_ + 1, 0);
    for (const Entry& e : pending_) ++offsets_[CellOf(e.p) + 1];
    for (size_t i = 1; i < offsets_.size(); ++i) offsets_[i] += offsets_[i - 1];
    entries_.resize(pending_.size());
    std::vector<size_t> fill(offsets_.begin(), offsets_.end() - 1);
    for (const Entry& e : pending_) entries_[fill[CellOf(e.p)]++] = e;
    pending_.clear();
    pending_.shrink_to_fit();
  }

  RowDigest Range(const Box& window, uint32_t version) const {
    RowDigest digest;
    ForCells(window, [&](const Entry& e) {
      if (e.generation < version && window.Contains(e.p)) {
        digest.AddHash(e.row_hash);
      }
    });
    return digest;
  }

  /// Distance from q to its k-th nearest point at `version`, or -1 when
  /// fewer than k points exist.
  double KthDistance(Pt q, size_t k, uint32_t version) const {
    std::priority_queue<double> best;  // Max-heap of the k smallest.
    const int qx = ClampCell((q.x - space_.min_x) / cw_);
    const int qy = ClampCell((q.y - space_.min_y) / ch_);
    for (int ring = 0; ring <= n_; ++ring) {
      for (int cx = qx - ring; cx <= qx + ring; ++cx) {
        for (int cy = qy - ring; cy <= qy + ring; ++cy) {
          if (std::max(std::abs(cx - qx), std::abs(cy - qy)) != ring) continue;
          if (cx < 0 || cy < 0 || cx >= n_ || cy >= n_) continue;
          const size_t cell = static_cast<size_t>(cx) * n_ + cy;
          for (size_t i = offsets_[cell]; i < offsets_[cell + 1]; ++i) {
            const Entry& e = entries_[i];
            if (e.generation >= version) continue;
            const double d = Distance(q, e.p);
            if (best.size() < k) {
              best.push(d);
            } else if (d < best.top()) {
              best.pop();
              best.push(d);
            }
          }
        }
      }
      // Every point outside the examined square lies at least `ring`
      // whole cells away from q's cell.
      if (best.size() == k && best.top() <= ring * std::min(cw_, ch_)) break;
    }
    return best.size() == k ? best.top() : -1;
  }

 private:
  int ClampCell(double v) const {
    return std::clamp(static_cast<int>(v), 0, n_ - 1);
  }
  size_t CellOf(Pt p) const {
    return static_cast<size_t>(ClampCell((p.x - space_.min_x) / cw_)) * n_ +
           ClampCell((p.y - space_.min_y) / ch_);
  }
  template <typename Fn>
  void ForCells(const Box& w, Fn&& fn) const {
    const int x0 = ClampCell((w.min_x - space_.min_x) / cw_);
    const int x1 = ClampCell((w.max_x - space_.min_x) / cw_);
    const int y0 = ClampCell((w.min_y - space_.min_y) / ch_);
    const int y1 = ClampCell((w.max_y - space_.min_y) / ch_);
    for (int cx = x0; cx <= x1; ++cx) {
      for (int cy = y0; cy <= y1; ++cy) {
        const size_t cell = static_cast<size_t>(cx) * n_ + cy;
        for (size_t i = offsets_[cell]; i < offsets_[cell + 1]; ++i) {
          fn(entries_[i]);
        }
      }
    }
  }

  Box space_;
  int n_;
  double cw_;
  double ch_;
  std::vector<Entry> pending_;
  std::vector<Entry> entries_;
  std::vector<size_t> offsets_;
};

}  // namespace perfbench::oracle

#endif  // PERFBENCH_ORACLE_H_
