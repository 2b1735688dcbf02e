#include "core/local_join.h"

#include <algorithm>
#include <cmath>

#include "index/packed_rtree.h"

namespace shadoop::core {
namespace {

using Entry = index::PackedRTree::Entry;

uint64_t RTreeProbeJoin(const std::vector<Entry>& entries_a,
                        const std::vector<Entry>& entries_b,
                        const std::function<void(uint32_t, uint32_t)>& emit) {
  uint64_t cpu = 0;
  const index::PackedRTree tree(entries_a);
  const size_t n = tree.NumEntries();
  cpu += static_cast<uint64_t>(
      n > 1 ? n * std::log2(static_cast<double>(n)) * 10 : n);
  std::vector<uint32_t> hits;
  for (const Entry& b : entries_b) {
    hits.clear();
    cpu += tree.Search(b.box, &hits) * 50;
    for (uint32_t a_payload : hits) {
      emit(a_payload, b.payload);
      cpu += 20;
    }
  }
  return cpu;
}

/// One sweep side, sorted by min-x.
std::vector<Entry> SortedByMinX(const std::vector<Entry>& entries) {
  std::vector<Entry> sorted = entries;
  std::sort(sorted.begin(), sorted.end(), [](const Entry& u, const Entry& v) {
    return u.box.min_x() < v.box.min_x();
  });
  return sorted;
}

uint64_t PlaneSweepJoin(const std::vector<Entry>& entries_a,
                        const std::vector<Entry>& entries_b,
                        const std::function<void(uint32_t, uint32_t)>& emit) {
  const std::vector<Entry> a = SortedByMinX(entries_a);
  const std::vector<Entry> b = SortedByMinX(entries_b);
  uint64_t cpu = 0;
  const size_t total = a.size() + b.size();
  cpu += static_cast<uint64_t>(
      total > 1 ? total * std::log2(static_cast<double>(total)) * 6 : total);

  // The entry that opens next probes the other side from its cursor:
  // every entry there whose min-x does not pass the probe's max-x is a
  // candidate (10 per candidate), and each intersecting one is emitted
  // (20 per pair), A payload first.
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    const bool a_opens = a[i].box.min_x() <= b[j].box.min_x();
    const Entry& probe = a_opens ? a[i] : b[j];
    const std::vector<Entry>& other = a_opens ? b : a;
    for (size_t k = a_opens ? j : i;
         k < other.size() && other[k].box.min_x() <= probe.box.max_x(); ++k) {
      cpu += 10;
      if (!other[k].box.Intersects(probe.box)) continue;
      if (a_opens) {
        emit(probe.payload, other[k].payload);
      } else {
        emit(other[k].payload, probe.payload);
      }
      cpu += 20;
    }
    if (a_opens) {
      ++i;
    } else {
      ++j;
    }
  }
  return cpu;
}

}  // namespace

uint64_t LocalJoinPairs(
    const std::vector<index::PackedRTree::Entry>& entries_a,
    const std::vector<index::PackedRTree::Entry>& entries_b,
    LocalJoinAlgorithm algorithm,
    const std::function<void(uint32_t, uint32_t)>& emit) {
  switch (algorithm) {
    case LocalJoinAlgorithm::kRTreeProbe:
      return RTreeProbeJoin(entries_a, entries_b, emit);
    case LocalJoinAlgorithm::kPlaneSweep:
      return PlaneSweepJoin(entries_a, entries_b, emit);
  }
  return 0;
}

}  // namespace shadoop::core
