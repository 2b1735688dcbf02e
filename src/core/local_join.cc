#include "core/local_join.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "index/packed_rtree.h"
#include "simd/mbr_kernels.h"

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

/// SoA lanes of one sweep side, sorted by min-x.
struct SweepLanes {
  std::vector<double> min_x, min_y, max_x, max_y;
  std::vector<uint32_t> payload;

  explicit SweepLanes(const std::vector<Entry>& entries) {
    std::vector<Entry> sorted = entries;
    std::sort(sorted.begin(), sorted.end(), [](const Entry& u, const Entry& v) {
      return u.box.min_x() < v.box.min_x();
    });
    const size_t n = sorted.size();
    min_x.resize(n);
    min_y.resize(n);
    max_x.resize(n);
    max_y.resize(n);
    payload.resize(n);
    for (size_t i = 0; i < n; ++i) {
      min_x[i] = sorted[i].box.min_x();
      min_y[i] = sorted[i].box.min_y();
      max_x[i] = sorted[i].box.max_x();
      max_y[i] = sorted[i].box.max_y();
      payload[i] = sorted[i].payload;
    }
  }

  size_t size() const { return payload.size(); }
  simd::BoxLanes LanesAt(size_t offset) const {
    return {min_x.data() + offset, min_y.data() + offset,
            max_x.data() + offset, max_y.data() + offset};
  }
};

uint64_t PlaneSweepJoin(const std::vector<Entry>& entries_a,
                        const std::vector<Entry>& entries_b,
                        const std::function<void(uint32_t, uint32_t)>& emit) {
  // Both sides sorted by min-x (the sweep order) into SoA lanes, so the
  // inner scans run as batch kernels instead of per-entry branchy tests:
  // PrefixCountLessEqual finds how far the x-overlap run extends (that
  // run length is exactly the old loop's candidate count, since the side
  // is sorted by min-x), then one bitmap call tests the whole run.
  // Candidate counts, emissions and their order are identical to the
  // scalar sweep.
  const SweepLanes a(entries_a);
  const SweepLanes b(entries_b);
  uint64_t cpu = 0;
  const size_t total = a.size() + b.size();
  cpu += static_cast<uint64_t>(
      total > 1 ? total * std::log2(static_cast<double>(total)) * 6 : total);

  const simd::detail::KernelTable& kernels = simd::ActiveKernels();
  std::vector<uint64_t> bits(simd::BitmapWords(std::max(a.size(), b.size())));

  // Emits every pair of `probe`-side entry `p` with the run of `sweep`
  // entries [from, from+run) whose boxes intersect it, in ascending
  // sweep order. `probe_first` flips the emit argument order so A
  // payloads always come first.
  const auto scan_run = [&](const SweepLanes& sweep, size_t from, size_t run,
                            const SweepLanes& probe, size_t p,
                            bool probe_is_a) {
    cpu += 10 * static_cast<uint64_t>(run);
    if (run == 0) return;
    const size_t hits = kernels.intersect_box_bitmap(
        sweep.LanesAt(from), run, probe.min_x[p], probe.min_y[p],
        probe.max_x[p], probe.max_y[p], bits.data());
    if (hits == 0) return;
    for (size_t w = 0; w < simd::BitmapWords(run); ++w) {
      uint64_t word = bits[w];
      while (word != 0) {
        const size_t k =
            from + w * 64 + static_cast<size_t>(std::countr_zero(word));
        word &= word - 1;
        if (probe_is_a) {
          emit(probe.payload[p], sweep.payload[k]);
        } else {
          emit(sweep.payload[k], probe.payload[p]);
        }
        cpu += 20;
      }
    }
  };

  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a.min_x[i] <= b.min_x[j]) {
      // a[i] opens: the b candidates are the leading run from j whose
      // min-x does not pass a[i]'s max-x.
      const size_t run = kernels.prefix_count_less_equal(
          b.min_x.data() + j, b.size() - j, a.max_x[i]);
      scan_run(b, j, run, a, i, /*probe_is_a=*/true);
      ++i;
    } else {
      const size_t run = kernels.prefix_count_less_equal(
          a.min_x.data() + i, a.size() - i, b.max_x[j]);
      scan_run(a, i, run, b, j, /*probe_is_a=*/false);
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
