#ifndef SHADOOP_CORE_LOCAL_JOIN_H_
#define SHADOOP_CORE_LOCAL_JOIN_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "index/packed_rtree.h"

namespace shadoop::core {

/// In-memory overlap-join kernels used inside join tasks (one partition
/// pair or one SJMR cell at a time). Both find every pair of entries with
/// intersecting boxes; they differ in memory/CPU profile:
///  - kRTreeProbe: bulk-load an R-tree on the left side, probe with each
///    right entry. Wins when one side is much smaller or reusable.
///  - kPlaneSweep: sort both sides by min-x and sweep. No index memory;
///    wins on similar-size inputs with limited overlap.
enum class LocalJoinAlgorithm { kRTreeProbe, kPlaneSweep };

/// Invokes `emit(payload_a, payload_b)` for every intersecting pair.
/// Returns the charged CPU operations for the cost model.
uint64_t LocalJoinPairs(
    const std::vector<index::PackedRTree::Entry>& entries_a,
    const std::vector<index::PackedRTree::Entry>& entries_b,
    LocalJoinAlgorithm algorithm,
    const std::function<void(uint32_t, uint32_t)>& emit);

}  // namespace shadoop::core

#endif  // SHADOOP_CORE_LOCAL_JOIN_H_
