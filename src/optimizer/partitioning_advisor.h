#ifndef SHADOOP_OPTIMIZER_PARTITIONING_ADVISOR_H_
#define SHADOOP_OPTIMIZER_PARTITIONING_ADVISOR_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "hdfs/file_system.h"
#include "index/partition.h"
#include "index/record_shape.h"

namespace shadoop::optimizer {

/// One scored candidate: a partitioning technique at a grid granularity.
struct CandidateScore {
  index::PartitionScheme scheme = index::PartitionScheme::kStr;
  int target_partitions = 0;
  /// Load imbalance: max cell load / mean cell load, >= 1. A perfectly
  /// balanced layout scores 1; skew inflates it.
  double balance = 0;
  /// Boundary replication: stored copies per sampled record, >= 1.
  /// Overlapping schemes always score 1 (one copy per record); disjoint
  /// schemes pay for every cell a shape straddles.
  double replication = 0;
  /// balance * replication — smaller is better.
  double score = 0;
};

/// The advisor's verdict plus every candidate it scored, in enumeration
/// order (EXPLAIN renders these as the rejected alternatives).
struct AdvisorChoice {
  index::PartitionScheme scheme = index::PartitionScheme::kStr;
  int target_partitions = 0;
  std::vector<CandidateScore> candidates;
};

/// Scores the candidate (scheme, granularity) grid on a deterministic
/// sample of `path` and returns the lowest-scoring candidate. The base
/// granularity is the file's HDFS block count, matching the index
/// builder's one-partition-per-block layout. Ties keep the earlier
/// candidate, and the first candidate enumerated is the legacy default
/// (STR at base granularity), so "everything ties" decays to today's
/// behavior. Fails when the file has no parseable records.
Result<AdvisorChoice> AdvisePartitioning(hdfs::FileSystem* fs,
                                         const std::string& path,
                                         index::ShapeType shape);

/// Renders one candidate's scores as "balance=…,repl=…,score=…" with
/// fixed 2-decimal formatting — deterministic across platforms. EXPLAIN
/// prints this inside the "scheme/cells(…)" alternative rendering.
std::string FormatCandidate(const CandidateScore& candidate);

}  // namespace shadoop::optimizer

#endif  // SHADOOP_OPTIMIZER_PARTITIONING_ADVISOR_H_
