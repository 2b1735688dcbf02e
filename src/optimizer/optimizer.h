#ifndef SHADOOP_OPTIMIZER_OPTIMIZER_H_
#define SHADOOP_OPTIMIZER_OPTIMIZER_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "geometry/envelope.h"
#include "hdfs/file_system.h"
#include "index/index_builder.h"
#include "mapreduce/cluster.h"
#include "optimizer/cost_model.h"
#include "optimizer/partitioning_advisor.h"

namespace shadoop::optimizer {

/// One priced candidate of a plan decision. The chosen one's `name`
/// doubles as the plan token the server folds into its result-cache key.
struct PlanAlternative {
  std::string name;
  double cost_ms = 0;
  bool eligible = true;
  /// Rendering of the estimate ("est=1234ms sel=0.0310") or of the
  /// ineligibility reason ("ineligible: replicated storage").
  std::string detail;
};

/// A plan choice, kept with the binding it produced for EXPLAIN: the
/// operation, the winning alternative's name, and every alternative in
/// enumeration order (winner included).
struct PlanDecision {
  std::string op;
  std::string chosen;
  std::vector<PlanAlternative> alternatives;
};

/// Deterministic one-line rendering:
///   op=sjoin chosen=dj.l(est=5210ms) rejected=[dj.r(est=5301ms),
///   sjmr(ineligible: replicated storage)]
/// `rejected=[]` is omitted when the winner was the only alternative.
std::string FormatDecision(const PlanDecision& decision);

/// Physical strategies of the two-file spatial join. The build side names
/// which input's records load the in-memory structure of each pair task
/// (the other side probes).
enum class JoinStrategy { kDjBuildLeft, kDjBuildRight, kSjmr };

struct JoinPlan {
  JoinStrategy strategy = JoinStrategy::kDjBuildLeft;
  PlanDecision decision;
};

/// Prices dj.l / dj.r / sjmr for a join of two indexed files and picks
/// the cheapest eligible one. SJMR re-reads both files without the global
/// indexes, so it is ineligible when either side replicates records
/// across partitions (it would double-count them). Ties keep the earlier
/// alternative; dj.l — today's hard-coded plan — is enumerated first.
JoinPlan PlanJoin(const mapreduce::ClusterConfig& cluster,
                  const index::SpatialFileInfo& a,
                  const index::SpatialFileInfo& b);

struct RangePlan {
  bool use_index = true;
  PlanDecision decision;
};

/// Prices the index-pruned plan against a full scan for a range query or
/// count. The scan is ineligible on replicated storage. `op` labels the
/// decision ("range" or "count").
RangePlan PlanRange(const mapreduce::ClusterConfig& cluster,
                    const index::SpatialFileInfo& info, const Envelope& query,
                    const std::string& op);

struct IndexPlan {
  index::PartitionScheme scheme = index::PartitionScheme::kStr;
  int target_partitions = 0;
  PlanDecision decision;
};

/// Runs the partitioning advisor over the source file and wraps its
/// verdict as a decision (candidates become the alternatives, scored by
/// balance x replication instead of milliseconds).
Result<IndexPlan> PlanIndexBuild(hdfs::FileSystem* fs, const std::string& path,
                                 index::ShapeType shape);

}  // namespace shadoop::optimizer

#endif  // SHADOOP_OPTIMIZER_OPTIMIZER_H_
