#include "optimizer/optimizer.h"

#include <cmath>

namespace shadoop::optimizer {
namespace {

/// Fixed 4-decimal rendering of a value in [0, 1], round-half-up.
std::string Fixed4(double v) {
  const long long scaled = std::llround(v * 10000);
  std::string out = std::to_string(scaled / 10000) + ".";
  std::string frac = std::to_string(scaled % 10000);
  out += std::string(4 - frac.size(), '0') + frac;
  return out;
}

/// Index of the cheapest eligible alternative; strict less-than, so ties
/// keep the earliest (legacy-first) entry.
size_t PickCheapest(const std::vector<PlanAlternative>& alternatives) {
  size_t best = 0;
  bool have_best = false;
  for (size_t i = 0; i < alternatives.size(); ++i) {
    if (!alternatives[i].eligible) continue;
    if (!have_best || alternatives[i].cost_ms < alternatives[best].cost_ms) {
      best = i;
      have_best = true;
    }
  }
  return best;
}

PlanAlternative CostedAlternative(const std::string& name,
                                  const PlanCost& cost) {
  PlanAlternative alt;
  alt.name = name;
  alt.cost_ms = cost.total_ms;
  alt.detail = "est=" + FormatMs(cost.total_ms) + "ms";
  return alt;
}

}  // namespace

std::string FormatDecision(const PlanDecision& decision) {
  std::string out = "op=" + decision.op + " chosen=" + decision.chosen;
  std::string rejected;
  for (const PlanAlternative& alt : decision.alternatives) {
    if (alt.name == decision.chosen) {
      out += "(" + alt.detail + ")";
      continue;
    }
    if (!rejected.empty()) rejected += ", ";
    rejected += alt.name + "(" + alt.detail + ")";
  }
  if (!rejected.empty()) out += " rejected=[" + rejected + "]";
  return out;
}

JoinPlan PlanJoin(const mapreduce::ClusterConfig& cluster,
                  const index::SpatialFileInfo& a,
                  const index::SpatialFileInfo& b) {
  JoinPlan plan;
  plan.decision.op = "sjoin";
  plan.decision.alternatives.push_back(
      CostedAlternative("dj.l", CostDistributedJoin(cluster, a, b, false)));
  plan.decision.alternatives.push_back(
      CostedAlternative("dj.r", CostDistributedJoin(cluster, a, b, true)));
  if (IsReplicatedStorage(a) || IsReplicatedStorage(b)) {
    PlanAlternative sjmr;
    sjmr.name = "sjmr";
    sjmr.eligible = false;
    sjmr.detail = "ineligible: replicated storage";
    plan.decision.alternatives.push_back(sjmr);
  } else {
    const PlanCost cost = CostSjmrJoin(cluster, a, b);
    PlanAlternative sjmr = CostedAlternative("sjmr", cost);
    sjmr.detail += " shuffle=" + std::to_string(cost.bytes_shuffled) + "B";
    plan.decision.alternatives.push_back(sjmr);
  }
  const size_t winner = PickCheapest(plan.decision.alternatives);
  plan.decision.chosen = plan.decision.alternatives[winner].name;
  plan.strategy = winner == 0   ? JoinStrategy::kDjBuildLeft
                  : winner == 1 ? JoinStrategy::kDjBuildRight
                                : JoinStrategy::kSjmr;
  return plan;
}

RangePlan PlanRange(const mapreduce::ClusterConfig& cluster,
                    const index::SpatialFileInfo& info, const Envelope& query,
                    const std::string& op) {
  RangePlan plan;
  plan.decision.op = op;
  const double selectivity = EstimateSelectivity(info.global_index, query);
  PlanAlternative pruned =
      CostedAlternative("pruned", CostRangePruned(cluster, info, query));
  pruned.detail += " sel=" + Fixed4(selectivity);
  plan.decision.alternatives.push_back(pruned);
  if (IsReplicatedStorage(info)) {
    PlanAlternative scan;
    scan.name = "scan";
    scan.eligible = false;
    scan.detail = "ineligible: replicated storage";
    plan.decision.alternatives.push_back(scan);
  } else {
    plan.decision.alternatives.push_back(
        CostedAlternative("scan", CostRangeScan(cluster, info)));
  }
  const size_t winner = PickCheapest(plan.decision.alternatives);
  plan.decision.chosen = plan.decision.alternatives[winner].name;
  plan.use_index = winner == 0;
  return plan;
}

Result<IndexPlan> PlanIndexBuild(hdfs::FileSystem* fs, const std::string& path,
                                 index::ShapeType shape) {
  SHADOOP_ASSIGN_OR_RETURN(const AdvisorChoice choice,
                           AdvisePartitioning(fs, path, shape));
  IndexPlan plan;
  plan.scheme = choice.scheme;
  plan.target_partitions = choice.target_partitions;
  plan.decision.op = "index";
  for (const CandidateScore& cand : choice.candidates) {
    PlanAlternative alt;
    alt.name = std::string(index::PartitionSchemeName(cand.scheme)) + "/" +
               std::to_string(cand.target_partitions);
    alt.cost_ms = cand.score;
    alt.detail = FormatCandidate(cand);
    plan.decision.alternatives.push_back(alt);
    if (cand.scheme == choice.scheme &&
        cand.target_partitions == choice.target_partitions &&
        plan.decision.chosen.empty()) {
      plan.decision.chosen = alt.name;
    }
  }
  return plan;
}

}  // namespace shadoop::optimizer
