#include "optimizer/partitioning_advisor.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "geometry/envelope.h"
#include "geometry/point.h"
#include "index/partitioner.h"

namespace shadoop::optimizer {
namespace {

/// Techniques the advisor prices, in tie-break priority order: the first
/// entry is the legacy default, so an all-tie outcome changes nothing.
constexpr index::PartitionScheme kCandidateSchemes[] = {
    index::PartitionScheme::kStr,      index::PartitionScheme::kGrid,
    index::PartitionScheme::kStrPlus,  index::PartitionScheme::kQuadTree,
    index::PartitionScheme::kKdTree,
};

/// Grid granularities tried per scheme, as percentages of the base cell
/// count (100 first, again for the tie-break).
constexpr int kGranularityPct[] = {100, 50, 200};

/// Stride-sampled records kept on the master for scoring. The stride is
/// derived from the record count, so the sample is deterministic for a
/// given file (no randomness anywhere in the advisor).
constexpr size_t kMaxSample = 2000;

/// Fixed 2-decimal rendering of a non-negative value, round-half-up.
std::string Fixed2(double v) {
  const long long scaled = std::llround(v * 100);
  std::string out = std::to_string(scaled / 100) + ".";
  const long long frac = scaled % 100;
  if (frac < 10) out += "0";
  out += std::to_string(frac);
  return out;
}

}  // namespace

Result<AdvisorChoice> AdvisePartitioning(hdfs::FileSystem* fs,
                                         const std::string& path,
                                         index::ShapeType shape) {
  SHADOOP_ASSIGN_OR_RETURN(const std::vector<std::string> lines,
                           fs->ReadLines(path));
  std::vector<Envelope> extents;
  extents.reserve(lines.size());
  for (const std::string& line : lines) {
    if (line.empty() || index::IsMetadataRecord(line)) continue;
    Result<Envelope> env = index::RecordEnvelope(shape, line);
    if (!env.ok()) continue;
    extents.push_back(*env);
  }
  if (extents.empty()) {
    return Status::InvalidArgument("advisor: no parseable records in '" +
                                   path + "'");
  }

  // Deterministic stride sample: every k-th record, independent of any
  // seed or clock, so the same file always yields the same sample.
  std::vector<Envelope> sample;
  const size_t stride =
      std::max<size_t>(1, (extents.size() + kMaxSample - 1) / kMaxSample);
  for (size_t i = 0; i < extents.size(); i += stride) {
    sample.push_back(extents[i]);
  }

  Envelope space;
  std::vector<Point> centers;
  centers.reserve(sample.size());
  for (const Envelope& e : sample) {
    space.ExpandToInclude(e);
    centers.push_back(e.Center());
  }

  SHADOOP_ASSIGN_OR_RETURN(const hdfs::FileMeta meta, fs->GetFileMeta(path));
  const int base_partitions = std::max(
      1, static_cast<int>((meta.total_bytes + fs->config().block_size - 1) /
                          fs->config().block_size));

  AdvisorChoice choice;
  double best_score = 0;
  bool have_best = false;
  for (const index::PartitionScheme scheme : kCandidateSchemes) {
    for (const int pct : kGranularityPct) {
      const int target = std::max(1, base_partitions * pct / 100);
      SHADOOP_ASSIGN_OR_RETURN(const auto partitioner,
                               index::MakePartitioner(scheme));
      const Status built = partitioner->Construct(space, centers, target);
      if (!built.ok()) continue;

      std::map<int, size_t> cell_loads;
      size_t assignments = 0;
      std::vector<int> assigned;
      for (const Envelope& e : sample) {
        partitioner->AssignEnvelope(e, &assigned);
        for (const int cell : assigned) {
          ++cell_loads[cell];
          ++assignments;
        }
      }
      if (assignments == 0) continue;

      size_t max_load = 0;
      for (const auto& [cell, load] : cell_loads) {
        max_load = std::max(max_load, load);
      }
      CandidateScore cand;
      cand.scheme = scheme;
      cand.target_partitions = target;
      // max/mean over the cells the partitioner actually produced: empty
      // cells dilute the mean exactly as they waste task slots.
      const double cells =
          static_cast<double>(std::max(1, partitioner->NumCells()));
      cand.balance = static_cast<double>(max_load) * cells /
                     static_cast<double>(assignments);
      cand.replication = static_cast<double>(assignments) /
                         static_cast<double>(sample.size());
      cand.score = cand.balance * cand.replication;
      choice.candidates.push_back(cand);
      if (!have_best || cand.score < best_score) {
        have_best = true;
        best_score = cand.score;
        choice.scheme = cand.scheme;
        choice.target_partitions = cand.target_partitions;
      }
    }
  }
  if (!have_best) {
    return Status::InvalidArgument(
        "advisor: no candidate partitioning succeeded for '" + path + "'");
  }
  return choice;
}

std::string FormatCandidate(const CandidateScore& candidate) {
  std::string out = "balance=" + Fixed2(candidate.balance);
  out += ",repl=" + Fixed2(candidate.replication);
  out += ",score=" + Fixed2(candidate.score);
  return out;
}

}  // namespace shadoop::optimizer
