#include "core/knn.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <queue>
#include <set>

#include "common/string_util.h"
#include "core/query_pipeline.h"

namespace shadoop::core {
namespace {

using mapreduce::JobResult;
using mapreduce::MapContext;

/// Keeps the k smallest (distance, record) pairs seen.
class TopK {
 public:
  explicit TopK(size_t k) : k_(k) {}

  void Offer(double distance, std::string_view record) {
    if (heap_.size() < k_) {
      heap_.push({distance, std::string(record)});
    } else if (!heap_.empty() && distance < heap_.top().first) {
      heap_.pop();
      heap_.push({distance, std::string(record)});
    }
  }

  double KthDistance() const {
    if (k_ == 0) return -std::numeric_limits<double>::infinity();
    return heap_.size() < k_ ? std::numeric_limits<double>::infinity()
                             : heap_.top().first;
  }

  std::vector<KnnAnswer> Sorted() {
    std::vector<KnnAnswer> out;
    out.reserve(heap_.size());
    while (!heap_.empty()) {
      out.push_back({heap_.top().first, heap_.top().second});
      heap_.pop();
    }
    std::reverse(out.begin(), out.end());
    return out;
  }

 private:
  size_t k_;
  // Max-heap on distance.
  std::priority_queue<std::pair<double, std::string>> heap_;
};

/// Keeps each split's k nearest records; envelopes come from the
/// reader's parse-once column (or the persisted #lidx header).
class KnnMapper : public PartitionMapper {
 public:
  KnnMapper(index::ShapeType shape, Point q, size_t k)
      : PartitionMapper(shape, /*parse_extent=*/false), q_(q), k_(k) {}

 protected:
  void Process(const SplitExtent& extent, SpatialRecordReader& reader,
               MapContext& ctx) override {
    (void)extent;
    TopK top(k_);
    int64_t bad = 0;
    for (size_t i = 0; i < reader.NumRecords(); ++i) {
      const Envelope* env = reader.EnvelopeAt(i);
      if (env == nullptr) {
        ++bad;
        continue;
      }
      top.Offer(env->MinDistance(q_), reader.records()[i]);
    }
    if (bad > 0) ctx.counters().Increment("knn.bad_records", bad);
    for (const KnnAnswer& answer : top.Sorted()) {
      ctx.Emit("K", FormatDouble(answer.distance) + "\t" + answer.record);
    }
  }

 private:
  Point q_;
  size_t k_;
};

/// Merges local top-k lists into the global top-k.
class KnnReducer : public mapreduce::Reducer {
 public:
  explicit KnnReducer(size_t k) : k_(k) {}

  void Reduce(std::string_view key, std::span<const std::string_view> values,
              mapreduce::ReduceContext& ctx) override {
    (void)key;
    TopK top(k_);
    for (std::string_view value : values) {
      const size_t tab = value.find('\t');
      if (tab == std::string::npos) continue;
      auto dist = ParseDouble(value.substr(0, tab));
      if (!dist.ok()) continue;
      top.Offer(dist.value(), value.substr(tab + 1));
    }
    for (const KnnAnswer& answer : top.Sorted()) {
      ctx.Write(FormatDouble(answer.distance) + "\t" + answer.record);
    }
  }

 private:
  size_t k_;
};

Result<std::vector<KnnAnswer>> ParseAnswers(
    const std::vector<std::string>& lines) {
  std::vector<KnnAnswer> answers;
  answers.reserve(lines.size());
  for (const std::string& line : lines) {
    const size_t tab = line.find('\t');
    if (tab == std::string::npos) {
      return Status::ParseError("bad kNN output line: '" + line + "'");
    }
    SHADOOP_ASSIGN_OR_RETURN(double dist, ParseDouble(line.substr(0, tab)));
    answers.push_back({dist, line.substr(tab + 1)});
  }
  return answers;
}

/// Wires the per-round job shape onto a builder whose input is planned.
Result<JobResult> RunKnnJob(SpatialJobBuilder& builder, index::ShapeType shape,
                            const Point& q, size_t k, OpStats* stats) {
  return builder.Name("knn")
      .Map([shape, q, k]() { return std::make_unique<KnnMapper>(shape, q, k); })
      .Reduce([k]() { return std::make_unique<KnnReducer>(k); })
      .Run(stats);
}

}  // namespace

Result<std::vector<KnnAnswer>> KnnHadoop(mapreduce::JobRunner* runner,
                                         const std::string& path,
                                         index::ShapeType shape,
                                         const Point& q, size_t k,
                                         OpStats* stats) {
  SpatialJobBuilder builder(runner);
  builder.ScanFile(path);
  SHADOOP_ASSIGN_OR_RETURN(JobResult result,
                           RunKnnJob(builder, shape, q, k, stats));
  return ParseAnswers(result.output);
}

Result<std::vector<KnnAnswer>> KnnSpatial(mapreduce::JobRunner* runner,
                                          const index::SpatialFileInfo& file,
                                          const Point& q, size_t k,
                                          OpStats* stats) {
  const index::GlobalIndex& gi = file.global_index;
  if (gi.NumPartitions() == 0) {
    return Status::InvalidArgument("kNN over empty index");
  }
  if (k == 0) return std::vector<KnnAnswer>{};

  // Seed: nearest partitions until they collectively hold >= k records.
  const std::vector<double> distances = gi.PartitionDistances(q);
  std::vector<std::pair<double, int>> by_distance;
  by_distance.reserve(gi.NumPartitions());
  for (size_t i = 0; i < gi.NumPartitions(); ++i) {
    by_distance.emplace_back(distances[i], gi.partitions()[i].id);
  }
  std::sort(by_distance.begin(), by_distance.end());
  std::set<int> processed;
  std::vector<int> round;
  size_t records_covered = 0;
  for (const auto& [dist, id] : by_distance) {
    round.push_back(id);
    records_covered += gi.partitions()[id].num_records;
    if (records_covered >= k) break;
  }

  TopK top(k);
  while (!round.empty()) {
    SpatialJobBuilder builder(runner);
    builder.ScanIndexed(
        file, [&round](const index::GlobalIndex&) { return round; });
    SHADOOP_ASSIGN_OR_RETURN(JobResult result,
                             RunKnnJob(builder, file.shape, q, k, stats));
    SHADOOP_ASSIGN_OR_RETURN(std::vector<KnnAnswer> answers,
                             ParseAnswers(result.output));
    for (const KnnAnswer& a : answers) top.Offer(a.distance, a.record);
    for (int id : round) processed.insert(id);

    // Correctness loop: any unprocessed partition closer than the k-th
    // distance may hold a better neighbor.
    const double radius = top.KthDistance();
    round.clear();
    for (const auto& [dist, id] : by_distance) {
      if (processed.count(id) == 0 && dist <= radius) round.push_back(id);
    }
  }
  return top.Sorted();
}

}  // namespace shadoop::core
