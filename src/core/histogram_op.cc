#include "core/histogram_op.h"

#include <algorithm>
#include <map>
#include <memory>

#include "common/string_util.h"
#include "core/query_pipeline.h"

namespace shadoop::core {
namespace {

using mapreduce::JobResult;
using mapreduce::MapContext;

class HistogramMapper : public mapreduce::Mapper {
 public:
  HistogramMapper(index::ShapeType shape, GridHistogram grid)
      : shape_(shape), grid_(std::move(grid)) {}

  void Map(std::string_view record, MapContext& ctx) override {
    if (index::IsMetadataRecord(record)) return;
    auto env = index::RecordEnvelope(shape_, record);
    if (!env.ok()) {
      ctx.counters().Increment("histogram.bad_records");
      return;
    }
    ++local_[grid_.CellOf(env.value().Center())];
  }

  void EndSplit(MapContext& ctx) override {
    for (const auto& [cell, count] : local_) {
      ctx.Emit(std::to_string(cell), std::to_string(count));
    }
  }

 private:
  index::ShapeType shape_;
  GridHistogram grid_;
  std::map<int, int64_t> local_;
};

/// Sums the counts of one cell. As a combiner (`include_key = false`) it
/// re-emits the bare total under the same key; as the final reducer it
/// writes "cell,total" output lines.
class SumPerCellReducer : public mapreduce::Reducer {
 public:
  explicit SumPerCellReducer(bool include_key) : include_key_(include_key) {}

  void Reduce(std::string_view key, std::span<const std::string_view> values,
              mapreduce::ReduceContext& ctx) override {
    int64_t total = 0;
    for (std::string_view value : values) {
      auto v = ParseInt64(value);
      if (v.ok()) total += v.value();
    }
    ctx.Write(include_key_ ? std::string(key) + "," + std::to_string(total)
                           : std::to_string(total));
  }

 private:
  bool include_key_;
};

}  // namespace

int GridHistogram::CellOf(const Point& p) const {
  const double w = space_.Width();
  const double h = space_.Height();
  int col = w > 0 ? static_cast<int>((p.x - space_.min_x()) / w * cols_) : 0;
  int row = h > 0 ? static_cast<int>((p.y - space_.min_y()) / h * rows_) : 0;
  col = std::clamp(col, 0, cols_ - 1);
  row = std::clamp(row, 0, rows_ - 1);
  return row * cols_ + col;
}

int64_t GridHistogram::TotalCount() const {
  int64_t total = 0;
  for (int64_t c : counts_) total += c;
  return total;
}

int64_t GridHistogram::MaxCount() const {
  int64_t max = 0;
  for (int64_t c : counts_) max = std::max(max, c);
  return max;
}

std::vector<Point> GridHistogram::ToWeightedSample(size_t target_size) const {
  const int64_t total = TotalCount();
  std::vector<Point> sample;
  if (total == 0 || target_size == 0) return sample;
  sample.reserve(target_size + static_cast<size_t>(cols_) * rows_);
  const double cell_w = space_.Width() / cols_;
  const double cell_h = space_.Height() / rows_;
  for (int row = 0; row < rows_; ++row) {
    for (int col = 0; col < cols_; ++col) {
      const int64_t count = At(col, row);
      if (count == 0) continue;
      const size_t copies = std::max<size_t>(
          1, static_cast<size_t>(count * static_cast<double>(target_size) /
                                 total));
      const Point center(space_.min_x() + (col + 0.5) * cell_w,
                         space_.min_y() + (row + 0.5) * cell_h);
      for (size_t i = 0; i < copies; ++i) sample.push_back(center);
    }
  }
  return sample;
}

Result<GridHistogram> ComputeGridHistogram(mapreduce::JobRunner* runner,
                                           const std::string& path,
                                           index::ShapeType shape,
                                           const Envelope& space, int cols,
                                           int rows, OpStats* stats) {
  if (cols < 1 || rows < 1) {
    return Status::InvalidArgument("histogram needs cols, rows >= 1");
  }
  if (space.IsEmpty()) {
    return Status::InvalidArgument("histogram needs a non-empty space");
  }
  GridHistogram grid(cols, rows, space);
  SHADOOP_ASSIGN_OR_RETURN(
      JobResult result,
      SpatialJobBuilder(runner)
          .Name("grid-histogram")
          .ScanFile(path)
          .Map([shape, grid]() {
            return std::make_unique<HistogramMapper>(shape, grid);
          })
          .Combine([]() { return std::make_unique<SumPerCellReducer>(false); })
          .Reduce([]() { return std::make_unique<SumPerCellReducer>(true); },
                  runner->cluster().num_slots)
          .Run(stats));

  GridHistogram histogram(cols, rows, space);
  for (const std::string& line : result.output) {
    auto fields = SplitString(line, ',');
    if (fields.size() != 2) {
      return Status::Internal("bad histogram line: " + line);
    }
    SHADOOP_ASSIGN_OR_RETURN(int64_t cell, ParseInt64(fields[0]));
    SHADOOP_ASSIGN_OR_RETURN(int64_t count, ParseInt64(fields[1]));
    if (cell < 0 || cell >= static_cast<int64_t>(cols) * rows) {
      return Status::Internal("histogram cell out of range: " + line);
    }
    histogram.Add(static_cast<int>(cell % cols), static_cast<int>(cell / cols),
                  count);
  }
  return histogram;
}

}  // namespace shadoop::core
