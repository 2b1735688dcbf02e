#ifndef SHADOOP_BENCH_EXPERIMENTS_H_
#define SHADOOP_BENCH_EXPERIMENTS_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace shadoop::bench {

/// One configuration of an experiment: a label naming the sweep point
/// (e.g. "JoinDjStr/20000") and its simulated values, in print order.
/// Simulated values are deterministic; `host_ms` is not.
struct Row {
  explicit Row(std::string label) : label(std::move(label)) {}

  /// Appends the value `name`.
  Row& Set(std::string name, double value);
  /// The value `name`; aborts when the row has none.
  double operator[](std::string_view name) const;

  std::string label;
  std::vector<std::pair<std::string, double>> values;
  /// Host wall time of the measured call in ms, or negative when the row
  /// is not timed. Machine-dependent, so no claim reads it.
  double host_ms = -1;
};

using Rows = std::vector<Row>;

/// The size a dataset of `full` records has at `scale`. Labels that name
/// a dataset size print this.
size_t Scaled(size_t full, double scale);

/// The experiments of EXPERIMENTS.md, one function each. `scale`
/// multiplies every dataset size: 1 gives the sizes EXPERIMENTS.md
/// reports. Sweep parameters (query areas, k, slots, block sizes) do not
/// scale. Labels carry the scaled size where the sweep varies it.
Rows E1IndexBuild(double scale);
Rows E2IndexQuality(double scale);
Rows E3RangeQuery(double scale);
Rows E4Knn(double scale);
Rows E5SpatialJoin(double scale);
Rows E6CgOps(double scale);
Rows E7Scaleout(double scale);
Rows E8BlockSize(double scale);
Rows E9Pigeon(double scale);
Rows E10Plot(double scale);
Rows E11Aggregate(double scale);
Rows E12Ablation(double scale);
Rows E13KnnJoin(double scale);

}  // namespace shadoop::bench

#endif  // SHADOOP_BENCH_EXPERIMENTS_H_
