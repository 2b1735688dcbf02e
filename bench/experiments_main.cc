// Regenerates the tables of EXPERIMENTS.md: runs experiments E1-E13 at
// full scale and prints one line per row, `label name=value ...`. The
// values are simulated and the same on every machine; a trailing
// `host_ms=` is host wall time, which no claim reads. Takes no arguments:
//
//   build/bench/experiments

#include <cstdio>

#include "experiments.h"

namespace {

void Print(const char* title, const shadoop::bench::Rows& rows) {
  std::printf("## %s\n", title);
  for (const shadoop::bench::Row& row : rows) {
    std::printf("%-38s", row.label.c_str());
    for (const auto& [name, value] : row.values) {
      std::printf(" %s=%.6g", name.c_str(), value);
    }
    if (row.host_ms >= 0) std::printf(" host_ms=%.4g", row.host_ms);
    std::printf("\n");
  }
  std::printf("\n");
  std::fflush(stdout);
}

}  // namespace

int main() {
  namespace bench = shadoop::bench;
  Print("E1 index build time", bench::E1IndexBuild(1));
  Print("E2 partition quality", bench::E2IndexQuality(1));
  Print("E3 range query", bench::E3RangeQuery(1));
  Print("E4 k-nearest neighbors", bench::E4Knn(1));
  Print("E5 spatial join", bench::E5SpatialJoin(1));
  Print("E6 computational-geometry operations", bench::E6CgOps(1));
  Print("E7 scale-out", bench::E7Scaleout(1));
  Print("E8 block-size sensitivity", bench::E8BlockSize(1));
  Print("E9 Pigeon overhead", bench::E9Pigeon(1));
  Print("E10 visualization", bench::E10Plot(1));
  Print("E11 aggregate COUNT", bench::E11Aggregate(1));
  Print("E12 ablations", bench::E12Ablation(1));
  Print("E13 kNN join", bench::E13KnnJoin(1));
  return 0;
}
