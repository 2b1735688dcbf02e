#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include "cpu_affinity.h"
#include "golden_workload.h"

namespace shadoop::testing {
namespace {

std::vector<std::string> ReadGolden() {
  std::ifstream in(std::string(SHADOOP_GOLDEN_DIR) + "/ops.golden");
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

/// Runs the golden workload and diffs it against the committed baseline.
void ExpectGoldenParity() {
  const std::vector<std::string> golden = ReadGolden();
  ASSERT_FALSE(golden.empty())
      << "missing golden file " << SHADOOP_GOLDEN_DIR << "/ops.golden";
  GoldenWorkload workload;
  const std::vector<std::string> actual = workload.Run();

  // Line-by-line diff with the surrounding operation named, so a mismatch
  // reports which operation diverged instead of a giant blob.
  std::string current_op = "?";
  size_t mismatches = 0;
  const size_t n = std::min(golden.size(), actual.size());
  for (size_t i = 0; i < n; ++i) {
    if (golden[i].rfind("== ", 0) == 0) current_op = golden[i].substr(3);
    if (golden[i] != actual[i] && ++mismatches <= 10) {
      ADD_FAILURE() << "parity break in operation '" << current_op
                    << "' at line " << i + 1 << "\n  golden: " << golden[i]
                    << "\n  actual: " << actual[i];
    }
  }
  EXPECT_EQ(golden.size(), actual.size());
  EXPECT_EQ(mismatches, 0u);
}

/// Byte-level parity against the committed baseline captured from the
/// pre-pipeline implementation: every operation's output rows, record
/// counters, and simulated JobCost must be reproduced exactly by the
/// SpatialJobBuilder path. Regenerate with tools/golden_capture only for
/// intentional behavior changes.
TEST(ParityTest, AllOperationsMatchGoldenBaseline) { ExpectGoldenParity(); }

/// The same bytes at every lane count: ParallelFor gives this thread's
/// calls one lane per CPU in its affinity mask.
TEST(ParityTest, GoldenBytesHoldOnOneAndTwoCpus) {
  if (!kCanNarrowCpus) GTEST_SKIP() << "no CPU affinity masks";
  const size_t cpus = CallerCpuCount();
  for (size_t narrow : {size_t{1}, size_t{2}}) {
    if (narrow > cpus) continue;
    SCOPED_TRACE("narrowed to " + std::to_string(narrow) + " CPU(s)");
    const ScopedCpus scoped(narrow);
    ExpectGoldenParity();
  }
}

}  // namespace
}  // namespace shadoop::testing
