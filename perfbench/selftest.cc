// Self-tests of the benchmark's helpers: nearest-rank percentiles and the
// ten-samples-beyond rule, self time from nested spans, row digests, and
// the oracles against brute force. `python3 perfbench/run.py --selftest`
// builds and runs this, then checks that a planted wrong oracle value
// fails a driver run.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "harness.h"
#include "oracle.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

void TestPercentiles() {
  const std::vector<double> hundred = OneTo(100);
  Expect(NearestRank(hundred, 50) == 50, "p50 of 1..100 is 50");
  Expect(NearestRank(hundred, 90) == 90, "p90 of 1..100 is 90");
  Expect(NearestRank(hundred, 99) == 99, "p99 of 1..100 is 99");
  Expect(NearestRank(hundred, 100) == 100, "p100 is the maximum");
  Expect(NearestRank(hundred, 0) == 1, "p0 is the minimum");
  Expect(NearestRank(OneTo(101), 50) == 51, "p50 of 1..101 is the middle");
  Expect(NearestRank(OneTo(10), 95) == 10, "p95 of ten samples rounds up");
  Expect(std::isnan(NearestRank({}, 50)), "empty sample has no percentile");

  Expect(SamplesBeyond(100, 90) == 10, "p90 of 100 leaves 10 beyond");
  Expect(PercentileSupported(100, 90), "p90 needs 100 samples: 100 ok");
  Expect(!PercentileSupported(99, 90), "p90 needs 100 samples: 99 not");
  Expect(PercentileSupported(1000, 99), "p99 needs 1000 samples: 1000 ok");
  Expect(!PercentileSupported(999, 99), "p99 needs 1000 samples: 999 not");
  Expect(PercentileSupported(150, 90) && !PercentileSupported(150, 99),
         "150 samples support p90, not p99");
  Expect(Median({3, 1, 2}) == 2, "median sorts its input");
}

Span MakeSpan(int64_t start_ms, int64_t end_ms, int parent,
              double external_ms = 0) {
  Span s;
  s.start_ns = start_ms * 1000000;
  s.end_ns = end_ms * 1000000;
  s.parent = parent;
  s.external_child_ms = external_ms;
  return s;
}

void TestSelfTime() {
  // op [0,100] with children [10,30] and [20,50] (overlapping: union 40)
  // and a grandchild [12,18] under the first child.
  std::vector<Span> spans = {MakeSpan(0, 100, -1), MakeSpan(10, 30, 0),
                             MakeSpan(20, 50, 0), MakeSpan(12, 18, 1)};
  Expect(SelfMs(spans, 0) == 60, "self time subtracts the union of children");
  Expect(SelfMs(spans, 1) == 14, "grandchildren count only for their parent");
  Expect(SelfMs(spans, 3) == 6, "a leaf's self time is its duration");

  // External child time (the job runner's OpStats::wall_ms) is subtracted
  // like a child span.
  spans[2].external_child_ms = 25;
  Expect(SelfMs(spans, 2) == 5, "external child time is subtracted");

  // A child overrunning its parent counts only inside the parent.
  std::vector<Span> overrun = {MakeSpan(0, 10, -1), MakeSpan(5, 20, 0)};
  Expect(SelfMs(overrun, 0) == 5, "children are clipped to the parent");

  // Disjoint children add up.
  std::vector<Span> disjoint = {MakeSpan(0, 100, -1), MakeSpan(0, 10, 0),
                                MakeSpan(50, 70, 0), MakeSpan(90, 100, 0)};
  Expect(SelfMs(disjoint, 0) == 60, "disjoint children add up");

  uint64_t parses = 0;
  SpanRecorder rec(3, [&parses] { return CounterSnapshot{parses, 0, 0, 0}; });
  const int op = rec.Begin("op", 7, -1);
  const int child = rec.Begin("child", 7, op);
  parses = 5;
  rec.End(child, 0.5);
  rec.End(op);
  const SpanSummary summary = Summarize(rec.spans(), "child");
  const Span& c = rec.spans()[1];
  Expect(rec.spans().size() == 2 && c.parent == op && c.thread == 3 &&
             c.at_start.parses == 0 && c.at_end.parses == 5 && summary.count == 1,
         "recorder keeps parent, thread and counters");

  // A snapshot that takes 1 ms: four span boundaries cost at least 4 ms.
  SpanRecorder slow(0, [] {
    const int64_t until = NowNs() + 1000000;
    while (NowNs() < until) {
    }
    return CounterSnapshot{};
  });
  slow.End(slow.Begin("op", 0, -1));
  slow.End(slow.Begin("op", 1, -1));
  Expect(slow.overhead_ns() >= 4000000 && slow.overhead_ns() < 100000000,
         "recorder overhead counts its counter snapshots");
}

void TestDigest() {
  RowDigest a;
  RowDigest b;
  for (const char* row : {"1,2", "3,4", "5,6"}) a.Add(row);
  for (const char* row : {"5,6", "1,2", "3,4"}) b.Add(row);
  Expect(a == b, "digest ignores row order");
  RowDigest c;
  for (const char* row : {"1,2", "3,4", "5,7"}) c.Add(row);
  Expect(!(a == c), "digest sees a changed row");
  RowDigest d = a;
  d.Add("1,2");
  Expect(!(a == d), "digest sees a duplicated row");
}

uint64_t Lcg(uint64_t* state) {
  *state = *state * 6364136223846793005ULL + 1442695040888963407ULL;
  return *state >> 11;
}

double Unit(uint64_t* state) {
  return static_cast<double>(Lcg(state)) / static_cast<double>(1ULL << 53);
}

void TestPointOracle() {
  using oracle::Box;
  using oracle::Pt;
  uint64_t state = 42;
  std::vector<std::string> records;
  std::vector<Pt> points;
  std::vector<uint32_t> generation;
  oracle::PointOracle grid(Box{0, 0, 1000, 1000}, 16);
  for (int i = 0; i < 3000; ++i) {
    // Half the points crowd into one corner, as clustered data does.
    const double scale = i % 2 == 0 ? 1000 : 150;
    const Pt p{Unit(&state) * scale, Unit(&state) * scale};
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g,%.17g", p.x, p.y);
    records.push_back(buf);
    oracle::ParsePointRecord(buf, &points.emplace_back());
    generation.push_back(i < 2000 ? 0 : 1 + static_cast<uint32_t>(i % 3));
    grid.Add(records.back(), generation.back());
  }
  grid.Seal();
  bool range_ok = true;
  bool knn_ok = true;
  for (int q = 0; q < 200; ++q) {
    const uint32_t version = 1 + static_cast<uint32_t>(q % 4);
    const double x = Unit(&state) * 1000;
    const double y = Unit(&state) * 1000;
    const double w = Unit(&state) * 200;
    const Box window{x - w, y - w, x + w, y + w};
    RowDigest brute;
    std::vector<double> dist;
    for (size_t i = 0; i < points.size(); ++i) {
      if (generation[i] >= version) continue;
      if (window.Contains(points[i])) brute.Add(records[i]);
      dist.push_back(oracle::Distance(points[i], Pt{x, y}));
    }
    std::sort(dist.begin(), dist.end());
    range_ok = range_ok && grid.Range(window, version) == brute;
    knn_ok = knn_ok && grid.KthDistance(Pt{x, y}, 10, version) == dist[9];
  }
  Expect(range_ok, "grid range digests match brute force per version");
  Expect(knn_ok, "grid k-th distances match brute force per version");
}

std::vector<oracle::Pt> Square(double x, double y, double side) {
  return {{x, y}, {x + side, y}, {x + side, y + side}, {x, y + side}};
}

void TestPolygonOracle() {
  using oracle::RingsIntersect;
  Expect(RingsIntersect(Square(0, 0, 2), Square(1, 1, 2)), "overlapping squares");
  Expect(RingsIntersect(Square(0, 0, 2), Square(2, 0, 2)), "touching edges intersect");
  Expect(RingsIntersect(Square(0, 0, 10), Square(4, 4, 1)), "containment intersects");
  Expect(!RingsIntersect(Square(0, 0, 1), Square(3, 3, 1)), "disjoint squares");
  // A triangle whose box overlaps the square but whose area does not.
  const std::vector<oracle::Pt> tri = {{2, 0}, {4, 0}, {4, 2}};
  Expect(!RingsIntersect(Square(0, 1, 2.5), tri), "box overlap is not enough");

  uint64_t state = 7;
  std::vector<std::vector<oracle::Pt>> a;
  std::vector<std::vector<oracle::Pt>> b;
  for (int i = 0; i < 150; ++i) {
    a.push_back(Square(Unit(&state) * 100, Unit(&state) * 100, 1 + Unit(&state) * 8));
    b.push_back(Square(Unit(&state) * 100, Unit(&state) * 100, 1 + Unit(&state) * 8));
  }
  uint64_t brute = 0;
  for (const auto& ra : a) {
    for (const auto& rb : b) brute += RingsIntersect(ra, rb) ? 1 : 0;
  }
  Expect(oracle::CountIntersectingPairs(a, b) == brute,
         "grid pair count matches the quadratic count");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestPercentiles();
  perfbench::TestSelfTime();
  perfbench::TestDigest();
  perfbench::TestPointOracle();
  perfbench::TestPolygonOracle();
  std::printf("%d failure(s)\n", perfbench::failures);
  return perfbench::failures == 0 ? 0 : 1;
}
