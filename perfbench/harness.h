// Measurement helpers of the repository benchmark: nearest-rank
// percentiles with the ten-samples-beyond rule, an in-memory span tracer
// with self-time accounting, order-independent row digests and a
// host-speed probe. Header
// only, with no dependency on the library, so selftest.cc can check each
// helper on its own.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

// ---------------------------------------------------------------------
// Percentiles.

/// Nearest-rank percentile of an ascending sample: the value at rank
/// ceil(p/100 * n), ranks counted from 1. NaN for an empty sample.
inline double NearestRank(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return std::nan("");
  const double exact = std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
  size_t rank = exact < 1 ? 1 : static_cast<size_t>(exact);
  rank = std::min(rank, sorted.size());
  return sorted[rank - 1];
}

/// Samples strictly above the nearest-rank position of `p`.
inline size_t SamplesBeyond(size_t n, double p) {
  if (n == 0) return 0;
  const double exact = std::ceil(p / 100.0 * static_cast<double>(n));
  const size_t rank = std::min(n, exact < 1 ? size_t{1} : static_cast<size_t>(exact));
  return n - rank;
}

/// The reporting rule: a percentile may be reported only when at least
/// ten samples lie beyond it, so p90 needs 100 samples and p99 needs 1000.
inline constexpr size_t kMinSamplesBeyond = 10;

inline bool PercentileSupported(size_t n, double p) {
  return SamplesBeyond(n, p) >= kMinSamplesBeyond;
}

inline double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return NearestRank(values, 50);
}

// ---------------------------------------------------------------------
// Clock.

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double NsToMs(int64_t ns) { return static_cast<double>(ns) / 1e6; }

// ---------------------------------------------------------------------
// Spans.

/// Process-wide counters snapshotted at span boundaries. Which counters
/// exist is the driver's business; the tracer only stores them.
struct CounterSnapshot {
  uint64_t parses = 0;
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
  uint64_t blocks_read = 0;
};

/// One timed interval. `parent` indexes the same thread's span list (-1
/// for an op root). `external_child_ms` is time spent in a child that has
/// no span of its own but reports its wall time — the job runner's
/// OpStats::wall_ms — and is subtracted from self time like a child span.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
  int64_t op = -1;
  int thread = 0;
  double external_child_ms = 0;
  CounterSnapshot at_start;
  CounterSnapshot at_end;

  double DurationMs() const { return NsToMs(end_ns - start_ns); }
};

/// Self time of spans[index]: its duration minus the union of its child
/// spans' intervals (clipped to it) minus its external child time.
inline double SelfMs(const std::vector<Span>& spans, size_t index) {
  const Span& span = spans[index];
  std::vector<std::pair<int64_t, int64_t>> children;
  for (const Span& s : spans) {
    if (s.parent != static_cast<int>(index)) continue;
    const int64_t lo = std::max(s.start_ns, span.start_ns);
    const int64_t hi = std::min(s.end_ns, span.end_ns);
    if (hi > lo) children.emplace_back(lo, hi);
  }
  std::sort(children.begin(), children.end());
  int64_t covered = 0;
  int64_t run_lo = 0;
  int64_t run_hi = 0;
  bool open = false;
  for (const auto& [lo, hi] : children) {
    if (open && lo <= run_hi) {
      run_hi = std::max(run_hi, hi);
      continue;
    }
    if (open) covered += run_hi - run_lo;
    run_lo = lo;
    run_hi = hi;
    open = true;
  }
  if (open) covered += run_hi - run_lo;
  return NsToMs(span.end_ns - span.start_ns - covered) - span.external_child_ms;
}

/// Span recorder for one client thread. It snapshots the counters with
/// `snap` at every span boundary. Spans stay in memory until the run ends.
/// The untraced pass never calls it (the driver tests a flag first), so it
/// pays one branch per span site.
///
/// The recorder times itself: overhead_ns() is the time spent inside Begin
/// and End, counter snapshots included. That is the whole cost tracing adds
/// to an op, measured in the traced pass itself, so host drift between two
/// passes does not enter it.
class SpanRecorder {
 public:
  using Snap = std::function<CounterSnapshot()>;

  SpanRecorder(int thread, Snap snap) : thread_(thread), snap_(std::move(snap)) {}

  int Begin(const char* name, int64_t op, int parent) {
    const int64_t entry = NowNs();
    Span span;
    span.name = name;
    span.op = op;
    span.parent = parent;
    span.thread = thread_;
    span.at_start = snap_();
    span.start_ns = NowNs();
    spans_.push_back(span);
    overhead_ns_ += NowNs() - entry;
    return static_cast<int>(spans_.size()) - 1;
  }

  void End(int index, double external_child_ms = 0) {
    Span& span = spans_[static_cast<size_t>(index)];
    span.end_ns = NowNs();
    span.at_end = snap_();
    span.external_child_ms = external_child_ms;
    overhead_ns_ += NowNs() - span.end_ns;
  }

  const std::vector<Span>& spans() const { return spans_; }
  int64_t overhead_ns() const { return overhead_ns_; }

 private:
  int thread_;
  Snap snap_;
  std::vector<Span> spans_;
  int64_t overhead_ns_ = 0;
};

/// Mean self time and mean duration of every span named `name`.
struct SpanSummary {
  size_t count = 0;
  double mean_ms = 0;
  double mean_self_ms = 0;
};

inline SpanSummary Summarize(const std::vector<Span>& spans,
                             std::string_view name) {
  SpanSummary out;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (name != spans[i].name) continue;
    ++out.count;
    out.mean_ms += spans[i].DurationMs();
    out.mean_self_ms += SelfMs(spans, i);
  }
  if (out.count > 0) {
    out.mean_ms /= static_cast<double>(out.count);
    out.mean_self_ms /= static_cast<double>(out.count);
  }
  return out;
}

// ---------------------------------------------------------------------
// Row digests.

inline uint64_t Fnv1a(std::string_view text) {
  uint64_t h = 1469598103934665603ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

inline uint64_t Mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

/// Order-independent digest of a multiset of rows: the row count and the
/// wrapping sum of mixed per-row hashes. Two results agree exactly when
/// they hold the same rows, up to a 64-bit hash collision.
struct RowDigest {
  uint64_t count = 0;
  uint64_t sum = 0;

  void Add(std::string_view row) { AddHash(Mix64(Fnv1a(row))); }
  void AddHash(uint64_t mixed) {
    ++count;
    sum += mixed;
  }
  friend bool operator==(const RowDigest& a, const RowDigest& b) {
    return a.count == b.count && a.sum == b.sum;
  }
};

// ---------------------------------------------------------------------
// Host-speed probe.

/// Wall time of a fixed amount of single-threaded work: a dependent chain
/// of integer mixes that allocates nothing, so peak_rss_mb does not see
/// it. Nothing in it depends on the library, so it moves only when the
/// host does; the driver scales its host-time metrics by it (EndToEndOf).
inline double HostProbeMs() {
  const int64_t t0 = NowNs();
  uint64_t x = 1;
  for (uint64_t i = 0; i < (uint64_t{1} << 22); ++i) x = Mix64(x + i);
  // The empty asm statement consumes x, so the loop is neither optimised
  // away nor moved past the clock read.
  asm volatile("" : "+r"(x));
  return NsToMs(NowNs() - t0);
}

// ---------------------------------------------------------------------
// Output.

/// Full-precision rendering of a measured number.
inline std::string Num(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
