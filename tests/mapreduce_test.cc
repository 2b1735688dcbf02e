#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/string_util.h"
#include "fault/fault_injector.h"
#include "mapreduce/cluster.h"
#include "mapreduce/job_runner.h"
#include "mapreduce/shuffle_sort.h"
#include "test_util.h"

namespace shadoop::mapreduce {
namespace {

/// Classic word count: validates map -> shuffle -> reduce plumbing.
class WordCountMapper : public Mapper {
 public:
  void Map(std::string_view record, MapContext& ctx) override {
    for (std::string_view word : SplitWhitespace(record)) {
      ctx.Emit(std::string(word), "1");
    }
  }
};

class SumReducer : public Reducer {
 public:
  void Reduce(std::string_view key, std::span<const std::string_view> values,
              ReduceContext& ctx) override {
    ctx.Write(std::string(key) + "=" + std::to_string(values.size()));
  }
};

JobConfig WordCountJob(hdfs::FileSystem& fs, const std::string& path,
                       int num_reducers) {
  JobConfig job;
  job.name = "wordcount";
  job.splits = MakeBlockSplits(fs, path).ValueOrDie();
  job.mapper = []() { return std::make_unique<WordCountMapper>(); };
  job.reducer = []() { return std::make_unique<SumReducer>(); };
  job.num_reducers = num_reducers;
  return job;
}

TEST(MapReduceTest, WordCount) {
  testing::TestCluster cluster;
  ASSERT_TRUE(cluster.fs
                  .WriteLines("/text", {"a b a", "c b", "a"})
                  .ok());
  JobResult result = cluster.runner.Run(WordCountJob(cluster.fs, "/text", 1));
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.output, (std::vector<std::string>{"a=3", "b=2", "c=1"}));
}

TEST(MapReduceTest, MultipleReducersProduceSameGroups) {
  testing::TestCluster cluster;
  std::vector<std::string> lines;
  for (int i = 0; i < 200; ++i) {
    lines.push_back("w" + std::to_string(i % 17));
  }
  ASSERT_TRUE(cluster.fs.WriteLines("/text", lines).ok());
  JobResult r1 = cluster.runner.Run(WordCountJob(cluster.fs, "/text", 1));
  JobResult r5 = cluster.runner.Run(WordCountJob(cluster.fs, "/text", 5));
  ASSERT_TRUE(r1.status.ok());
  ASSERT_TRUE(r5.status.ok());
  std::vector<std::string> a = r1.output;
  std::vector<std::string> b = r5.output;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 17u);
}

TEST(MapReduceTest, CombinerReducesShuffleBytes) {
  testing::TestCluster cluster;
  std::vector<std::string> lines(500, "x y x");
  ASSERT_TRUE(cluster.fs.WriteLines("/text", lines).ok());

  JobConfig plain = WordCountJob(cluster.fs, "/text", 1);
  JobResult without = cluster.runner.Run(plain);
  ASSERT_TRUE(without.status.ok());

  // A count-preserving combiner: re-emits one value per occurrence count.
  class CountCombiner : public Reducer {
   public:
    void Reduce(std::string_view key, std::span<const std::string_view> values,
                ReduceContext& ctx) override {
      (void)key;
      ctx.Write(std::to_string(values.size()));
    }
  };
  class WeightedSumReducer : public Reducer {
   public:
    void Reduce(std::string_view key, std::span<const std::string_view> values,
                ReduceContext& ctx) override {
      int64_t total = 0;
      for (std::string_view v : values) {
        total += ParseInt64(v).ValueOrDie();
      }
      ctx.Write(std::string(key) + "=" + std::to_string(total));
    }
  };
  JobConfig combined = WordCountJob(cluster.fs, "/text", 1);
  combined.combiner = []() { return std::make_unique<CountCombiner>(); };
  combined.reducer = []() { return std::make_unique<WeightedSumReducer>(); };
  JobResult with = cluster.runner.Run(combined);
  ASSERT_TRUE(with.status.ok());

  EXPECT_EQ(with.output, (std::vector<std::string>{"x=1000", "y=500"}));
  EXPECT_LT(with.cost.bytes_shuffled, without.cost.bytes_shuffled / 10);
}

TEST(MapReduceTest, MapOnlyJobWritesDirectOutput) {
  testing::TestCluster cluster;
  ASSERT_TRUE(cluster.fs.WriteLines("/in", {"1", "2", "3"}).ok());
  class PassMapper : public Mapper {
   public:
    void Map(std::string_view record, MapContext& ctx) override {
      ctx.WriteOutput("out:" + std::string(record));
    }
  };
  JobConfig job;
  job.splits = MakeBlockSplits(cluster.fs, "/in").ValueOrDie();
  job.mapper = []() { return std::make_unique<PassMapper>(); };
  JobResult result = cluster.runner.Run(job);
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.cost.num_reduce_tasks, 0);
  EXPECT_EQ(result.output,
            (std::vector<std::string>{"out:1", "out:2", "out:3"}));
}

TEST(MapReduceTest, InjectedFaultIsRetried) {
  testing::TestCluster cluster;
  ASSERT_TRUE(cluster.fs.WriteLines("/in", {"r"}).ok());
  class PassMapper : public Mapper {
   public:
    void Map(std::string_view record, MapContext& ctx) override {
      ctx.WriteOutput(std::string(record));
    }
  };
  JobConfig job;
  job.splits = MakeBlockSplits(cluster.fs, "/in").ValueOrDie();
  job.mapper = []() { return std::make_unique<PassMapper>(); };
  fault::FaultPolicy policy;
  policy.seed = 4;
  policy.map_failure_prob = 0.5;
  fault::FaultInjector injector(policy);
  // Under this seed the first attempt fails and the second commits.
  ASSERT_TRUE(
      injector.ShouldFailAttempt(fault::TaskKind::kMap, job.name, 0, 1));
  ASSERT_FALSE(
      injector.ShouldFailAttempt(fault::TaskKind::kMap, job.name, 0, 2));
  cluster.runner.set_fault_injector(&injector);
  JobResult result = cluster.runner.Run(job);
  cluster.runner.set_fault_injector(nullptr);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.cost.task_retries, 1);
  EXPECT_EQ(result.output, std::vector<std::string>{"r"});
}

TEST(MapReduceTest, PersistentFaultFailsTheJob) {
  testing::TestCluster cluster;
  ASSERT_TRUE(cluster.fs.WriteLines("/in", {"r"}).ok());
  class PassMapper : public Mapper {
   public:
    void Map(std::string_view record, MapContext& ctx) override {
      ctx.WriteOutput(std::string(record));
    }
  };
  JobConfig job;
  job.splits = MakeBlockSplits(cluster.fs, "/in").ValueOrDie();
  job.mapper = []() { return std::make_unique<PassMapper>(); };
  fault::FaultPolicy policy;
  policy.map_failure_prob = 1.0;  // Every attempt fails.
  fault::FaultInjector injector(policy);
  cluster.runner.set_fault_injector(&injector);
  JobResult result = cluster.runner.Run(job);
  cluster.runner.set_fault_injector(nullptr);
  EXPECT_TRUE(result.status.IsIoError());
}

TEST(MapReduceTest, UserFailureSurfacesStatus) {
  testing::TestCluster cluster;
  ASSERT_TRUE(cluster.fs.WriteLines("/in", {"bad"}).ok());
  class FailMapper : public Mapper {
   public:
    void Map(std::string_view record, MapContext& ctx) override {
      ctx.Fail(Status::ParseError("cannot parse " + std::string(record)));
    }
  };
  JobConfig job;
  job.splits = MakeBlockSplits(cluster.fs, "/in").ValueOrDie();
  job.mapper = []() { return std::make_unique<FailMapper>(); };
  JobResult result = cluster.runner.Run(job);
  EXPECT_TRUE(result.status.IsParseError());

  // A per-record mapper that fails on record k of a block sees records
  // 0..k and nothing after: the default Mapper::MapBlock stops there, and
  // the failed task never reaches EndSplit.
  ASSERT_TRUE(
      cluster.fs.WriteLines("/ten", {"r0", "r1", "r2", "r3", "r4", "r5", "r6",
                                     "r7", "r8", "r9"})
          .ok());
  struct Seen {
    std::vector<std::string> records;
    bool ended = false;
  };
  class FailAtMapper : public Mapper {
   public:
    FailAtMapper(Seen* seen, std::string fail_on)
        : seen_(seen), fail_on_(std::move(fail_on)) {}
    void Map(std::string_view record, MapContext& ctx) override {
      seen_->records.emplace_back(record);
      if (record == fail_on_) ctx.Fail(Status::ParseError("bad record"));
    }
    void EndSplit(MapContext&) override { seen_->ended = true; }

   private:
    Seen* seen_;
    std::string fail_on_;
  };
  Seen seen;
  JobConfig fail_at;
  fail_at.splits = MakeBlockSplits(cluster.fs, "/ten").ValueOrDie();
  ASSERT_EQ(fail_at.splits.size(), 1u);
  fail_at.mapper = [&seen]() {
    return std::make_unique<FailAtMapper>(&seen, "r3");
  };
  result = cluster.runner.Run(fail_at);
  EXPECT_TRUE(result.status.IsParseError());
  EXPECT_EQ(seen.records, (std::vector<std::string>{"r0", "r1", "r2", "r3"}));
  EXPECT_FALSE(seen.ended);
}

TEST(MapReduceTest, CostModelChargesStartupAndScan) {
  testing::TestCluster cluster;
  std::vector<std::string> lines(2000, "0123456789");
  ASSERT_TRUE(cluster.fs.WriteLines("/in", lines).ok());
  class NullMapper : public Mapper {
   public:
    void Map(std::string_view, MapContext&) override {}
  };
  JobConfig job;
  job.splits = MakeBlockSplits(cluster.fs, "/in").ValueOrDie();
  job.mapper = []() { return std::make_unique<NullMapper>(); };
  JobResult result = cluster.runner.Run(job);
  ASSERT_TRUE(result.status.ok());
  const ClusterConfig& cfg = cluster.runner.cluster();
  EXPECT_GE(result.cost.total_ms, cfg.job_startup_ms);
  EXPECT_EQ(result.cost.bytes_read, 2000u * 11);
  EXPECT_GT(result.cost.map_makespan_ms, cfg.task_startup_ms);
}

TEST(MapReduceTest, SimulatedCostIsDeterministic) {
  testing::TestCluster cluster;
  std::vector<std::string> lines(300, "a b c d");
  ASSERT_TRUE(cluster.fs.WriteLines("/in", lines).ok());
  JobResult r1 = cluster.runner.Run(WordCountJob(cluster.fs, "/in", 3));
  JobResult r2 = cluster.runner.Run(WordCountJob(cluster.fs, "/in", 3));
  ASSERT_TRUE(r1.status.ok());
  ASSERT_TRUE(r2.status.ok());
  EXPECT_DOUBLE_EQ(r1.cost.total_ms, r2.cost.total_ms);
  EXPECT_EQ(r1.output, r2.output);
}

/// Emits three pairs per record under keys shared by every map task, with
/// values of varying length, so reduce inputs interleave pairs from many
/// tasks and byte order differs from numeric order for keys and values.
class SpreadMapper : public Mapper {
 public:
  void Map(std::string_view record, MapContext& ctx) override {
    const int64_t n = ParseInt64(record).ValueOrDie();
    for (int64_t j = 0; j < 3; ++j) {
      ctx.Emit("k" + std::to_string((n * 7 + j * 5) % 23),
               std::to_string((n * 7919 + j * 104729) % 100003));
    }
  }
};

/// Writes one line per group ("key=v1,v2,...") and a "#end" line per
/// reduce task, so the output shows each task's groups in arrival order.
class GroupEchoReducer : public Reducer {
 public:
  void Reduce(std::string_view key, std::span<const std::string_view> values,
              ReduceContext& ctx) override {
    std::string line = std::string(key) + "=";
    for (size_t i = 0; i < values.size(); ++i) {
      if (i > 0) line += ",";
      line += values[i];
    }
    ctx.Write(line);
  }
  void Finish(ReduceContext& ctx) override { ctx.Write("#end"); }
};

TEST(MapReduceTest, ShuffleDeliversKeyOrderedGroupsWithByteOrderedValues) {
  // A 256-byte block size spreads 4,000 records over more than 64 splits.
  testing::TestCluster cluster(/*block_size=*/256);
  std::vector<std::string> lines;
  std::map<std::string, std::vector<std::string>> expected;
  for (int n = 0; n < 4000; ++n) {
    lines.push_back(std::to_string(n));
    for (int j = 0; j < 3; ++j) {
      expected["k" + std::to_string((n * 7 + j * 5) % 23)].push_back(
          std::to_string((n * 7919 + j * 104729) % 100003));
    }
  }
  for (auto& [key, values] : expected) std::sort(values.begin(), values.end());
  ASSERT_TRUE(cluster.fs.WriteLines("/in", lines).ok());

  constexpr int kReducers = 5;
  JobConfig job;
  job.name = "shuffle-order";
  job.splits = MakeBlockSplits(cluster.fs, "/in").ValueOrDie();
  ASSERT_GE(job.splits.size(), 64u);
  job.mapper = []() { return std::make_unique<SpreadMapper>(); };
  job.reducer = []() { return std::make_unique<GroupEchoReducer>(); };
  job.num_reducers = kReducers;

  const JobResult first = cluster.runner.Run(job);
  ASSERT_TRUE(first.status.ok()) << first.status.ToString();
  int reducer = 0;
  std::string previous_key;
  std::map<std::string, std::vector<std::string>> got;
  for (const std::string& line : first.output) {
    if (line == "#end") {
      ++reducer;
      previous_key.clear();
      continue;
    }
    const size_t eq = line.find('=');
    ASSERT_NE(eq, std::string::npos);
    const std::string key = line.substr(0, eq);
    EXPECT_EQ(HashPartition(key, kReducers), reducer) << key;
    EXPECT_LT(previous_key, key) << "reducer " << reducer;
    previous_key = key;
    std::vector<std::string> values;
    for (std::string_view v :
         SplitString(std::string_view(line).substr(eq + 1), ',')) {
      values.emplace_back(v);
    }
    EXPECT_TRUE(std::is_sorted(values.begin(), values.end())) << key;
    EXPECT_TRUE(got.emplace(key, std::move(values)).second) << key;
  }
  EXPECT_EQ(reducer, kReducers);
  EXPECT_EQ(got, expected);

  const JobResult second = cluster.runner.Run(job);
  ASSERT_TRUE(second.status.ok());
  EXPECT_EQ(second.output, first.output);
  EXPECT_EQ(second.cost.total_ms, first.cost.total_ms);
  EXPECT_EQ(second.cost.map_makespan_ms, first.cost.map_makespan_ms);
  EXPECT_EQ(second.cost.shuffle_ms, first.cost.shuffle_ms);
  EXPECT_EQ(second.cost.reduce_makespan_ms, first.cost.reduce_makespan_ms);
  EXPECT_EQ(second.cost.bytes_read, first.cost.bytes_read);
  EXPECT_EQ(second.cost.bytes_shuffled, first.cost.bytes_shuffled);
  EXPECT_EQ(second.cost.bytes_written, first.cost.bytes_written);
  EXPECT_EQ(second.cost.num_map_tasks, first.cost.num_map_tasks);
  EXPECT_EQ(second.cost.num_reduce_tasks, first.cost.num_reduce_tasks);
}

/// Crafted pairs for the shuffle sort: keys longer than 16 bytes that
/// share a 16-byte prefix, keys that differ only in length or by a
/// trailing '\0', bytes >= 0x80, empty keys and values, and values that
/// share their first 8 bytes.
std::vector<std::pair<std::string, std::string>> CraftedPairs() {
  using namespace std::string_literals;
  const std::string k16(16, 'k');
  const std::vector<std::string> keys = {
      ""s,        "a"s,           "a\0"s,        "a\0\0"s,
      "ab"s,      k16.substr(1),  k16,           k16 + "\0"s,
      k16 + "a"s, k16 + "a\0"s,   k16 + "b"s,    k16 + "\x80"s,
      "\x7f"s,    "\x80"s,        "\xff"s,       "\xff\xff"s,
      "a\x80"s,   "0000000007"s,  "0000000012"s, std::string(24, '\xff')};
  const std::vector<std::string> values = {
      ""s,          "\0"s,          "v"s,           "12345678"s,
      "1234567"s,   "12345678\0"s,  "12345678a"s,   "12345678a\0"s,
      "12345678b"s, "12345678\x90"s, "\x80\x81"s,    "\xff"s};
  std::vector<std::pair<std::string, std::string>> pairs;
  for (const std::string& key : keys) {
    for (const std::string& value : values) pairs.emplace_back(key, value);
  }
  // Duplicates: equal pairs must survive as separate values.
  pairs.emplace_back(k16 + "a", "12345678a");
  pairs.emplace_back("", "");
  return pairs;
}

std::string Hex(std::string_view bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (unsigned char c : bytes) {
    hex.push_back(kDigits[c >> 4]);
    hex.push_back(kDigits[c & 15]);
  }
  return hex;
}

/// Record n emits pair n.
class CraftedPairMapper : public Mapper {
 public:
  explicit CraftedPairMapper(
      const std::vector<std::pair<std::string, std::string>>* pairs)
      : pairs_(pairs) {}
  void Map(std::string_view record, MapContext& ctx) override {
    const auto& [key, value] = (*pairs_)[ParseInt64(record).ValueOrDie()];
    ctx.Emit(key, value);
  }

 private:
  const std::vector<std::pair<std::string, std::string>>* pairs_;
};

/// Re-emits every value, and fails the task unless its input arrives in
/// std::string pair order with one group per distinct key. One combiner
/// serves all of a map task's buckets, one after another, so key order is
/// checked per bucket (per reduce task).
class OrderCheckingCombiner : public Reducer {
 public:
  explicit OrderCheckingCombiner(int reducers) : reducers_(reducers) {}

  void Reduce(std::string_view key, std::span<const std::string_view> values,
              ReduceContext& ctx) override {
    const int bucket = HashPartition(key, reducers_);
    auto last = last_key_.find(bucket);
    if (last != last_key_.end() && std::string(key) <= last->second) {
      ctx.Fail(Status::Internal("combiner groups out of order"));
    }
    for (size_t i = 1; i < values.size(); ++i) {
      if (std::string(values[i]) < std::string(values[i - 1])) {
        ctx.Fail(Status::Internal("combiner values out of order"));
      }
    }
    last_key_[bucket] = std::string(key);
    for (std::string_view value : values) ctx.Write(std::string(value));
  }

 private:
  int reducers_;
  std::map<int, std::string> last_key_;  // Per bucket.
};

/// One "hex(key)|hex(value)" line per value, in arrival order, and "#end"
/// after each reduce task.
class PairEchoReducer : public Reducer {
 public:
  void Reduce(std::string_view key, std::span<const std::string_view> values,
              ReduceContext& ctx) override {
    for (std::string_view value : values) {
      ctx.Write(Hex(key) + "|" + Hex(value));
    }
  }
  void Finish(ReduceContext& ctx) override { ctx.Write("#end"); }
};

TEST(MapReduceTest, ShuffleOrderEqualsStringPairSort) {
  const std::vector<std::pair<std::string, std::string>> pairs =
      CraftedPairs();
  // Records in a shuffled order, over many small blocks: every reduce
  // input merges pairs from several map tasks.
  std::vector<std::string> lines;
  for (size_t n = 0; n < pairs.size(); ++n) lines.push_back(std::to_string(n));
  Random rng(5);
  for (size_t i = lines.size(); i > 1; --i) {
    std::swap(lines[i - 1], lines[rng.NextUint64(i)]);
  }
  testing::TestCluster cluster(/*block_size=*/64);
  ASSERT_TRUE(cluster.fs.WriteLines("/in", lines).ok());

  for (int reducers : {1, 3}) {
    for (bool combine : {false, true}) {
      SCOPED_TRACE(std::to_string(reducers) + " reducers" +
                   (combine ? ", combiner" : ""));
      std::vector<std::vector<std::pair<std::string, std::string>>> inputs(
          reducers);
      for (const auto& pair : pairs) {
        inputs[HashPartition(pair.first, reducers)].push_back(pair);
      }
      std::vector<std::string> expected;
      for (auto& input : inputs) {
        std::sort(input.begin(), input.end());
        for (const auto& [key, value] : input) {
          expected.push_back(Hex(key) + "|" + Hex(value));
        }
        expected.push_back("#end");
      }

      JobConfig job;
      job.name = "crafted-shuffle";
      job.splits = MakeBlockSplits(cluster.fs, "/in").ValueOrDie();
      ASSERT_GE(job.splits.size(), 4u);
      job.mapper = [&pairs]() {
        return std::make_unique<CraftedPairMapper>(&pairs);
      };
      if (combine) {
        job.combiner = [reducers]() {
          return std::make_unique<OrderCheckingCombiner>(reducers);
        };
      }
      job.reducer = []() { return std::make_unique<PairEchoReducer>(); };
      job.num_reducers = reducers;
      const JobResult result = cluster.runner.Run(job);
      ASSERT_TRUE(result.status.ok()) << result.status.ToString();
      EXPECT_EQ(result.output, expected);
    }
  }
}

// ---------------------------------------------------------------------
// SortRun against its oracle: std::sort with SortEntryLess.

/// Sorts `pairs` both ways and expects the same key and value at every
/// position, which is also std::pair<std::string, std::string> order.
void ExpectSortRunMatchesOracle(
    const std::vector<std::pair<std::string, std::string>>& pairs) {
  std::string buffer;  // Key bytes, then value bytes, as a map task's.
  std::vector<size_t> offsets;
  for (const auto& [key, value] : pairs) {
    offsets.push_back(buffer.size());
    buffer += key;
    buffer += value;
  }
  std::vector<ShuffleRef> run;
  for (size_t i = 0; i < pairs.size(); ++i) {
    run.push_back({buffer.data() + offsets[i],
                   static_cast<uint32_t>(pairs[i].first.size()),
                   static_cast<uint32_t>(pairs[i].second.size())});
  }
  std::vector<SortEntry> oracle(run.begin(), run.end());
  std::sort(oracle.begin(), oracle.end(), SortEntryLess);
  std::vector<std::pair<std::string, std::string>> sorted = pairs;
  std::sort(sorted.begin(), sorted.end());

  SortRun(&run);
  ASSERT_EQ(run.size(), oracle.size());
  for (size_t i = 0; i < run.size(); ++i) {
    ASSERT_EQ(run[i].key(), oracle[i].ref.key()) << "position " << i;
    ASSERT_EQ(run[i].value(), oracle[i].ref.value()) << "position " << i;
    ASSERT_EQ(run[i].key(), sorted[i].first) << "position " << i;
    ASSERT_EQ(run[i].value(), sorted[i].second) << "position " << i;
  }
}

/// `length` bytes drawn from the first `alphabet` bytes of a set that
/// includes '\0' and bytes >= 0x80; small alphabets force prefix ties.
std::string RandomBytes(Random& rng, size_t length, size_t alphabet) {
  static const char kBytes[] = {'0', '1', '\0', '\x80', 'a', '\xff', 'z', '9'};
  std::string out;
  for (size_t i = 0; i < length; ++i) {
    out.push_back(kBytes[rng.NextUint64(alphabet)]);
  }
  return out;
}

TEST(SortRunTest, SeededRunsMatchTheOracleOnBothSidesOfTheThreshold) {
  Random rng(29);
  for (size_t size : {size_t{0}, size_t{1}, size_t{2}, kRadixMinRun - 1,
                      kRadixMinRun, kRadixMinRun + 1, size_t{1000},
                      size_t{5000}}) {
    for (int shape = 0; shape < 4; ++shape) {
      SCOPED_TRACE("size " + std::to_string(size) + ", shape " +
                   std::to_string(shape));
      std::vector<std::pair<std::string, std::string>> pairs;
      for (size_t i = 0; i < size; ++i) {
        std::string key;
        std::string value;
        switch (shape) {
          case 0: {  // An index build: 10-digit cell ids, record values.
            char cell[11];
            std::snprintf(cell, sizeof(cell), "%010d",
                          static_cast<int>(rng.NextUint64(40)));
            key = cell;
            value = std::to_string(rng.NextDouble(0, 1e6)) + "," +
                    std::to_string(rng.NextDouble(0, 1e6));
            break;
          }
          case 1:  // Short random keys and values over a tiny alphabet.
            key = RandomBytes(rng, rng.NextUint64(5), 3);
            value = RandomBytes(rng, rng.NextUint64(12), 3);
            break;
          case 2:  // Keys around the 16-byte word boundary.
            key = RandomBytes(rng, 14 + rng.NextUint64(6), 2);
            value = RandomBytes(rng, rng.NextUint64(10), 8);
            break;
          default:  // One key; values tie in their first 8 bytes.
            key = "0000000007";
            value = "12345678" + RandomBytes(rng, rng.NextUint64(4), 8);
            break;
        }
        pairs.emplace_back(std::move(key), std::move(value));
      }
      ExpectSortRunMatchesOracle(pairs);
    }
  }
}

TEST(SortRunTest, AdversarialRunsMatchTheOracle) {
  using namespace std::string_literals;
  const std::vector<std::pair<std::string, std::string>> crafted =
      CraftedPairs();
  // Below the threshold, once; above it, every crafted pair three times
  // in a seeded order, with identical pairs among them.
  ExpectSortRunMatchesOracle(crafted);
  std::vector<std::pair<std::string, std::string>> many;
  for (int copy = 0; copy < 3; ++copy) {
    many.insert(many.end(), crafted.begin(), crafted.end());
  }
  Random rng(3);
  for (size_t i = many.size(); i > 1; --i) {
    std::swap(many[i - 1], many[rng.NextUint64(i)]);
  }
  ASSERT_GE(many.size(), kRadixMinRun);
  ExpectSortRunMatchesOracle(many);

  // Keys over 16 bytes that share their first 16 bytes, keys that differ
  // only in length or by trailing NULs, and empty keys and values.
  std::vector<std::pair<std::string, std::string>> long_keys;
  const std::string prefix(16, 'p');
  for (int i = 0; i < 600; ++i) {
    const int pick = (i * 7919) % 6;
    std::string key = pick == 0   ? prefix + std::to_string(i % 13)
                      : pick == 1 ? prefix + std::string(i % 4, '\0')
                      : pick == 2 ? "k"s + std::string(i % 5, '\0')
                      : pick == 3 ? ""s
                      : pick == 4 ? prefix.substr(0, i % 17)
                                  : prefix + "\xff"s;
    std::string value = i % 9 == 0 ? ""s : "v"s + std::to_string(i % 11);
    long_keys.emplace_back(std::move(key), std::move(value));
  }
  ExpectSortRunMatchesOracle(long_keys);
}

// ---------------------------------------------------------------------
// Pair rows (ReduceContext::WriteGroup) against Write() of the same text,
// and the attachments that ride the shuffle with them.

/// Record "k v a" emits (k, v), a field "-" standing for an empty string.
/// With `attach`, the third field (empty when absent) is the attachment.
class FieldsMapper : public Mapper {
 public:
  explicit FieldsMapper(bool attach = false) : attach_(attach) {}

  void Map(std::string_view record, MapContext& ctx) override {
    const std::vector<std::string_view> fields = SplitString(record, ' ');
    auto field = [&fields](size_t i) {
      return i >= fields.size() || fields[i] == "-" ? std::string_view()
                                                     : fields[i];
    };
    if (attach_) {
      ctx.Emit(field(0), field(1), field(2));
    } else {
      ctx.Emit(field(0), field(1));
    }
  }

 private:
  bool attach_;
};

/// Writes each pair as the text WriteGroup() stands for.
class TextRowReducer : public Reducer {
 public:
  void Reduce(std::string_view key, std::span<const std::string_view> values,
              ReduceContext& ctx) override {
    for (std::string_view value : values) {
      ctx.Write(key.empty() ? std::string(value)
                            : std::string(key) + "\t" + std::string(value));
    }
    ctx.counters().Increment("rows", static_cast<int64_t>(values.size()));
  }
};

class PairRowReducer : public Reducer {
 public:
  void Reduce(std::string_view, std::span<const std::string_view> values,
              ReduceContext& ctx) override {
    ctx.WriteGroup();
    ctx.counters().Increment("rows", static_cast<int64_t>(values.size()));
  }
};

/// Re-emits every value of the group unchanged.
class IdentityCombiner : public Reducer {
 public:
  void Reduce(std::string_view, std::span<const std::string_view> values,
              ReduceContext& ctx) override {
    for (std::string_view value : values) ctx.Write(std::string(value));
  }
};

/// Pair rows as the text they stand for, in block order.
std::vector<std::string> PairRowText(const JobResult& result) {
  std::vector<std::string> text;
  for (const PairRows& rows : result.pair_rows) {
    for (size_t i = 0; i < rows.size(); ++i) {
      text.push_back(rows.key(i).empty() ? std::string(rows.value(i))
                                         : std::string(rows.key(i)) + "\t" +
                                               std::string(rows.value(i)));
    }
  }
  return text;
}

/// (key, value) -> the sorted attachments of the pairs with that text.
using AttachmentsByPair =
    std::map<std::pair<std::string, std::string>, std::vector<std::string>>;

AttachmentsByPair RowAttachments(const JobResult& result) {
  AttachmentsByPair out;
  for (const PairRows& rows : result.pair_rows) {
    for (size_t i = 0; i < rows.size(); ++i) {
      out[{std::string(rows.key(i)), std::string(rows.value(i))}]
          .emplace_back(rows.attachment(i));
    }
  }
  for (auto& [pair, attachments] : out) {
    std::sort(attachments.begin(), attachments.end());
  }
  return out;
}

/// What FieldsMapper(attach) attaches to each pair of `lines`: the third
/// field, or nothing without `attach`.
AttachmentsByPair LineAttachments(const std::vector<std::string>& lines,
                                  bool attach) {
  AttachmentsByPair out;
  for (const std::string& line : lines) {
    std::vector<std::string> f;
    for (std::string_view field : SplitString(line, ' ')) {
      f.emplace_back(field == "-" ? std::string_view() : field);
    }
    f.resize(3);
    out[{f[0], f[1]}].push_back(attach ? f[2] : std::string());
  }
  for (auto& [pair, attachments] : out) {
    std::sort(attachments.begin(), attachments.end());
  }
  return out;
}

void ExpectSameCost(const JobCost& a, const JobCost& b) {
  EXPECT_EQ(a.total_ms, b.total_ms);
  EXPECT_EQ(a.map_makespan_ms, b.map_makespan_ms);
  EXPECT_EQ(a.shuffle_ms, b.shuffle_ms);
  EXPECT_EQ(a.reduce_makespan_ms, b.reduce_makespan_ms);
  EXPECT_EQ(a.bytes_read, b.bytes_read);
  EXPECT_EQ(a.bytes_shuffled, b.bytes_shuffled);
  EXPECT_EQ(a.bytes_written, b.bytes_written);
  EXPECT_EQ(a.num_map_tasks, b.num_map_tasks);
  EXPECT_EQ(a.num_reduce_tasks, b.num_reduce_tasks);
  EXPECT_EQ(a.task_retries, b.task_retries);
  EXPECT_EQ(a.speculative_launched, b.speculative_launched);
  EXPECT_EQ(a.speculative_won, b.speculative_won);
}

/// Lines "k v a" with empty keys, values and attachments, short strings
/// throughout, and attachments of every length up to 255 bytes.
std::vector<std::string> FieldLines() {
  std::vector<std::string> lines;
  for (int i = 0; i < 600; ++i) {
    const std::string key = i % 10 == 0 ? "-" : "k" + std::to_string(i % 17);
    const std::string value =
        i % 7 == 0 ? "-" : std::string(1 + i % 40, 'a' + i % 26);
    const std::string attachment =
        i % 3 == 0 ? "-" : std::string(i % 256, 'a' + i % 23);
    lines.push_back(key + " " + value + " " + attachment);
  }
  return lines;
}

enum class Rows { kText, kPairs, kMapOnly };

/// A FieldsMapper job over `path` with three reduce tasks (one block of
/// pass-through rows for kMapOnly).
JobConfig FieldsJob(const hdfs::FileSystem& fs, const std::string& path,
                    Rows rows, bool attach = false, bool combine = false) {
  JobConfig job;
  job.name = "pair-rows";
  job.splits = MakeBlockSplits(fs, path).ValueOrDie();
  job.mapper = [attach]() { return std::make_unique<FieldsMapper>(attach); };
  if (combine) {
    job.combiner = []() { return std::make_unique<IdentityCombiner>(); };
  }
  if (rows == Rows::kPairs) {
    job.reducer = []() { return std::make_unique<PairRowReducer>(); };
  } else if (rows == Rows::kText) {
    job.reducer = []() { return std::make_unique<TextRowReducer>(); };
  }
  job.num_reducers = 3;
  return job;
}

class PairRowsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(cluster_.fs.WriteLines("/in", lines_).ok());
  }

  JobConfig Job(Rows rows, bool attach = false, bool combine = false) {
    return FieldsJob(cluster_.fs, "/in", rows, attach, combine);
  }

  const std::vector<std::string> lines_ = FieldLines();
  testing::TestCluster cluster_{/*block_size=*/512};
};

TEST_F(PairRowsTest, ChargeAndReadLikeWriteOfTheSameText) {
  const JobResult text = cluster_.runner.Run(Job(Rows::kText));
  const JobResult pairs = cluster_.runner.Run(Job(Rows::kPairs));
  ASSERT_TRUE(text.status.ok()) << text.status.ToString();
  ASSERT_TRUE(pairs.status.ok()) << pairs.status.ToString();
  ExpectSameCost(pairs.cost, text.cost);
  EXPECT_EQ(pairs.counters.values(), text.counters.values());
  EXPECT_EQ(PairRowText(pairs), text.output);
  EXPECT_EQ(text.output.size(), 600u);
  EXPECT_TRUE(pairs.output.empty());
  // One block per reduce task, in task order.
  ASSERT_EQ(pairs.pair_rows.size(), 3u);
  ASSERT_EQ(text.pair_rows.size(), 3u);
  for (const PairRows& rows : text.pair_rows) EXPECT_EQ(rows.size(), 0u);
}

TEST_F(PairRowsTest, AttachmentsChangeNoChargeCounterOrRow) {
  for (Rows rows : {Rows::kText, Rows::kPairs, Rows::kMapOnly}) {
    for (bool combine : {false, true}) {
      SCOPED_TRACE("rows " + std::to_string(static_cast<int>(rows)) +
                   (combine ? ", combiner" : ""));
      const JobResult plain = cluster_.runner.Run(Job(rows, false, combine));
      const JobResult attached = cluster_.runner.Run(Job(rows, true, combine));
      ASSERT_TRUE(plain.status.ok()) << plain.status.ToString();
      ASSERT_TRUE(attached.status.ok()) << attached.status.ToString();
      ExpectSameCost(attached.cost, plain.cost);
      EXPECT_EQ(attached.counters.values(), plain.counters.values());
      EXPECT_EQ(attached.output, plain.output);
      EXPECT_EQ(PairRowText(attached), PairRowText(plain));
      EXPECT_EQ(PairRowText(attached).size(), rows == Rows::kText ? 0u : 600u);
    }
  }
}

TEST_F(PairRowsTest, EachRowReadsItsOwnAttachment) {
  const AttachmentsByPair attached = LineAttachments(lines_, true);
  const AttachmentsByPair none = LineAttachments(lines_, false);
  ASSERT_GT(attached.size(), 100u);
  // Reduced and passed through (map-only), with and without attachments.
  for (Rows rows : {Rows::kPairs, Rows::kMapOnly}) {
    SCOPED_TRACE(rows == Rows::kPairs ? "reduced" : "map-only");
    EXPECT_EQ(RowAttachments(cluster_.runner.Run(Job(rows, true))), attached);
    EXPECT_EQ(RowAttachments(cluster_.runner.Run(Job(rows, false))), none);
    // A combiner's re-emits carry nothing.
    EXPECT_EQ(RowAttachments(cluster_.runner.Run(Job(rows, true, true))),
              none);
  }
}

TEST_F(PairRowsTest, OnlyTheCommittedAttemptsRowsAppear) {
  const JobResult clean = cluster_.runner.Run(Job(Rows::kPairs, true));
  ASSERT_TRUE(clean.status.ok());
  cluster_.runner.set_max_task_attempts(8);
  int64_t rivals = 0;
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    fault::FaultPolicy policy;
    policy.seed = seed;
    policy.reduce_failure_prob = 0.3;
    policy.straggler_prob = 0.5;
    fault::FaultInjector injector(policy);
    cluster_.runner.set_fault_injector(&injector);
    const JobResult faulty = cluster_.runner.Run(Job(Rows::kPairs, true));
    const JobResult text = cluster_.runner.Run(Job(Rows::kText));
    cluster_.runner.set_fault_injector(nullptr);
    ASSERT_TRUE(faulty.status.ok()) << faulty.status.ToString();
    ASSERT_TRUE(text.status.ok()) << text.status.ToString();
    EXPECT_EQ(PairRowText(faulty), PairRowText(clean)) << "seed " << seed;
    EXPECT_EQ(RowAttachments(faulty), RowAttachments(clean)) << "seed " << seed;
    // The same fault pattern charges pair rows as it charges Write().
    ExpectSameCost(faulty.cost, text.cost);
    rivals += faulty.cost.task_retries + faulty.cost.speculative_launched;
  }
  EXPECT_GT(rivals, 0);
}

/// Runs a FieldsJob with attachments on a cluster holding `lines` in
/// blocks of `block_size` bytes, then copies and moves the result and
/// destroys the cluster (its runner and file system): the copy and the
/// moved result must still read every row and attachment, and so must
/// views taken before.
void ExpectRowsOutliveTheirRunner(const std::vector<std::string>& lines,
                                  size_t block_size, Rows rows) {
  auto cluster = std::make_unique<testing::TestCluster>(block_size);
  ASSERT_TRUE(cluster->fs.WriteLines("/in", lines).ok());
  auto owner = std::make_unique<JobResult>(
      cluster->runner.Run(FieldsJob(cluster->fs, "/in", rows, true)));
  ASSERT_TRUE(owner->status.ok()) << owner->status.ToString();
  const std::vector<std::string> text = PairRowText(*owner);
  const AttachmentsByPair attachments = RowAttachments(*owner);
  ASSERT_EQ(text.size(), lines.size());
  EXPECT_EQ(attachments, LineAttachments(lines, true));
  std::vector<std::string_view> views;
  std::vector<std::string> copies;
  for (const PairRows& block : owner->pair_rows) {
    for (size_t i = 0; i < block.size(); ++i) {
      for (std::string_view view :
           {block.key(i), block.value(i), block.attachment(i)}) {
        views.push_back(view);
        copies.emplace_back(view);
      }
    }
  }
  const JobResult copy = *owner;
  const JobResult moved = std::move(*owner);
  owner.reset();    // Frees the moved-from result.
  cluster.reset();  // The runner and its file system go too.
  for (const JobResult* result : {&copy, &moved}) {
    EXPECT_EQ(PairRowText(*result), text);
    EXPECT_EQ(RowAttachments(*result), attachments);
  }
  ASSERT_EQ(views.size(), copies.size());
  for (size_t i = 0; i < views.size(); ++i) EXPECT_EQ(views[i], copies[i]);
}

TEST(PairRowsJobTest, RowsSurviveAMoveACopyAndTheirRunner) {
  for (Rows rows : {Rows::kPairs, Rows::kMapOnly}) {
    ExpectRowsOutliveTheirRunner(FieldLines(), /*block_size=*/512, rows);
  }
}

TEST(PairRowsJobTest, MapBuffersShortEnoughToStayInlineReadBack) {
  // Blocks of at most 16 bytes hold two or three of these lines, so each
  // map task's buffer (4 bytes per pair) fits inside its std::string.
  std::vector<std::string> lines;
  for (int i = 0; i < 40; ++i) {
    lines.push_back(std::string(1, 'a' + i % 5) + " " +
                    std::string(1, 'a' + i % 26) + " " +
                    (i % 4 == 0 ? "-" : std::string(1, '0' + i % 10)));
  }
  testing::TestCluster cluster(/*block_size=*/16);
  ASSERT_TRUE(cluster.fs.WriteLines("/in", lines).ok());
  ASSERT_GE(MakeBlockSplits(cluster.fs, "/in").ValueOrDie().size(),
            lines.size() / 3);
  for (Rows rows : {Rows::kPairs, Rows::kMapOnly}) {
    ExpectRowsOutliveTheirRunner(lines, /*block_size=*/16, rows);
  }
}

TEST(PairRowsJobTest, AnAttachmentHoldsAtMost255Bytes) {
  testing::TestCluster cluster;
  for (size_t size : {size_t{255}, size_t{256}}) {
    ASSERT_TRUE(cluster.fs
                    .WriteLines("/in" + std::to_string(size),
                                {"a x -", "b y " + std::string(size, 'z')})
                    .ok());
    const JobResult result = cluster.runner.Run(FieldsJob(
        cluster.fs, "/in" + std::to_string(size), Rows::kPairs, true));
    if (size == 255) {
      ASSERT_TRUE(result.status.ok()) << result.status.ToString();
      EXPECT_EQ(RowAttachments(result),
                (AttachmentsByPair{{{"a", "x"}, {""}},
                                   {{"b", "y"}, {std::string(255, 'z')}}}));
    } else {
      EXPECT_TRUE(result.status.IsInvalidArgument())
          << result.status.ToString();
      EXPECT_TRUE(result.pair_rows.empty());
    }
  }
}

TEST(PairRowsJobTest, ACombinerCannotWriteGroups) {
  testing::TestCluster cluster;
  ASSERT_TRUE(cluster.fs.WriteLines("/in", {"a x", "a y", "b z"}).ok());
  class GroupCombiner : public Reducer {
   public:
    void Reduce(std::string_view, std::span<const std::string_view>,
                ReduceContext& ctx) override {
      ctx.WriteGroup();
    }
  };
  JobConfig job = FieldsJob(cluster.fs, "/in", Rows::kPairs);
  job.combiner = []() { return std::make_unique<GroupCombiner>(); };
  const JobResult result = cluster.runner.Run(job);
  EXPECT_TRUE(result.status.IsInvalidArgument()) << result.status.ToString();
  EXPECT_TRUE(result.pair_rows.empty());
}

TEST(PairRowsJobTest, MapOnlyPairsPassThroughAsPairRows) {
  testing::TestCluster cluster;
  ASSERT_TRUE(cluster.fs.WriteLines("/in", {"b 2 q", "- 1", "a - r"}).ok());
  const JobResult result =
      cluster.runner.Run(FieldsJob(cluster.fs, "/in", Rows::kMapOnly, true));
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_TRUE(result.output.empty());
  ASSERT_EQ(result.pair_rows.size(), 1u);
  EXPECT_EQ(PairRowText(result),
            (std::vector<std::string>{"1", "a\t", "b\t2"}));
  const PairRows& rows = result.pair_rows[0];
  EXPECT_EQ(rows.attachment(0), "");
  EXPECT_EQ(rows.attachment(1), "r");
  EXPECT_EQ(rows.attachment(2), "q");
}

TEST(MakespanTest, GreedyScheduling) {
  EXPECT_DOUBLE_EQ(Makespan({}, 4), 0.0);
  EXPECT_DOUBLE_EQ(Makespan({5.0}, 4), 5.0);
  EXPECT_DOUBLE_EQ(Makespan({1, 1, 1, 1}, 4), 1.0);
  EXPECT_DOUBLE_EQ(Makespan({1, 1, 1, 1}, 2), 2.0);
  EXPECT_DOUBLE_EQ(Makespan({4, 1, 1, 1, 1}, 2), 4.0);
  EXPECT_DOUBLE_EQ(Makespan({1, 1}, 1), 2.0);
}

TEST(MakespanTest, MoreSlotsNeverSlower) {
  std::vector<double> tasks;
  Random rng(7);
  for (int i = 0; i < 50; ++i) tasks.push_back(rng.NextDouble(0.1, 10.0));
  double previous = Makespan(tasks, 1);
  for (int slots = 2; slots <= 64; slots *= 2) {
    const double current = Makespan(tasks, slots);
    EXPECT_LE(current, previous + 1e-9);
    previous = current;
  }
}

}  // namespace
}  // namespace shadoop::mapreduce
