#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/string_util.h"
#include "cpu_affinity.h"
#include "fault/fault_injector.h"
#include "mapreduce/job_runner.h"
#include "mapreduce/task_scheduler.h"
#include "test_util.h"

namespace shadoop {
namespace {

using fault::FaultInjector;
using fault::FaultPolicy;
using fault::TaskKind;
using mapreduce::AttemptInfo;
using mapreduce::AttemptOutcome;
using mapreduce::AttemptState;
using mapreduce::JobConfig;
using mapreduce::JobResult;
using mapreduce::MakeBlockSplits;
using mapreduce::MapContext;
using mapreduce::Mapper;
using mapreduce::ReduceContext;
using mapreduce::Reducer;
using mapreduce::TaskScheduler;
using mapreduce::TaskSchedulerOptions;

// ---------------------------------------------------------------------
// FaultInjector

TEST(FaultInjectorTest, DecisionsAreDeterministic) {
  FaultPolicy policy;
  policy.seed = 17;
  policy.map_failure_prob = 0.3;
  policy.straggler_prob = 0.2;
  policy.read_io_error_prob = 0.1;
  FaultInjector a(policy);
  FaultInjector b(policy);
  for (size_t task = 0; task < 50; ++task) {
    for (int attempt = 1; attempt <= 3; ++attempt) {
      EXPECT_EQ(a.ShouldFailAttempt(TaskKind::kMap, "job", task, attempt),
                b.ShouldFailAttempt(TaskKind::kMap, "job", task, attempt));
      EXPECT_EQ(a.StragglerDelayMs(TaskKind::kMap, "job", task, attempt),
                b.StragglerDelayMs(TaskKind::kMap, "job", task, attempt));
    }
    EXPECT_EQ(a.FailsReplicaRead(task, 0), b.FailsReplicaRead(task, 0));
  }
}

TEST(FaultInjectorTest, ZeroProbabilityNeverFires) {
  FaultInjector injector(FaultPolicy{});  // All-zero policy.
  for (size_t task = 0; task < 100; ++task) {
    EXPECT_FALSE(injector.ShouldFailAttempt(TaskKind::kMap, "j", task, 1));
    EXPECT_EQ(injector.StragglerDelayMs(TaskKind::kReduce, "j", task, 1), 0.0);
    EXPECT_FALSE(injector.FailsReplicaRead(task, 0));
  }
  EXPECT_FALSE(injector.policy().AnyEnabled());
}

TEST(FaultInjectorTest, FailureSetGrowsMonotonicallyWithProbability) {
  // Raising the probability must only add faults, never move them: this
  // is what makes fault-matrix sweeps comparable across rates.
  for (double lo = 0.1; lo < 0.8; lo += 0.2) {
    FaultPolicy a;
    a.seed = 5;
    a.map_failure_prob = lo;
    FaultPolicy b = a;
    b.map_failure_prob = lo + 0.2;
    FaultInjector low(a), high(b);
    for (size_t task = 0; task < 200; ++task) {
      if (low.ShouldFailAttempt(TaskKind::kMap, "j", task, 1)) {
        EXPECT_TRUE(high.ShouldFailAttempt(TaskKind::kMap, "j", task, 1));
      }
    }
  }
}

TEST(FaultInjectorTest, SeedsDecorrelateDecisions) {
  FaultPolicy p;
  p.map_failure_prob = 0.5;
  p.seed = 1;
  FaultInjector a(p);
  p.seed = 2;
  FaultInjector b(p);
  int differ = 0;
  for (size_t task = 0; task < 200; ++task) {
    differ += a.ShouldFailAttempt(TaskKind::kMap, "j", task, 1) !=
              b.ShouldFailAttempt(TaskKind::kMap, "j", task, 1);
  }
  EXPECT_GT(differ, 20);
}

TEST(FaultInjectorTest, HitRateTracksProbability) {
  FaultPolicy p;
  p.seed = 99;
  p.map_failure_prob = 0.25;
  FaultInjector injector(p);
  int hits = 0;
  const int n = 2000;
  for (int task = 0; task < n; ++task) {
    hits += injector.ShouldFailAttempt(TaskKind::kMap, "j",
                                       static_cast<size_t>(task), 1);
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.05);
}

// ---------------------------------------------------------------------
// TaskScheduler

TaskSchedulerOptions FastOptions() {
  TaskSchedulerOptions options;
  options.job_name = "sched-test";
  options.max_task_attempts = 3;
  return options;
}

TEST(TaskSchedulerTest, TransientFailuresAreRetried) {
  TaskScheduler sched(FastOptions(), nullptr);
  std::vector<std::atomic<int>> committed(4);
  sched.RunTasks(4, 4,
                 [&](size_t task, const AttemptInfo& info) -> AttemptOutcome {
                   if (info.id == 1) {
                     return {Status::IoError("flaky"), /*transient=*/true};
                   }
                   committed[task].fetch_add(1);
                   return {};
                 });
  EXPECT_TRUE(sched.ok());
  EXPECT_EQ(sched.task_retries(), 4);
  for (const auto& c : committed) EXPECT_EQ(c.load(), 1);
  for (const auto& report : sched.reports()) {
    ASSERT_EQ(report.attempts.size(), 2u);
    EXPECT_EQ(report.attempts[0].state, AttemptState::kFailed);
    EXPECT_EQ(report.attempts[1].state, AttemptState::kCommitted);
    EXPECT_EQ(report.committed_attempt, 2);
    EXPECT_GT(report.sim_overhead_ms, 0.0);  // Backoff + wasted launch.
  }
}

TEST(TaskSchedulerTest, NonTransientFailureStopsImmediately) {
  TaskScheduler sched(FastOptions(), nullptr);
  int runs = 0;
  sched.RunTasks(1, 1, [&](size_t, const AttemptInfo&) -> AttemptOutcome {
    ++runs;
    return {Status::ParseError("bad record"), /*transient=*/false};
  });
  EXPECT_FALSE(sched.ok());
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(sched.task_retries(), 0);
  ASSERT_EQ(sched.reports()[0].attempts.size(), 1u);
  EXPECT_TRUE(sched.MakeStatus().IsParseError());
}

TEST(TaskSchedulerTest, ExhaustedBudgetReportsHistory) {
  TaskScheduler sched(FastOptions(), nullptr);
  sched.RunTasks(2, 2, [](size_t task, const AttemptInfo&) -> AttemptOutcome {
    if (task == 1) return {Status::IoError("always down"), true};
    return {};
  });
  EXPECT_FALSE(sched.ok());
  const Status status = sched.MakeStatus();
  EXPECT_TRUE(status.IsIoError());
  EXPECT_NE(status.message().find("task 1"), std::string::npos);
  EXPECT_NE(status.message().find("3 attempt(s)"), std::string::npos);
  EXPECT_NE(status.message().find("#1 FAILED"), std::string::npos);
  EXPECT_EQ(sched.reports()[1].attempts.size(), 3u);
  // Exponential backoff: each relaunch waited twice the previous wait.
  EXPECT_DOUBLE_EQ(sched.reports()[1].attempts[0].backoff_ms, 0.0);
  EXPECT_DOUBLE_EQ(sched.reports()[1].attempts[1].backoff_ms, 1000.0);
  EXPECT_DOUBLE_EQ(sched.reports()[1].attempts[2].backoff_ms, 2000.0);
}

TEST(TaskSchedulerTest, StragglerTriggersSpeculationAndCommitsOnce) {
  FaultPolicy policy;
  policy.seed = 3;
  policy.straggler_prob = 1.0;  // Every attempt straggles.
  policy.straggler_delay_ms = 30000.0;
  FaultInjector injector(policy);
  TaskSchedulerOptions options = FastOptions();
  options.speculative_slack_ms = 5000.0;
  TaskScheduler sched(options, &injector);
  std::vector<std::atomic<int>> committed(8);
  std::atomic<int> runs{0};
  sched.RunTasks(8, 4, [&](size_t task, const AttemptInfo&) -> AttemptOutcome {
    runs.fetch_add(1);
    committed[task].fetch_add(1);
    return {};
  });
  EXPECT_TRUE(sched.ok());
  EXPECT_EQ(sched.speculative_launched(), 8);
  // The simulated race decides each backup, so only its winner runs: one
  // attempt-function call per task, and each task commits once.
  EXPECT_EQ(runs.load(), 8);
  for (const auto& c : committed) EXPECT_EQ(c.load(), 1);
  for (const auto& report : sched.reports()) {
    ASSERT_EQ(report.attempts.size(), 2u);
    int committed_count = 0, killed_count = 0;
    for (const auto& attempt : report.attempts) {
      committed_count += attempt.state == AttemptState::kCommitted;
      killed_count += attempt.state == AttemptState::kKilled;
    }
    EXPECT_EQ(committed_count, 1);
    EXPECT_EQ(killed_count, 1);
  }
}

TEST(TaskSchedulerTest, SpeculativeWinnerIsDeterministic) {
  // Run the same straggler-heavy schedule twice; the simulated outcome
  // (who won, total overhead) must be identical.
  FaultPolicy policy;
  policy.seed = 11;
  policy.straggler_prob = 0.6;
  policy.straggler_delay_ms = 20000.0;
  auto run_once = [&policy]() {
    FaultInjector injector(policy);
    TaskScheduler sched(FastOptions(), &injector);
    sched.RunTasks(16, 8, [](size_t, const AttemptInfo&) -> AttemptOutcome {
      return {};
    });
    double overhead = 0;
    std::vector<int> winners;
    for (const auto& report : sched.reports()) {
      overhead += report.sim_overhead_ms;
      winners.push_back(report.committed_attempt);
    }
    return std::make_tuple(sched.speculative_launched(),
                           sched.speculative_won(), overhead, winners);
  };
  const auto first = run_once();
  const auto second = run_once();
  EXPECT_EQ(first, second);
  EXPECT_GT(std::get<0>(first), 0);
}

TEST(TaskSchedulerTest, FailedRaceWinnerFailsItsRivalToo) {
  // Every attempt straggles, so every task launches a backup. The primary
  // wins each race (the backup straggles as long, after its launch), runs
  // and fails; the backup never runs and fails with the same status.
  FaultPolicy policy;
  policy.seed = 5;
  policy.straggler_prob = 1.0;
  FaultInjector injector(policy);
  TaskScheduler sched(FastOptions(), &injector);
  std::atomic<int> runs{0};
  sched.RunTasks(2, 2, [&](size_t, const AttemptInfo& info) -> AttemptOutcome {
    runs.fetch_add(1);
    EXPECT_FALSE(info.speculative);
    return {Status::ParseError("bad record"), /*transient=*/false};
  });
  EXPECT_FALSE(sched.ok());
  EXPECT_EQ(runs.load(), 2);
  EXPECT_EQ(sched.speculative_launched(), 2);
  EXPECT_EQ(sched.task_retries(), 0);
  for (const auto& report : sched.reports()) {
    ASSERT_EQ(report.attempts.size(), 2u);
    for (const auto& attempt : report.attempts) {
      EXPECT_EQ(attempt.state, AttemptState::kFailed);
      EXPECT_TRUE(attempt.status.IsParseError());
    }
    EXPECT_EQ(report.History(),
              "#1 FAILED (ParseError: bad record); #2 (speculative) FAILED "
              "(ParseError: bad record)");
  }
}

// ---------------------------------------------------------------------
// JobRunner integration

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

JobConfig WordCountJob(hdfs::FileSystem& fs, const std::string& path) {
  JobConfig job;
  job.name = "wordcount";
  job.splits = MakeBlockSplits(fs, path).ValueOrDie();
  job.mapper = []() { return std::make_unique<WordCountMapper>(); };
  job.reducer = []() { return std::make_unique<SumReducer>(); };
  job.num_reducers = 3;
  return job;
}

std::vector<std::string> WordLines(int count) {
  std::vector<std::string> lines;
  for (int i = 0; i < count; ++i) {
    lines.push_back("w" + std::to_string(i % 23) + " w" +
                    std::to_string(i % 7));
  }
  return lines;
}

TEST(FaultToleranceTest, InjectionPreservesOutputAcrossSeeds) {
  testing::TestCluster cluster;
  ASSERT_TRUE(cluster.fs.WriteLines("/text", WordLines(400)).ok());
  const JobResult clean = cluster.runner.Run(WordCountJob(cluster.fs, "/text"));
  ASSERT_TRUE(clean.status.ok());
  EXPECT_EQ(clean.cost.task_retries, 0);
  EXPECT_EQ(clean.counters.Get("fault.task_retries"), 0);

  cluster.runner.set_max_task_attempts(8);  // Ample at a 30% failure rate.
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    FaultPolicy policy;
    policy.seed = seed;
    policy.map_failure_prob = 0.3;
    policy.reduce_failure_prob = 0.2;
    policy.straggler_prob = 0.3;
    FaultInjector injector(policy);
    cluster.runner.set_fault_injector(&injector);
    const JobResult faulty =
        cluster.runner.Run(WordCountJob(cluster.fs, "/text"));
    cluster.runner.set_fault_injector(nullptr);
    ASSERT_TRUE(faulty.status.ok())
        << "seed " << seed << ": " << faulty.status.ToString();
    // The invariant: identical rows, only the fault counters differ.
    EXPECT_EQ(faulty.output, clean.output) << "seed " << seed;
    EXPECT_EQ(faulty.cost.bytes_shuffled, clean.cost.bytes_shuffled);
    EXPECT_GT(faulty.cost.task_retries + faulty.cost.speculative_launched, 0)
        << "seed " << seed;
    EXPECT_EQ(faulty.counters.Get("fault.task_retries"),
              faulty.cost.task_retries);
    // Recovery work inflates the simulated time, never shrinks it.
    EXPECT_GE(faulty.cost.total_ms, clean.cost.total_ms);
  }
}

TEST(FaultToleranceTest, FaultyCostIsReproducible) {
  testing::TestCluster cluster;
  ASSERT_TRUE(cluster.fs.WriteLines("/text", WordLines(400)).ok());
  FaultPolicy policy;
  policy.seed = 7;
  policy.map_failure_prob = 0.25;
  policy.straggler_prob = 0.4;
  cluster.runner.set_max_task_attempts(8);
  auto run = [&] {
    FaultInjector injector(policy);
    cluster.runner.set_fault_injector(&injector);
    JobResult result = cluster.runner.Run(WordCountJob(cluster.fs, "/text"));
    cluster.runner.set_fault_injector(nullptr);
    return result;
  };
  const JobResult r1 = run();
  const JobResult r2 = run();
  ASSERT_TRUE(r1.status.ok());
  ASSERT_TRUE(r2.status.ok());
  EXPECT_EQ(r1.output, r2.output);
  EXPECT_DOUBLE_EQ(r1.cost.total_ms, r2.cost.total_ms);
  EXPECT_EQ(r1.cost.task_retries, r2.cost.task_retries);
  EXPECT_EQ(r1.cost.speculative_launched, r2.cost.speculative_launched);
  EXPECT_EQ(r1.cost.speculative_won, r2.cost.speculative_won);
}

TEST(FaultToleranceTest, RunnerLevelInjectorAppliesToEveryJob) {
  testing::TestCluster cluster;
  std::vector<std::string> lines;  // Several blocks -> several map tasks.
  for (int i = 0; i < 2000; ++i) {
    lines.push_back("alpha beta gamma " + std::to_string(i % 7));
  }
  ASSERT_TRUE(cluster.fs.WriteLines("/text", lines).ok());
  FaultPolicy policy;
  policy.seed = 21;
  policy.map_failure_prob = 0.4;
  policy.reduce_failure_prob = 0.4;
  FaultInjector injector(policy);
  cluster.runner.set_fault_injector(&injector);
  cluster.runner.set_max_task_attempts(8);
  const JobResult result =
      cluster.runner.Run(WordCountJob(cluster.fs, "/text"));
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_GT(result.cost.task_retries, 0);
  cluster.runner.set_fault_injector(nullptr);
}

TEST(FaultToleranceTest, AbortCarriesTaskIdAndAttemptHistory) {
  testing::TestCluster cluster;
  ASSERT_TRUE(cluster.fs.WriteLines("/in", {"r"}).ok());
  class PassMapper : public Mapper {
   public:
    void Map(std::string_view record, MapContext& ctx) override {
      ctx.WriteOutput(std::string(record));
    }
  };
  JobConfig job;
  job.name = "doomed";
  job.splits = MakeBlockSplits(cluster.fs, "/in").ValueOrDie();
  job.mapper = []() { return std::make_unique<PassMapper>(); };
  FaultPolicy policy;
  policy.map_failure_prob = 1.0;  // Never succeeds.
  FaultInjector injector(policy);
  cluster.runner.set_fault_injector(&injector);
  const JobResult result = cluster.runner.Run(job);
  cluster.runner.set_fault_injector(nullptr);
  EXPECT_TRUE(result.status.IsIoError());
  EXPECT_NE(result.status.message().find("map task 0"), std::string::npos);
  EXPECT_NE(result.status.message().find("'doomed'"), std::string::npos);
  EXPECT_NE(result.status.message().find("3 attempt(s)"), std::string::npos);
  EXPECT_NE(result.status.message().find("#3 FAILED"), std::string::npos);
}

// ---------------------------------------------------------------------
// HDFS replica failover

TEST(ReplicaFailoverTest, InjectedReadFaultsFailOverWithoutDataLoss) {
  testing::TestCluster cluster;  // Replication 3.
  FaultPolicy policy;
  policy.seed = 13;
  policy.read_io_error_prob = 0.5;
  policy.read_corruption_prob = 0.2;
  FaultInjector injector(policy);
  cluster.fs.set_fault_injector(&injector);  // Before writing: checksums on.
  std::vector<std::string> lines;
  for (int i = 0; i < 2000; ++i) lines.push_back("record-" + std::to_string(i));
  ASSERT_TRUE(cluster.fs.WriteLines("/data", lines).ok());

  auto read = cluster.fs.ReadLines("/data");
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.value(), lines);  // Failover, never data loss.

  // A read counts exactly the leading replicas the injector faults; the
  // last replica is never faulted.
  const hdfs::FileMeta meta = cluster.fs.GetFileMeta("/data").ValueOrDie();
  uint64_t failovers = 0;
  uint64_t expected = 0;
  for (size_t b = 0; b < meta.blocks.size(); ++b) {
    ASSERT_TRUE(cluster.fs.ReadBlockRaw("/data", b, &failovers).ok());
    const hdfs::BlockMeta& block = meta.blocks[b];
    for (size_t r = 0; r + 1 < block.replica_nodes.size(); ++r) {
      if (!injector.FailsReplicaRead(block.id, block.replica_nodes[r])) break;
      ++expected;
    }
  }
  EXPECT_GT(failovers, 0u);
  EXPECT_EQ(failovers, expected);
  cluster.fs.set_fault_injector(nullptr);
}

TEST(ReplicaFailoverTest, JobSurfacesReplicaFailoverCounter) {
  testing::TestCluster cluster;
  FaultPolicy policy;
  policy.seed = 29;
  policy.read_io_error_prob = 0.6;
  FaultInjector injector(policy);
  cluster.fs.set_fault_injector(&injector);
  // Several blocks' worth of input.
  ASSERT_TRUE(cluster.fs.WriteLines("/text", WordLines(2000)).ok());
  const JobResult result = cluster.runner.Run(WordCountJob(cluster.fs, "/text"));
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_GT(result.cost.replica_failovers, 0);
  EXPECT_EQ(result.counters.Get("fault.replica_failovers"),
            result.cost.replica_failovers);
  cluster.fs.set_fault_injector(nullptr);
}

// ---------------------------------------------------------------------
// Determinism of the fault counters. Map tasks that take real time give a
// second attempt, or a second job, room to run beside the first; neither
// may move a counter.

/// Word count whose map tasks each take a few milliseconds of wall time.
class SlowWordCountMapper : public WordCountMapper {
 public:
  void EndSplit(MapContext&) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
};

JobConfig SlowWordCountJob(hdfs::FileSystem& fs, const std::string& path) {
  JobConfig job = WordCountJob(fs, path);
  job.mapper = []() { return std::make_unique<SlowWordCountMapper>(); };
  return job;
}

/// Every JobCost field, every counter and the output, as one string.
std::string Fingerprint(const JobResult& result) {
  const mapreduce::JobCost& c = result.cost;
  std::ostringstream out;
  out.precision(17);
  out << result.status.ToString() << " total=" << c.total_ms
      << " map=" << c.map_makespan_ms << " shuffle=" << c.shuffle_ms
      << " reduce=" << c.reduce_makespan_ms << " read=" << c.bytes_read
      << " shuffled=" << c.bytes_shuffled << " written=" << c.bytes_written
      << " tasks=" << c.num_map_tasks << "/" << c.num_reduce_tasks
      << " retries=" << c.task_retries
      << " spec=" << c.speculative_launched << "/" << c.speculative_won
      << " failovers=" << c.replica_failovers
      << " admission=" << c.admission_queued << "/" << c.admission_wait_ms
      << "/" << c.admission_preempted_specs;
  for (const auto& [name, value] : result.counters.values()) {
    out << " " << name << "=" << value;
  }
  for (const std::string& line : result.output) out << "\n" << line;
  return out.str();
}

TEST(FaultDeterminismTest, SpeculationWithReadFaultsReproducesOnAnyCpuCount) {
  // Every attempt straggles past the slack, so every task launches a
  // backup, and read faults make each block read fail over. One map lane
  // leaves the pool's workers free for a backup to run beside its
  // primary, were it run.
  testing::TestCluster cluster(4 * 1024, /*num_slots=*/1);
  FaultPolicy policy;
  policy.seed = 31;
  policy.straggler_prob = 1.0;
  policy.read_io_error_prob = 0.5;
  FaultInjector injector(policy);
  cluster.fs.set_fault_injector(&injector);
  ASSERT_TRUE(cluster.fs.WriteLines("/text", WordLines(4000)).ok());
  cluster.runner.set_fault_injector(&injector);
  auto run = [&] {
    return Fingerprint(
        cluster.runner.Run(SlowWordCountJob(cluster.fs, "/text")));
  };

  std::string one_cpu;
  {
    testing::ScopedCpus cpus(1);
    one_cpu = run();
  }
  EXPECT_NE(one_cpu.find("fault.replica_failovers="), std::string::npos);
  EXPECT_NE(one_cpu.find("fault.speculative_launched="), std::string::npos);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(run(), one_cpu) << "run " << i;
  cluster.fs.set_fault_injector(nullptr);
}

TEST(FaultDeterminismTest, ConcurrentJobsCountOnlyTheirOwnFailovers) {
  // Two runners share one file system with read faults. Run together,
  // each job reports the failovers it reports alone.
  testing::TestCluster cluster;
  FaultPolicy policy;
  policy.seed = 8;
  policy.read_io_error_prob = 0.5;
  FaultInjector injector(policy);
  cluster.fs.set_fault_injector(&injector);
  ASSERT_TRUE(cluster.fs.WriteLines("/a", WordLines(3000)).ok());
  ASSERT_TRUE(cluster.fs.WriteLines("/b", WordLines(5000)).ok());
  mapreduce::JobRunner other(&cluster.fs, cluster.runner.cluster());
  auto run_a = [&] {
    return cluster.runner.Run(SlowWordCountJob(cluster.fs, "/a"))
        .cost.replica_failovers;
  };
  auto run_b = [&] {
    return other.Run(SlowWordCountJob(cluster.fs, "/b")).cost.replica_failovers;
  };
  const int64_t solo_a = run_a();
  const int64_t solo_b = run_b();
  ASSERT_GT(solo_a, 0);
  ASSERT_GT(solo_b, 0);
  ASSERT_NE(solo_a, solo_b);
  for (int round = 0; round < 5; ++round) {
    int64_t together_a = 0;
    std::thread thread_a([&] { together_a = run_a(); });
    const int64_t together_b = run_b();
    thread_a.join();
    EXPECT_EQ(together_a, solo_a) << "round " << round;
    EXPECT_EQ(together_b, solo_b) << "round " << round;
  }
  cluster.fs.set_fault_injector(nullptr);
}

TEST(ReplicaFailoverTest, DisabledInjectorLeavesReadsUntouched) {
  testing::TestCluster cluster;
  ASSERT_TRUE(cluster.fs.WriteLines("/data", {"a", "b"}).ok());
  // No injector installed at write time: no checksums recorded.
  ASSERT_TRUE(cluster.fs.GetFileMeta("/data").ok());
  EXPECT_EQ(cluster.fs.GetFileMeta("/data").ValueOrDie().blocks[0].checksum,
            0u);
  EXPECT_EQ(cluster.fs.ReadLines("/data").ValueOrDie(),
            (std::vector<std::string>{"a", "b"}));
}

}  // namespace
}  // namespace shadoop
