#include "mapreduce/admission_controller.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "fault/fault_injector.h"
#include "mapreduce/job_runner.h"
#include "pigeon/executor.h"
#include "test_util.h"

namespace shadoop {
namespace {

using mapreduce::AdmissionController;
using mapreduce::AdmissionOptions;
using mapreduce::JobConfig;
using mapreduce::JobResult;
using mapreduce::MakeBlockSplits;
using mapreduce::MapContext;
using mapreduce::Mapper;
using mapreduce::TenantStats;
using testing::TestCluster;
using testing::WritePoints;

/// Polls `pred` until true or ~5 s elapse; keeps admission tests from
/// hanging forever when an expected wakeup never happens.
bool WaitFor(const std::function<bool()>& pred) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

// ---------------------------------------------------------------------
// Lane-share math

TEST(LaneShareTest, SingleTenantGetsEveryLane) {
  const auto shares =
      AdmissionController::ComputeLaneShares(25, {{"solo", 25}}, 0);
  ASSERT_EQ(shares.size(), 1u);
  EXPECT_EQ(shares.at("solo"), 25);
}

TEST(LaneShareTest, WeightedMaxMinSplitsProportionally) {
  const auto even =
      AdmissionController::ComputeLaneShares(25, {{"a", 1}, {"b", 1}}, 0);
  EXPECT_EQ(even.at("a") + even.at("b"), 25);
  EXPECT_LE(std::abs(even.at("a") - even.at("b")), 1);

  const auto skewed =
      AdmissionController::ComputeLaneShares(24, {{"a", 1}, {"b", 3}}, 0);
  EXPECT_EQ(skewed.at("a"), 6);
  EXPECT_EQ(skewed.at("b"), 18);
}

TEST(LaneShareTest, ZeroWeightTenantsAreExcluded) {
  const auto shares =
      AdmissionController::ComputeLaneShares(10, {{"a", 2}, {"off", 0}}, 0);
  EXPECT_EQ(shares.count("off"), 0u);
  EXPECT_EQ(shares.at("a"), 10);
}

TEST(LaneShareTest, EveryWeightedTenantKeepsALane) {
  const auto shares = AdmissionController::ComputeLaneShares(
      4, {{"whale", 100}, {"a", 1}, {"b", 1}, {"c", 1}}, 7);
  int total = 0;
  for (const auto& [tenant, lanes] : shares) {
    EXPECT_GE(lanes, 1) << tenant;
    total += lanes;
  }
  EXPECT_EQ(total, 4);
}

TEST(LaneShareTest, TieBreakIsDeterministicAndSeedable) {
  // Same seed: identical split on every call. Across seeds the leftover
  // lane moves, so the tie-break is genuinely seed-driven.
  std::set<std::vector<int>> distinct;
  for (uint64_t seed = 0; seed < 32; ++seed) {
    const auto first = AdmissionController::ComputeLaneShares(
        25, {{"a", 1}, {"b", 1}}, seed);
    const auto again = AdmissionController::ComputeLaneShares(
        25, {{"a", 1}, {"b", 1}}, seed);
    EXPECT_EQ(first, again) << "seed " << seed;
    distinct.insert({first.at("a"), first.at("b")});
  }
  EXPECT_GE(distinct.size(), 2u);
}

// ---------------------------------------------------------------------
// FIFO job admission

TEST(AdmissionQueueTest, ZeroQuotaTenantIsRejected) {
  AdmissionController controller(AdmissionOptions{4, 0});
  controller.SetTenantSlots("crawler", 0);
  auto ticket = controller.AdmitJob("crawler");
  ASSERT_FALSE(ticket.ok());
  EXPECT_TRUE(ticket.status().ToString().find("zero admission quota") !=
              std::string::npos)
      << ticket.status().ToString();
}

TEST(AdmissionQueueTest, QuotaBlocksAndServesFifoWithSimulatedWaits) {
  AdmissionController controller(AdmissionOptions{4, 0});
  controller.SetTenantSlots("t", 1);

  auto first = controller.AdmitJob("t");
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value()->sim_wait_ms(), 0.0);

  std::mutex order_mu;
  std::vector<std::string> order;
  auto admit_async = [&](const std::string& label) {
    return std::thread([&, label] {
      auto ticket = controller.AdmitJob("t");
      ASSERT_TRUE(ticket.ok());
      {
        std::lock_guard<std::mutex> lock(order_mu);
        order.push_back(label);
      }
      controller.ReleaseJob(ticket.value().get(), 50.0);
    });
  };

  std::thread second = admit_async("second");
  ASSERT_TRUE(WaitFor([&] { return controller.QueuedJobs("t") == 1; }));
  std::thread third = admit_async("third");
  ASSERT_TRUE(WaitFor([&] { return controller.QueuedJobs("t") == 2; }));

  controller.ReleaseJob(first.value().get(), 100.0);
  second.join();
  third.join();

  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], "second");
  EXPECT_EQ(order[1], "third");

  // Simulated waits follow the tenant's single-lane ledger — 100 ms of
  // backlog when the second job was admitted, 150 when the third was —
  // regardless of the wall-clock race above.
  const TenantStats stats = controller.StatsFor("t");
  EXPECT_EQ(stats.jobs_admitted, 3);
  EXPECT_EQ(stats.jobs_queued, 2);
  EXPECT_DOUBLE_EQ(stats.wait_ms, 250.0);
}

TEST(AdmissionQueueTest, TenantQueuesAreIndependent) {
  AdmissionController controller(AdmissionOptions{4, 0});
  controller.SetTenantSlots("heavy", 1);
  controller.SetTenantSlots("light", 1);

  auto heavy_first = controller.AdmitJob("heavy");
  ASSERT_TRUE(heavy_first.ok());

  std::atomic<bool> heavy_second_admitted{false};
  std::thread heavy_second([&] {
    auto ticket = controller.AdmitJob("heavy");
    ASSERT_TRUE(ticket.ok());
    heavy_second_admitted.store(true);
    controller.ReleaseJob(ticket.value().get(), 10.0);
  });
  ASSERT_TRUE(WaitFor([&] { return controller.QueuedJobs("heavy") == 1; }));

  // The light tenant admits immediately: the heavy backlog is not its
  // queue. (Runs on this thread — a regression would hang, not pass.)
  auto light = controller.AdmitJob("light");
  ASSERT_TRUE(light.ok());
  EXPECT_FALSE(heavy_second_admitted.load());
  EXPECT_EQ(light.value()->sim_wait_ms(), 0.0);
  controller.ReleaseJob(light.value().get(), 5.0);

  controller.ReleaseJob(heavy_first.value().get(), 20.0);
  heavy_second.join();
  EXPECT_EQ(controller.StatsFor("light").jobs_queued, 0);
  EXPECT_EQ(controller.StatsFor("heavy").jobs_queued, 1);
}

// ---------------------------------------------------------------------
// JobRunner integration

/// Map-only job over `path`: one output line per task.
JobConfig CountJob(const TestCluster& cluster, const std::string& path,
                   const std::string& name) {
  class CountMapper : public Mapper {
   public:
    void Map(std::string_view record, MapContext& ctx) override {
      (void)record;
      (void)ctx;
      ++records_;
    }
    void EndSplit(MapContext& ctx) override {
      ctx.WriteOutput("records=" + std::to_string(records_));
    }

   private:
    size_t records_ = 0;
  };
  JobConfig job;
  job.name = name;
  job.splits = MakeBlockSplits(cluster.fs, path).ValueOrDie();
  job.mapper = [] { return std::make_unique<CountMapper>(); };
  return job;
}

/// Mapper that parks in EndSplit until `release` flips — lets a test
/// hold a job "running" while other tenants submit.
JobConfig GateJob(const TestCluster& cluster, const std::string& path,
                  std::atomic<bool>* release) {
  class GateMapper : public Mapper {
   public:
    explicit GateMapper(std::atomic<bool>* release) : release_(release) {}
    void Map(std::string_view record, MapContext& ctx) override {
      (void)record;
      (void)ctx;
    }
    void EndSplit(MapContext& ctx) override {
      (void)ctx;
      while (!release_->load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }

   private:
    std::atomic<bool>* release_;
  };
  JobConfig job;
  job.name = "gate";
  job.splits = MakeBlockSplits(cluster.fs, path).ValueOrDie();
  job.mapper = [release] { return std::make_unique<GateMapper>(release); };
  return job;
}

TEST(AdmissionRunnerTest, SingleTenantRunsAreByteIdenticalToNoController) {
  TestCluster plain;
  WritePoints(&plain.fs, "/pts", 2000);
  const JobResult baseline = plain.runner.Run(CountJob(plain, "/pts", "count"));
  ASSERT_TRUE(baseline.status.ok());

  TestCluster gated;
  WritePoints(&gated.fs, "/pts", 2000);
  AdmissionController controller(
      AdmissionOptions{gated.runner.cluster().num_slots, 0});
  gated.runner.set_admission(&controller, "solo");
  const JobResult admitted = gated.runner.Run(CountJob(gated, "/pts", "count"));
  ASSERT_TRUE(admitted.status.ok());

  // A lone tenant with the default quota owns every lane: output rows,
  // counters and the simulated cost all match the ungated runtime.
  EXPECT_EQ(admitted.output, baseline.output);
  EXPECT_EQ(admitted.counters.values(), baseline.counters.values());
  EXPECT_DOUBLE_EQ(admitted.cost.total_ms, baseline.cost.total_ms);
  EXPECT_DOUBLE_EQ(admitted.cost.map_makespan_ms,
                   baseline.cost.map_makespan_ms);
  EXPECT_EQ(admitted.cost.admission_queued, 0);
  EXPECT_DOUBLE_EQ(admitted.cost.admission_wait_ms, 0.0);
}

TEST(AdmissionRunnerTest, TwoTenantFairnessIsDeterministicAcrossSeeds) {
  for (uint64_t seed : {0ULL, 17ULL, 99ULL}) {
    TestCluster cluster;
    WritePoints(&cluster.fs, "/pts", 2000);
    AdmissionController controller(
        AdmissionOptions{cluster.runner.cluster().num_slots, seed});
    controller.SetTenantSlots("heavy", 1);
    controller.SetTenantSlots("light", 1);

    mapreduce::JobRunner heavy_a(&cluster.fs, cluster.runner.cluster());
    mapreduce::JobRunner heavy_b(&cluster.fs, cluster.runner.cluster());
    mapreduce::JobRunner light(&cluster.fs, cluster.runner.cluster());
    heavy_a.set_admission(&controller, "heavy");
    heavy_b.set_admission(&controller, "heavy");
    light.set_admission(&controller, "light");

    std::atomic<bool> release{false};
    std::mutex order_mu;
    std::vector<std::string> order;
    auto record = [&](const std::string& label) {
      std::lock_guard<std::mutex> lock(order_mu);
      order.push_back(label);
    };

    // Heavy job A admits and parks mid-run; heavy job B queues behind it.
    std::thread thread_a([&] {
      const JobResult r = heavy_a.Run(GateJob(cluster, "/pts", &release));
      ASSERT_TRUE(r.status.ok());
      record("heavy_a");
    });
    ASSERT_TRUE(WaitFor([&] { return controller.RunningJobs("heavy") == 1; }));
    std::thread thread_b([&] {
      const JobResult r = heavy_b.Run(CountJob(cluster, "/pts", "heavy-b"));
      ASSERT_TRUE(r.status.ok());
      record("heavy_b");
    });
    ASSERT_TRUE(WaitFor([&] { return controller.QueuedJobs("heavy") == 1; }));

    // The light tenant's job is admitted (and finishes) while heavy B is
    // still queued — per-tenant quotas keep the fast lane open.
    const JobResult light_result =
        light.Run(CountJob(cluster, "/pts", "light"));
    ASSERT_TRUE(light_result.status.ok());
    record("light");
    EXPECT_EQ(controller.QueuedJobs("heavy"), 1);

    release.store(true, std::memory_order_release);
    thread_a.join();
    thread_b.join();

    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0], "light");

    // The light tenant never queued and its simulated wait is exactly
    // zero on every seed; the heavy tenant queued exactly once.
    const TenantStats light_stats = controller.StatsFor("light");
    EXPECT_EQ(light_stats.jobs_queued, 0) << "seed " << seed;
    EXPECT_DOUBLE_EQ(light_stats.wait_ms, 0.0) << "seed " << seed;
    const TenantStats heavy_stats = controller.StatsFor("heavy");
    EXPECT_EQ(heavy_stats.jobs_queued, 1) << "seed " << seed;
    EXPECT_GT(heavy_stats.wait_ms, 0.0) << "seed " << seed;
  }
}

TEST(AdmissionRunnerTest, SpeculationRespectsOneLaneShares) {
  // Two equal tenants on a two-slot cluster: one lane each, so a
  // speculative backup can never fit. The injector wants to speculate
  // (hard stragglers), the quota vetoes it, and the veto count is a pure
  // function of the injector's decisions — identical on every run.
  fault::FaultPolicy policy;
  policy.seed = 11;
  policy.straggler_prob = 0.6;
  policy.straggler_delay_ms = 30000.0;
  std::vector<int64_t> preempted_runs;
  std::vector<int64_t> launched_runs;
  for (int run = 0; run < 2; ++run) {
    TestCluster cluster(4 * 1024, /*num_slots=*/2);
    WritePoints(&cluster.fs, "/pts", 2000);
    fault::FaultInjector injector(policy);
    AdmissionController controller(AdmissionOptions{2, 0});
    controller.SetTenantSlots("heavy", 1);
    controller.SetTenantSlots("light", 1);
    cluster.runner.set_admission(&controller, "heavy");
    cluster.runner.set_fault_injector(&injector);

    const JobResult result = cluster.runner.Run(
        CountJob(cluster, "/pts", "speculation-quota"));
    ASSERT_TRUE(result.status.ok());
    EXPECT_EQ(result.cost.speculative_launched, 0);
    EXPECT_GT(result.cost.admission_preempted_specs, 0);
    EXPECT_EQ(result.counters.Get("admission.preempted_specs"),
              result.cost.admission_preempted_specs);
    preempted_runs.push_back(result.cost.admission_preempted_specs);
    launched_runs.push_back(result.cost.speculative_launched);
  }
  EXPECT_EQ(preempted_runs[0], preempted_runs[1]);
  EXPECT_EQ(launched_runs[0], launched_runs[1]);
}

// ---------------------------------------------------------------------
// Pigeon session knobs

TEST(PigeonAdmissionTest, ZeroQuotaTenantFailsWithLinePrefixedError) {
  TestCluster cluster;
  WritePoints(&cluster.fs, "/pts", 500);
  pigeon::Executor executor(&cluster.runner);
  auto report = executor.Execute(
      "SET tenant 'crawler';\n"
      "SET tenant_slots 0;\n"
      "pts = LOAD '/pts' AS POINT;\n"
      "hits = RANGE pts RECTANGLE(0, 0, 500, 500);\n");
  ASSERT_FALSE(report.ok());
  const std::string message = report.status().ToString();
  EXPECT_TRUE(message.find("line 4:") != std::string::npos) << message;
  EXPECT_TRUE(message.find("zero admission quota") != std::string::npos)
      << message;
}

TEST(PigeonAdmissionTest, SessionKnobsDriveRunnerAndExplainCounters) {
  TestCluster cluster;
  WritePoints(&cluster.fs, "/pts", 500);
  pigeon::Executor executor(&cluster.runner);

  // Quota 1 + two sequential jobs: the second job queues in the
  // tenant's simulated ledger, so EXPLAIN reports admission work.
  auto report = executor.Execute(
      "SET tenant 'analyst';\n"
      "SET tenant_slots 1;\n"
      "SET max_task_attempts 5;\n"
      "pts = LOAD '/pts' AS POINT;\n"
      "a = COUNT pts RECTANGLE(0, 0, 500, 500);\n"
      "b = COUNT pts RECTANGLE(0, 0, 250, 250);\n"
      "EXPLAIN b;\n");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(executor.tenant(), "analyst");
  EXPECT_EQ(cluster.runner.max_task_attempts(), 5);
  ASSERT_TRUE(executor.admission_controller() != nullptr);
  EXPECT_EQ(executor.admission_controller()->TenantSlots("analyst"), 1);

  ASSERT_FALSE(report->dump_output.empty());
  const std::string& explain = report->dump_output.back();
  EXPECT_TRUE(explain.find("; admission: queued=1, wait_ms=") !=
              std::string::npos)
      << explain;
  EXPECT_EQ(report->stats.cost.admission_queued, 1);
  EXPECT_GT(report->stats.cost.admission_wait_ms, 0.0);
  EXPECT_EQ(report->stats.counters.Get("admission.queued"), 1);
}

TEST(PigeonAdmissionTest, DefaultSessionHasNoAdmissionSegment) {
  TestCluster cluster;
  WritePoints(&cluster.fs, "/pts", 500);
  pigeon::Executor executor(&cluster.runner);
  auto report = executor.Execute(
      "pts = LOAD '/pts' AS POINT;\n"
      "a = COUNT pts RECTANGLE(0, 0, 500, 500);\n"
      "EXPLAIN a;\n");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(executor.admission_controller() == nullptr);
  for (const std::string& line : report->dump_output) {
    EXPECT_EQ(line.find("admission:"), std::string::npos) << line;
  }
  EXPECT_EQ(report->stats.counters.Get("admission.queued"), 0);
}

TEST(PigeonAdmissionTest, SingleTenantScriptMatchesDefaultByteForByte) {
  // The degenerate config — one tenant, default quota — must reproduce
  // the ungated session's rows and counters exactly.
  auto run_script = [](bool with_tenant) {
    TestCluster cluster;
    WritePoints(&cluster.fs, "/pts", 800);
    pigeon::Executor executor(&cluster.runner);
    std::string script;
    if (with_tenant) script += "SET tenant 'solo';\n";
    script +=
        "pts = LOAD '/pts' AS POINT;\n"
        "idx = INDEX pts WITH GRID;\n"
        "hits = RANGE idx RECTANGLE(100, 100, 600, 600);\n"
        "n = COUNT idx RECTANGLE(0, 0, 500, 500);\n"
        "DUMP n;\n"
        "DUMP hits;\n"
        "EXPLAIN idx;\n";
    auto report = executor.Execute(script);
    SHADOOP_CHECK_OK(report.status());
    return std::make_pair(report->dump_output,
                          report->stats.counters.values());
  };
  const auto ungated = run_script(false);
  const auto gated = run_script(true);
  EXPECT_EQ(gated.first, ungated.first);
  EXPECT_EQ(gated.second, ungated.second);
}

TEST(PigeonAdmissionTest, RetryCapKnobBoundsRetries) {
  fault::FaultPolicy policy;
  policy.seed = 1;
  policy.map_failure_prob = 0.995;
  TestCluster cluster;
  WritePoints(&cluster.fs, "/pts", 500);
  fault::FaultInjector injector(policy);
  cluster.runner.set_fault_injector(&injector);
  pigeon::Executor executor(&cluster.runner);
  auto report = executor.Execute(
      "SET max_task_attempts 1;\n"
      "pts = LOAD '/pts' AS POINT;\n"
      "a = COUNT pts RECTANGLE(0, 0, 500, 500);\n");
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.status().ToString().find("failed after 1 attempt(s)") !=
              std::string::npos)
      << report.status().ToString();
}

TEST(PigeonAdmissionTest, SharedControllerKeepsJoinBacklogOffRangeQueries) {
  // The ISSUE scenario in operator terms: a heavy tenant hammering
  // spatial joins and a light tenant running range queries, two Pigeon
  // sessions sharing one controller. The heavy tenant's quota-1 ledger
  // accrues backlog; the light tenant's stays empty — its wait_ms is
  // exactly zero, and every counter repeats across runs and seeds.
  auto run_scenario = [](uint64_t seed) {
    TestCluster cluster;
    WritePoints(&cluster.fs, "/a", 600, workload::Distribution::kUniform, 1);
    WritePoints(&cluster.fs, "/b", 600, workload::Distribution::kUniform, 2);
    AdmissionController controller(AdmissionOptions{
        cluster.runner.cluster().num_slots, seed});

    pigeon::Executor heavy(&cluster.runner);
    heavy.set_admission_controller(&controller);
    SHADOOP_CHECK_OK(heavy
                         .Execute("SET tenant 'heavy';\n"
                                  "SET tenant_slots 1;\n"
                                  "a = LOAD '/a' AS POINT;\n"
                                  "b = LOAD '/b' AS POINT;\n"
                                  "j1 = SJOIN a, b;\n"
                                  "j2 = SJOIN b, a;\n")
                         .status());

    pigeon::Executor light(&cluster.runner);
    light.set_admission_controller(&controller);
    auto report = light.Execute(
        "SET tenant 'light';\n"
        "p = LOAD '/a' AS POINT;\n"
        "r = RANGE p RECTANGLE(0, 0, 600000, 600000);\n"
        "DUMP r;\n");
    SHADOOP_CHECK_OK(report.status());

    const TenantStats heavy_stats = controller.StatsFor("heavy");
    const TenantStats light_stats = controller.StatsFor("light");
    return std::make_tuple(heavy_stats.jobs_queued, heavy_stats.wait_ms,
                           light_stats.wait_ms,
                           report->stats.cost.admission_wait_ms,
                           report->dump_output.size());
  };

  for (uint64_t seed : {0ULL, 42ULL}) {
    const auto first = run_scenario(seed);
    const auto again = run_scenario(seed);
    EXPECT_EQ(first, again) << "seed " << seed;
    // The heavy tenant's second join queued behind its first...
    EXPECT_GE(std::get<0>(first), 1) << "seed " << seed;
    EXPECT_GT(std::get<1>(first), 0.0) << "seed " << seed;
    // ...while the light tenant's range query never waited at all.
    EXPECT_DOUBLE_EQ(std::get<2>(first), 0.0) << "seed " << seed;
    EXPECT_DOUBLE_EQ(std::get<3>(first), 0.0) << "seed " << seed;
    EXPECT_GT(std::get<4>(first), 0u) << "seed " << seed;
  }
}

TEST(PigeonAdmissionTest, ParserRejectsBadKnobs) {
  TestCluster cluster;
  pigeon::Executor executor(&cluster.runner);
  EXPECT_FALSE(executor.Execute("SET tenant_slots -1;").ok());
  EXPECT_FALSE(executor.Execute("SET max_task_attempts 0;").ok());
  EXPECT_FALSE(executor.Execute("SET warp_speed 9;").ok());
  EXPECT_FALSE(executor.Execute("SET tenant '';").ok());
}

}  // namespace
}  // namespace shadoop
