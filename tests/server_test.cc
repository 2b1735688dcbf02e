// Tests for the Pigeon query server (src/server/, DESIGN.md §14): session
// byte-parity with the standalone executor, the shared result cache
// (hit == miss in rows and charges, version bumps invalidate), the
// snapshot_version-0 re-pin fix, and deterministic concurrent serving
// across admission seeds, lane counts and cache producers. The concurrent
// cases run under TSan via scripts/check.sh.
#include "server/query_server.h"

#include <map>
#include <string>
#include <vector>

#include "cpu_affinity.h"
#include "gtest/gtest.h"
#include "mapreduce/job.h"
#include "pigeon/executor.h"
#include "test_util.h"
#include "workload/generators.h"

namespace shadoop::server {
namespace {

using pigeon::ExecutionReport;

// Every JobCost field, compared exactly: a result-cache hit must replay
// them all. (Wall-clock time is deliberately excluded everywhere.)
void ExpectSameCost(const mapreduce::JobCost& a, const mapreduce::JobCost& b) {
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
  EXPECT_EQ(a.replica_failovers, b.replica_failovers);
  EXPECT_EQ(a.admission_queued, b.admission_queued);
  EXPECT_EQ(a.admission_wait_ms, b.admission_wait_ms);
  EXPECT_EQ(a.admission_preempted_specs, b.admission_preempted_specs);
}

// Counters minus the server's own cache.* bookkeeping (the one
// deliberate difference between a served session and a standalone run).
std::map<std::string, int64_t> NonCacheCounters(
    const mapreduce::Counters& counters) {
  std::map<std::string, int64_t> out;
  for (const auto& [name, value] : counters.values()) {
    if (name.rfind("cache.", 0) == 0) continue;
    out.emplace(name, value);
  }
  return out;
}

void WriteBatch(hdfs::FileSystem* fs, const std::string& path, size_t count,
                uint64_t seed) {
  workload::PointGenOptions options;
  options.count = count;
  options.seed = seed;
  SHADOOP_CHECK_OK(fs->WriteLines(
      path, workload::PointsToRecords(workload::GeneratePoints(options))));
}

// Builds "/pts" + a bulk grid index persisted at "/pts_idx" so a server
// can AttachDataset it.
void SeedIndexedDataset(testing::TestCluster* cluster, size_t count = 600) {
  testing::WritePoints(&cluster->fs, "/pts", count);
  testing::BuildIndex(&cluster->runner, "/pts", "/pts_idx",
                      index::PartitionScheme::kGrid);
}

ServerOptions SmallClusterOptions() {
  ServerOptions options;
  options.cluster = testing::TestCluster::MakeCluster(4);
  return options;
}

// ---------------------------------------------------------------------------
// Single-session byte parity with the standalone executor.

TEST(QueryServerTest, SingleSessionMatchesDirectExecutorByteForByte) {
  const char* kScript[] = {
      "p = LOAD '/pts' AS POINT;",
      "i = INDEX p WITH GRID;",
      "r = RANGE i RECTANGLE(0, 0, 400000, 400000);",
      "c = COUNT i RECTANGLE(100000, 100000, 900000, 900000);",
      "DUMP r; DUMP c;",
      "n = KNN i POINT(500000, 500000) K 5; DUMP n;",
      "EXPLAIN i;",
  };

  // Reference: one standalone executor, one Execute call. The first
  // server session materializes temporaries under the "s0_" namespace
  // (so concurrent sessions never collide on the shared filesystem);
  // give the reference executor the same namespace so EXPLAIN prints
  // identical paths.
  testing::TestCluster direct_cluster;
  testing::WritePoints(&direct_cluster.fs, "/pts", 500);
  pigeon::Executor direct(&direct_cluster.runner);
  direct.set_temp_namespace("s0_");
  std::string joined;
  for (const char* stmt : kScript) joined += std::string(stmt) + "\n";
  const ExecutionReport expected = direct.Execute(joined).ValueOrDie();

  // Served: same statements split across one request each. The result
  // cache is off so the session's EXPLAIN/counters carry no cache.*
  // traces at all — cached-path parity is covered separately below.
  testing::TestCluster served_cluster;
  testing::WritePoints(&served_cluster.fs, "/pts", 500);
  ServerOptions options = SmallClusterOptions();
  options.enable_result_cache = false;
  QueryServer server(&served_cluster.fs, options);
  const SessionId session = server.OpenSession().ValueOrDie();
  std::vector<std::string> rows;
  for (const char* stmt : kScript) {
    Result<RequestResult> request = server.Execute(session, stmt);
    ASSERT_TRUE(request.ok()) << stmt;
    rows.insert(rows.end(), request->rows.begin(), request->rows.end());
  }

  EXPECT_EQ(rows, expected.dump_output);
  const ExecutionReport& report =
      *server.SessionReport(session).ValueOrDie();
  ExpectSameCost(report.stats.cost, expected.stats.cost);
  EXPECT_EQ(report.stats.jobs_run, expected.stats.jobs_run);
  EXPECT_EQ(NonCacheCounters(report.stats.counters),
            NonCacheCounters(expected.stats.counters));
}

// ---------------------------------------------------------------------------
// Result cache: hits are byte-identical to misses, shared across
// sessions, invalidated by version bumps.

TEST(QueryServerTest, CacheHitReturnsIdenticalRowsAndCharges) {
  testing::TestCluster cluster;
  SeedIndexedDataset(&cluster);
  QueryServer server(&cluster.fs, SmallClusterOptions());
  ASSERT_TRUE(server.AttachDataset("idx", "/pts_idx").ok());
  const SessionId session = server.OpenSession().ValueOrDie();

  const RequestResult miss =
      server
          .Execute(session,
                   "a = RANGE idx RECTANGLE(0, 0, 500000, 500000); DUMP a;")
          .ValueOrDie();
  EXPECT_EQ(miss.result_cache_hits, 0);
  EXPECT_EQ(miss.result_cache_misses, 1);
  EXPECT_FALSE(miss.rows.empty());
  EXPECT_GT(miss.sim_latency_ms, 0.0);

  // Different whitespace, comment noise and a different target name:
  // the normalized key matches and the hit replays the stored charges.
  const RequestResult hit =
      server
          .Execute(session,
                   "b =   RANGE idx -- same query, noisier spelling\n"
                   "  RECTANGLE(0,0, 500000,500000); DUMP b;")
          .ValueOrDie();
  EXPECT_EQ(hit.result_cache_hits, 1);
  EXPECT_EQ(hit.result_cache_misses, 0);
  EXPECT_EQ(hit.rows, miss.rows);
  ExpectSameCost(hit.cost, miss.cost);
  EXPECT_DOUBLE_EQ(hit.sim_latency_ms, miss.sim_latency_ms);

  EXPECT_EQ(server.result_cache().size(), 1u);
  EXPECT_EQ(server.result_cache().hits(), 1u);
  EXPECT_EQ(server.result_cache().misses(), 1u);
}

TEST(QueryServerTest, CacheIsSharedAcrossSessions) {
  testing::TestCluster cluster;
  SeedIndexedDataset(&cluster);
  QueryServer server(&cluster.fs, SmallClusterOptions());
  ASSERT_TRUE(server.AttachDataset("idx", "/pts_idx").ok());
  const SessionId s1 = server.OpenSession().ValueOrDie();
  const SessionId s2 = server.OpenSession().ValueOrDie();

  const char* kQuery = "q = COUNT idx RECTANGLE(0, 0, 800000, 800000); DUMP q;";
  const RequestResult first = server.Execute(s1, kQuery).ValueOrDie();
  const RequestResult second = server.Execute(s2, kQuery).ValueOrDie();
  EXPECT_EQ(first.result_cache_misses, 1);
  EXPECT_EQ(second.result_cache_hits, 1);
  EXPECT_EQ(second.rows, first.rows);
  ExpectSameCost(second.cost, first.cost);
}

TEST(QueryServerTest, RequestChargesAreExactWhateverRanBefore) {
  // Three ways to serve one COUNT must report bit-identical charges: a
  // fresh miss, a miss after the session already paid for a RANGE, and
  // the hit of that second miss in another session.
  testing::TestCluster cluster;
  SeedIndexedDataset(&cluster);
  const std::string count =
      "c = COUNT idx RECTANGLE(150000, 150000, 650000, 650000);";
  QueryServer fresh_server(&cluster.fs, SmallClusterOptions());
  ASSERT_TRUE(fresh_server.AttachDataset("idx", "/pts_idx").ok());
  const RequestResult fresh =
      fresh_server.Execute(fresh_server.OpenSession().ValueOrDie(), count)
          .ValueOrDie();
  ASSERT_EQ(fresh.result_cache_misses, 1);
  auto expect_exact = [&fresh](const RequestResult& got) {
    EXPECT_EQ(got.cost.total_ms, fresh.cost.total_ms);
    EXPECT_EQ(got.cost.map_makespan_ms, fresh.cost.map_makespan_ms);
    EXPECT_EQ(got.cost.shuffle_ms, fresh.cost.shuffle_ms);
    EXPECT_EQ(got.cost.reduce_makespan_ms, fresh.cost.reduce_makespan_ms);
    EXPECT_EQ(got.sim_latency_ms, fresh.sim_latency_ms);
  };
  // Several prior RANGE windows, so the prior totals vary in magnitude.
  for (int i = 1; i <= 8; ++i) {
    QueryServer server(&cluster.fs, SmallClusterOptions());
    ASSERT_TRUE(server.AttachDataset("idx", "/pts_idx").ok());
    const SessionId first = server.OpenSession().ValueOrDie();
    const SessionId second = server.OpenSession().ValueOrDie();
    const std::string edge = std::to_string(i * 110000);
    ASSERT_TRUE(server
                    .Execute(first, "r = RANGE idx RECTANGLE(0, 0, " + edge +
                                        ", " + edge + ");")
                    .ok());
    const RequestResult miss = server.Execute(first, count).ValueOrDie();
    const RequestResult hit = server.Execute(second, count).ValueOrDie();
    ASSERT_EQ(miss.result_cache_misses, 1);
    ASSERT_EQ(hit.result_cache_hits, 1);
    SCOPED_TRACE("prior window edge " + edge);
    expect_exact(miss);
    expect_exact(hit);
  }
}

TEST(QueryServerTest, AppendVersionBumpInvalidatesCacheKey) {
  testing::TestCluster cluster;
  SeedIndexedDataset(&cluster, 500);
  WriteBatch(&cluster.fs, "/batch", 200, 7);
  QueryServer server(&cluster.fs, SmallClusterOptions());
  ASSERT_TRUE(server.AttachDataset("idx", "/pts_idx").ok());
  const SessionId s1 = server.OpenSession().ValueOrDie();

  const char* kCount =
      "c = COUNT idx RECTANGLE(0, 0, 1000000, 1000000); DUMP c;";
  const RequestResult before = server.Execute(s1, kCount).ValueOrDie();
  EXPECT_EQ(before.rows, std::vector<std::string>{"500"});

  // Ingest a batch: version 2 exists, but s1's binding stays pinned at
  // v1, so the same key still hits.
  ASSERT_TRUE(server.Execute(s1, "g = LOAD '/batch' APPEND idx;").ok());
  const RequestResult pinned = server.Execute(s1, kCount).ValueOrDie();
  EXPECT_EQ(pinned.rows, std::vector<std::string>{"500"});
  EXPECT_EQ(pinned.result_cache_hits, 1);

  // Re-pinning to the latest version changes the key: fresh miss, fresh
  // rows that include the appended batch.
  const RequestResult repinned =
      server.Execute(s1, std::string("SET snapshot_version 0; ") + kCount)
          .ValueOrDie();
  EXPECT_EQ(repinned.rows, std::vector<std::string>{"700"});
  EXPECT_EQ(repinned.result_cache_misses, 1);
  EXPECT_EQ(repinned.result_cache_hits, 0);
}

TEST(QueryServerTest, PlanTokenChangeInvalidatesCacheKey) {
  // The cache key carries the optimizer's plan token, so a session that
  // flips the planner must never replay rows cached under a different
  // physical plan — same text, different key.
  testing::TestCluster cluster;
  SeedIndexedDataset(&cluster, 500);
  QueryServer server(&cluster.fs, SmallClusterOptions());
  ASSERT_TRUE(server.AttachDataset("idx", "/pts_idx").ok());
  const SessionId s1 = server.OpenSession().ValueOrDie();

  const char* kCount =
      "c = COUNT idx RECTANGLE(0, 0, 1000000, 1000000); DUMP c;";
  const RequestResult planned = server.Execute(s1, kCount).ValueOrDie();
  EXPECT_EQ(planned.rows, std::vector<std::string>{"500"});
  EXPECT_EQ(planned.result_cache_misses, 1);

  // Optimizer off: the plan token flips from "pruned" to "legacy", so
  // the identical text misses instead of replaying the planned entry.
  ASSERT_TRUE(server.Execute(s1, "SET optimizer off;").ok());
  const RequestResult legacy = server.Execute(s1, kCount).ValueOrDie();
  EXPECT_EQ(legacy.rows, std::vector<std::string>{"500"});
  EXPECT_EQ(legacy.result_cache_hits, 0);
  EXPECT_EQ(legacy.result_cache_misses, 1);

  // Back on: the plan token is deterministic, so the original entry
  // hits again — and a second session shares it.
  ASSERT_TRUE(server.Execute(s1, "SET optimizer on;").ok());
  const RequestResult replay = server.Execute(s1, kCount).ValueOrDie();
  EXPECT_EQ(replay.result_cache_hits, 1);
  const SessionId s2 = server.OpenSession().ValueOrDie();
  const RequestResult shared = server.Execute(s2, kCount).ValueOrDie();
  EXPECT_EQ(shared.rows, std::vector<std::string>{"500"});
  EXPECT_EQ(shared.result_cache_hits, 1);
}

TEST(QueryServerTest, CacheHitExplainsThePreparedPlan) {
  // A hit binds the cached rows with the plan its own Prepare priced, so
  // its EXPLAIN equals the miss's except for the result_cache counts.
  testing::TestCluster cluster;
  SeedIndexedDataset(&cluster);
  QueryServer server(&cluster.fs, SmallClusterOptions());
  ASSERT_TRUE(server.AttachDataset("idx", "/pts_idx").ok());
  const char* kQuery =
      "a = RANGE idx RECTANGLE(0, 0, 500000, 500000); EXPLAIN a;";
  const RequestResult miss =
      server.Execute(server.OpenSession().ValueOrDie(), kQuery).ValueOrDie();
  const RequestResult hit =
      server.Execute(server.OpenSession().ValueOrDie(), kQuery).ValueOrDie();
  ASSERT_EQ(miss.result_cache_misses, 1);
  ASSERT_EQ(hit.result_cache_hits, 1);
  ASSERT_EQ(miss.rows.size(), 1u);
  ASSERT_EQ(hit.rows.size(), 1u);
  const size_t plan_at = miss.rows[0].find("; plan: op=range chosen=");
  ASSERT_NE(plan_at, std::string::npos) << miss.rows[0];
  EXPECT_TRUE(hit.rows[0].ends_with(miss.rows[0].substr(plan_at)))
      << hit.rows[0];
  const auto without_cache_counts = [](std::string line) {
    const size_t at = line.find("; result_cache: ");
    return line.erase(at, line.find(';', at + 1) - at);
  };
  EXPECT_EQ(without_cache_counts(hit.rows[0]),
            without_cache_counts(miss.rows[0]));
}

// ---------------------------------------------------------------------------
// What a session keeps: charges and bindings, not rows.

TEST(QueryServerTest, SessionKeepsNoRowsAcrossRequests) {
  testing::TestCluster cluster;
  SeedIndexedDataset(&cluster);
  QueryServer server(&cluster.fs, SmallClusterOptions());
  ASSERT_TRUE(server.AttachDataset("idx", "/pts_idx").ok());
  const SessionId session = server.OpenSession().ValueOrDie();
  size_t last_rows = 0;
  for (int i = 0; i < 200; ++i) {
    const std::string edge = std::to_string(50000 + 4000 * (i % 50));
    const RequestResult request =
        server
            .Execute(session, "r = RANGE idx RECTANGLE(0, 0, " + edge + ", " +
                                  edge + "); DUMP r;")
            .ValueOrDie();
    last_rows = request.rows.size();
  }
  const ExecutionReport& report = *server.SessionReport(session).ValueOrDie();
  EXPECT_TRUE(report.dump_output.empty());
  EXPECT_GT(report.stats.jobs_run, 0);
  // The server exposes no session executor, so read the one binding `r`
  // through EXPLAIN: it holds the last request's rows, nothing earlier.
  const RequestResult explain =
      server.Execute(session, "EXPLAIN r;").ValueOrDie();
  ASSERT_EQ(explain.rows.size(), 1u);
  EXPECT_NE(explain.rows[0].find("materialized result (" +
                                 std::to_string(last_rows) + " records)"),
            std::string::npos)
      << explain.rows[0];
}

TEST(QueryServerTest, FailedRequestDropsItsRows) {
  testing::TestCluster cluster;
  SeedIndexedDataset(&cluster);
  QueryServer server(&cluster.fs, SmallClusterOptions());
  ASSERT_TRUE(server.AttachDataset("idx", "/pts_idx").ok());
  const SessionId session = server.OpenSession().ValueOrDie();
  const auto failed = server.Execute(
      session,
      "c = COUNT idx RECTANGLE(0, 0, 1000000, 1000000); DUMP c;"
      "x = RANGE nope RECTANGLE(0, 0, 1, 1);");
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(server.SessionReport(session).ValueOrDie()->dump_output.empty());
  // `c` was bound before the failure; the next request sees only its own
  // row.
  const RequestResult next = server.Execute(session, "DUMP c;").ValueOrDie();
  EXPECT_EQ(next.rows, std::vector<std::string>{"600"});
}

// ---------------------------------------------------------------------------
// snapshot_version 0 semantics (the re-pin fix) and per-session pinning.

TEST(ExecutorSnapshotTest, ExplicitSnapshotVersionZeroFollowsLatest) {
  testing::TestCluster cluster;
  testing::WritePoints(&cluster.fs, "/pts", 500);
  WriteBatch(&cluster.fs, "/batch", 200, 11);
  pigeon::Executor executor(&cluster.runner);
  const ExecutionReport report =
      executor
          .Execute(R"(
    raw = LOAD '/pts' AS POINT;
    idx = INDEX raw WITH GRID;
    g = LOAD '/batch' APPEND idx;
    c_pinned = COUNT idx RECTANGLE(0, 0, 1000000, 1000000);
    SET snapshot_version 0;
    c_latest = COUNT idx RECTANGLE(0, 0, 1000000, 1000000);
    DUMP c_pinned;
    DUMP c_latest;
  )")
          .ValueOrDie();
  ASSERT_EQ(report.dump_output.size(), 2u);
  // Before the knob: the binding's own v1 pin.
  EXPECT_EQ(report.dump_output[0], "500");
  // `SET snapshot_version 0` re-pins to the latest version at next use —
  // it must NOT keep serving the stale v1 binding.
  EXPECT_EQ(report.dump_output[1], "700");
}

TEST(QueryServerTest, TwoSessionsPinDifferentVersionsOfOneDataset) {
  testing::TestCluster cluster;
  SeedIndexedDataset(&cluster, 500);
  WriteBatch(&cluster.fs, "/batch", 200, 13);
  QueryServer server(&cluster.fs, SmallClusterOptions());
  ASSERT_TRUE(server.AttachDataset("idx", "/pts_idx").ok());

  // s1 opens against v1, then the dataset grows to v2; s2 opens after
  // and pre-binds v2. The two sessions must read their own snapshots.
  const SessionId s1 = server.OpenSession().ValueOrDie();
  ASSERT_TRUE(server.Execute(s1, "g = LOAD '/batch' APPEND idx;").ok());
  const SessionId s2 = server.OpenSession().ValueOrDie();

  const char* kCount =
      "c = COUNT idx RECTANGLE(0, 0, 1000000, 1000000); DUMP c;";
  const RequestResult old_pin = server.Execute(s1, kCount).ValueOrDie();
  const RequestResult new_pin = server.Execute(s2, kCount).ValueOrDie();
  EXPECT_EQ(old_pin.rows, std::vector<std::string>{"500"});
  EXPECT_EQ(new_pin.rows, std::vector<std::string>{"700"});
  // Distinct versions, distinct cache keys: both were misses.
  EXPECT_EQ(old_pin.result_cache_misses, 1);
  EXPECT_EQ(new_pin.result_cache_misses, 1);

  // After s1 re-pins to latest it converges with s2 — and scores a hit
  // on the entry s2 just produced.
  const RequestResult converged =
      server.Execute(s1, std::string("SET snapshot_version 0; ") + kCount)
          .ValueOrDie();
  EXPECT_EQ(converged.rows, new_pin.rows);
  EXPECT_EQ(converged.result_cache_hits, 1);
  ExpectSameCost(converged.cost, new_pin.cost);
}

// ---------------------------------------------------------------------------
// EXPLAIN cache counters.

TEST(QueryServerTest, ExplainSurfacesResultCacheButNotArtifactCounters) {
  testing::TestCluster cluster;
  SeedIndexedDataset(&cluster);
  QueryServer server(&cluster.fs, SmallClusterOptions());
  ASSERT_TRUE(server.AttachDataset("idx", "/pts_idx").ok());
  const SessionId session = server.OpenSession().ValueOrDie();

  const char* kQuery = "r = RANGE idx RECTANGLE(0, 0, 300000, 300000);";
  ASSERT_TRUE(server.Execute(session, kQuery).ok());
  ASSERT_TRUE(server.Execute(session, kQuery).ok());
  const RequestResult explain =
      server.Execute(session, "EXPLAIN idx;").ValueOrDie();
  ASSERT_EQ(explain.rows.size(), 1u);
  const std::string& line = explain.rows[0];
  // The session ran real jobs, so the artifact cache was consulted, but
  // its hit/miss split depends on which concurrent task inserts a block's
  // artifact first: host telemetry, kept out of EXPLAIN.
  EXPECT_EQ(line.find("artifact_cache"), std::string::npos) << line;
  // One executed query, one cached replay.
  EXPECT_NE(line.find("; result_cache: hits=1, misses=1"), std::string::npos)
      << line;
}

TEST(ExecutorExplainTest, NoCacheSegmentsBeforeAnyLookup) {
  // nonzero-only contract: a fresh session that ran no job shows
  // neither cache segment, keeping historical EXPLAIN output
  // byte-identical.
  testing::TestCluster cluster;
  testing::WritePoints(&cluster.fs, "/pts", 100);
  pigeon::Executor executor(&cluster.runner);
  const ExecutionReport report =
      executor.Execute("p = LOAD '/pts' AS POINT; EXPLAIN p;").ValueOrDie();
  ASSERT_EQ(report.dump_output.size(), 1u);
  EXPECT_EQ(report.dump_output[0].find("artifact_cache"), std::string::npos);
  EXPECT_EQ(report.dump_output[0].find("result_cache"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Concurrent serving: determinism across reruns, admission seeds, and
// vs. sequential execution of the same mix.

// The mixed query template stream of one session. Repeats guarantee
// cross-session cache traffic.
std::vector<std::string> MixedScripts(int salt) {
  const std::string r1 = std::to_string(100000 * (salt + 1));
  return {
      "a = RANGE idx RECTANGLE(0, 0, " + r1 + ", " + r1 + "); DUMP a;",
      "b = COUNT idx RECTANGLE(0, 0, 600000, 600000); DUMP b;",
      "c = KNN idx POINT(450000, 550000) K 3; DUMP c;",
      "d = COUNT idx RECTANGLE(0, 0, 600000, 600000); DUMP d;",
  };
}

struct ConcurrentRun {
  std::vector<std::vector<std::string>> rows;     // [stream][request] rows
  std::vector<std::vector<double>> latencies_ms;  // [stream][request]
  std::vector<std::vector<mapreduce::JobCost>> costs;  // [stream][request]
  int64_t cache_hits = 0;
};

// Serves the four tenant streams of MixedScripts on a fresh server: all
// at once through ExecuteConcurrent, or one session after another.
ConcurrentRun RunSaturation(uint64_t admission_seed, bool result_cache = true,
                            bool concurrent = true) {
  testing::TestCluster cluster;
  SeedIndexedDataset(&cluster, 800);
  ServerOptions options = SmallClusterOptions();
  options.admission_seed = admission_seed;
  options.enable_result_cache = result_cache;
  QueryServer server(&cluster.fs, options);
  SHADOOP_CHECK_OK(server.AttachDataset("idx", "/pts_idx"));

  // 4 tenants x 1 slot on a 4-slot cluster: equal, seed-invariant lane
  // shares, and no tenant ever queues behind itself.
  std::vector<SessionStream> streams;
  for (int i = 0; i < 4; ++i) {
    const SessionId id =
        server.OpenSession("tenant" + std::to_string(i), 1).ValueOrDie();
    streams.push_back(SessionStream{id, MixedScripts(i)});
  }
  std::vector<std::vector<RequestResult>> results;
  if (concurrent) {
    results = server.ExecuteConcurrent(streams).ValueOrDie();
  } else {
    for (const SessionStream& stream : streams) {
      results.emplace_back();
      for (const std::string& script : stream.scripts) {
        results.back().push_back(
            server.Execute(stream.session, script).ValueOrDie());
      }
    }
  }

  ConcurrentRun run;
  run.rows.resize(results.size());
  run.latencies_ms.resize(results.size());
  run.costs.resize(results.size());
  for (size_t i = 0; i < results.size(); ++i) {
    for (const RequestResult& request : results[i]) {
      std::string flat;
      for (const std::string& row : request.rows) flat += row + "\n";
      run.rows[i].push_back(std::move(flat));
      run.latencies_ms[i].push_back(request.sim_latency_ms);
      run.costs[i].push_back(request.cost);
      run.cache_hits += request.result_cache_hits;
    }
  }
  return run;
}

TEST(QueryServerTest, ConcurrentExecutionIsDeterministicAcrossSeeds) {
  const ConcurrentRun base = RunSaturation(0);
  for (uint64_t seed : {uint64_t{1}, uint64_t{2}}) {
    const ConcurrentRun other = RunSaturation(seed);
    EXPECT_EQ(other.rows, base.rows) << "seed " << seed;
    ASSERT_EQ(other.latencies_ms.size(), base.latencies_ms.size());
    for (size_t i = 0; i < base.latencies_ms.size(); ++i) {
      ASSERT_EQ(other.latencies_ms[i].size(), base.latencies_ms[i].size());
      for (size_t j = 0; j < base.latencies_ms[i].size(); ++j) {
        EXPECT_DOUBLE_EQ(other.latencies_ms[i][j], base.latencies_ms[i][j])
            << "stream " << i << " request " << j << " seed " << seed;
      }
    }
  }
}

TEST(QueryServerTest, ConcurrentExecutionIsDeterministicAcrossReruns) {
  const ConcurrentRun first = RunSaturation(0);
  const ConcurrentRun second = RunSaturation(0);
  EXPECT_EQ(second.rows, first.rows);
  for (size_t i = 0; i < first.latencies_ms.size(); ++i) {
    for (size_t j = 0; j < first.latencies_ms[i].size(); ++j) {
      EXPECT_DOUBLE_EQ(second.latencies_ms[i][j], first.latencies_ms[i][j]);
    }
  }
}

TEST(QueryServerTest, ConcurrentRowsMatchSequentialExecution) {
  // A fresh server running the same streams one session at a time must
  // produce byte-identical rows: concurrency is invisible in results.
  const ConcurrentRun sequential =
      RunSaturation(0, /*result_cache=*/true, /*concurrent=*/false);
  const ConcurrentRun concurrent = RunSaturation(0);
  EXPECT_EQ(concurrent.rows, sequential.rows);
}

TEST(QueryServerTest, CacheHitsChargeLikeMissesOfTheRequestingTenant) {
  // Which session produces a shared entry depends on interleaving; what
  // a request is charged must not. Every request of the concurrent,
  // cached run costs exactly what it costs when every request misses.
  const ConcurrentRun cached = RunSaturation(0);
  const ConcurrentRun uncached =
      RunSaturation(0, /*result_cache=*/false, /*concurrent=*/false);
  EXPECT_GE(cached.cache_hits, 4);
  EXPECT_EQ(uncached.cache_hits, 0);
  EXPECT_EQ(cached.rows, uncached.rows);
  ASSERT_EQ(cached.costs.size(), uncached.costs.size());
  for (size_t i = 0; i < cached.costs.size(); ++i) {
    ASSERT_EQ(cached.costs[i].size(), uncached.costs[i].size());
    for (size_t j = 0; j < cached.costs[i].size(); ++j) {
      SCOPED_TRACE("stream " + std::to_string(i) + " request " +
                   std::to_string(j));
      ExpectSameCost(cached.costs[i][j], uncached.costs[i][j]);
      EXPECT_EQ(cached.latencies_ms[i][j], uncached.latencies_ms[i][j]);
    }
  }
}

TEST(QueryServerTest, SaturationIsIdenticalOnOneCpu) {
  if (!testing::kCanNarrowCpus) GTEST_SKIP() << "no CPU affinity masks";
  // On one CPU the streams and their tasks all run on this thread, one
  // stream after another; rows and simulated latencies must not notice.
  const ConcurrentRun wide = RunSaturation(0);
  ConcurrentRun narrow;
  {
    const testing::ScopedCpus one_cpu(1);
    narrow = RunSaturation(0);
  }
  EXPECT_EQ(narrow.rows, wide.rows);
  EXPECT_EQ(narrow.latencies_ms, wide.latencies_ms);
}

TEST(QueryServerTest, ConcurrentCacheTrafficIsAccounted) {
  testing::TestCluster cluster;
  SeedIndexedDataset(&cluster, 800);
  QueryServer server(&cluster.fs, SmallClusterOptions());
  ASSERT_TRUE(server.AttachDataset("idx", "/pts_idx").ok());
  std::vector<SessionStream> streams;
  for (int i = 0; i < 4; ++i) {
    const SessionId id =
        server.OpenSession("tenant" + std::to_string(i), 1).ValueOrDie();
    streams.push_back(SessionStream{id, MixedScripts(i)});
  }
  const auto results = server.ExecuteConcurrent(streams).ValueOrDie();
  int64_t lookups = 0;
  for (const auto& stream : results) {
    for (const RequestResult& request : stream) {
      lookups += request.result_cache_hits + request.result_cache_misses;
    }
  }
  // Every cacheable assignment consulted the cache exactly once (4
  // sessions x 4 queries). Which side of the race a given request landed
  // on is interleaving-dependent; the total is not.
  EXPECT_EQ(lookups, 16);
  EXPECT_EQ(server.result_cache().hits() + server.result_cache().misses(),
            16u);
  // At least the distinct keys missed; repeats within one session always
  // hit (requests are sequential per session).
  EXPECT_GE(server.result_cache().hits(), 4u);
}

// ---------------------------------------------------------------------------
// Request error paths.

TEST(QueryServerTest, ErrorsCarryLineAnchorsAndDoNotKillTheSession) {
  testing::TestCluster cluster;
  SeedIndexedDataset(&cluster);
  QueryServer server(&cluster.fs, SmallClusterOptions());
  ASSERT_TRUE(server.AttachDataset("idx", "/pts_idx").ok());
  const SessionId session = server.OpenSession().ValueOrDie();

  const auto bad = server.Execute(session, "x = RANGE nope RECTANGLE(0,0,1,1);");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("unknown dataset"), std::string::npos);

  // The session keeps serving.
  EXPECT_TRUE(server
                  .Execute(session,
                           "r = COUNT idx RECTANGLE(0, 0, 1000, 1000); DUMP r;")
                  .ok());
  // Unknown sessions are rejected.
  EXPECT_FALSE(server.Execute(99, "DUMP idx;").ok());
}

}  // namespace
}  // namespace shadoop::server
