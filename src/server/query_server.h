#ifndef SHADOOP_SERVER_QUERY_SERVER_H_
#define SHADOOP_SERVER_QUERY_SERVER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "catalog/dataset_catalog.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "hdfs/file_system.h"
#include "mapreduce/admission_controller.h"
#include "mapreduce/cluster.h"
#include "mapreduce/job_runner.h"
#include "pigeon/ast.h"
#include "pigeon/executor.h"
#include "server/result_cache.h"

namespace shadoop::server {

struct ServerOptions {
  mapreduce::ClusterConfig cluster;

  /// Seed of the admission controller's lane tie-break hash. With equal
  /// tenant weights that divide the slots evenly, shares are
  /// seed-invariant; otherwise the seed picks which tenants get the
  /// leftover lanes (deterministically).
  uint64_t admission_seed = 0;

  bool enable_result_cache = true;
};

using SessionId = int;

/// What one Execute() call produced: the rows its DUMP/EXPLAIN
/// statements emitted and the *simulated* charges of the request, summed
/// per statement (so they never depend on what the session ran before).
/// sim_latency_ms is modeled cluster time (job makespans plus simulated
/// admission wait), so saturation benchmarks report identical latency
/// distributions on every machine and every rerun.
struct RequestResult {
  std::vector<std::string> rows;
  mapreduce::JobCost cost;
  double sim_latency_ms = 0;
  int64_t result_cache_hits = 0;
  int64_t result_cache_misses = 0;
};

/// One client's request sequence for ExecuteConcurrent: scripts run in
/// order within the stream, streams run concurrently.
struct SessionStream {
  SessionId session = 0;
  std::vector<std::string> scripts;
};

/// The Pigeon serving tier (DESIGN.md §14): a long-lived, in-process,
/// deterministic query server over the Pigeon executor.
///
///   - Datasets attach once into a shared catalog; every session
///     pre-binds them read-only at the then-latest version (snapshot
///     pinning keeps readers isolated from live ingest).
///   - Each session owns its runner and executor (so EXPLAIN counters
///     and artifact caches stay per-session deterministic) but shares
///     the catalog, the admission controller and the result cache.
///   - Every statement of a tenant-bound session routes through the
///     AdmissionController: lane shares gate real concurrent request
///     streams, and admission wait lands in sim_latency_ms.
///   - Each assignment is prepared once. Cacheable ones (queries over
///     catalog-pinned indexed datasets) go through the ResultCache under
///     a key built from the prepared statement; hits bind the cached rows
///     with the prepared plan and replay the stored charges, byte-
///     identical to a miss.
///   - Sessions keep bindings and cumulative charges, not rows.
///
/// Threading: attach datasets and open sessions first (single-threaded
/// setup), then serve — Execute() on distinct sessions is safe from
/// concurrent threads, and requests within one session serialize on the
/// session's mutex. ExecuteConcurrent drives that pattern through
/// mapreduce::ParallelFor.
class QueryServer {
 public:
  explicit QueryServer(hdfs::FileSystem* fs,
                       ServerOptions options = ServerOptions());

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// Opens an existing indexed dataset (one persisted by the catalog or
  /// a plain indexed file) into the shared catalog. Sessions opened
  /// afterwards pre-bind it under `name` at the latest version.
  Status AttachDataset(const std::string& name, const std::string& data_path);

  /// Opens a session. With a nonempty `tenant`, the session binds to the
  /// shared admission controller under that tenant, and `tenant_slots`
  /// (when > 0) sets the tenant's quota/lane weight up front — configure
  /// every tenant before serving concurrently so lane shares are fixed.
  /// An empty tenant runs unconstrained, byte-identical to a standalone
  /// executor.
  Result<SessionId> OpenSession(const std::string& tenant = "",
                                int tenant_slots = 0);

  /// Parses and runs `script` in the session, returning the request's
  /// rows and simulated charges. Splitting a workload across many
  /// Execute calls yields the same rows, concatenated, as one call. A
  /// failed request returns its error and drops the rows it produced.
  Result<RequestResult> Execute(SessionId session, std::string_view script);

  /// Runs every stream concurrently (scripts sequential within each
  /// stream) and returns per-stream, per-script results. On any failure
  /// the error of the lowest-indexed failing stream is returned.
  Result<std::vector<std::vector<RequestResult>>> ExecuteConcurrent(
      const std::vector<SessionStream>& streams);

  /// The session's cumulative report: the charges of every request so
  /// far, which EXPLAIN's exec, admission, ingest and result_cache
  /// segments read. Its dump_output is empty between requests (rows are
  /// returned in RequestResult::rows). Not safe against a concurrent
  /// Execute on the same session.
  Result<const pigeon::ExecutionReport*> SessionReport(
      SessionId session) const;

  catalog::DatasetCatalog& catalog() { return catalog_; }
  mapreduce::AdmissionController& admission() { return admission_; }
  ResultCache& result_cache() { return result_cache_; }
  const ServerOptions& options() const { return options_; }

 private:
  struct Session {
    std::string tenant;
    std::unique_ptr<mapreduce::JobRunner> runner;
    std::unique_ptr<pigeon::Executor> executor;
    /// Cumulative charges; dump_output holds only the running request's
    /// rows.
    pigeon::ExecutionReport report;
    Mutex mu;  // Serializes this session's requests.
  };

  Session* FindSession(SessionId session) const SHADOOP_EXCLUDES(mu_);

  /// Runs one statement, preparing assignments once and routing cacheable
  /// ones through the result cache, and adds its charges and cache
  /// outcome to `request`. Caller holds the session's mutex.
  Status ExecuteSessionStatement(Session& session,
                                 const pigeon::Statement& stmt,
                                 RequestResult* request);

  /// Builds the result-cache key from a prepared assignment, or returns
  /// false when it is not cacheable (non-query expression, a source that
  /// is not a catalog-pinned indexed dataset, unresolvable text).
  bool BuildCacheKey(const Session& session,
                     const pigeon::PreparedStatement& prepared,
                     std::string* key) const;

  hdfs::FileSystem* fs_;
  ServerOptions options_;
  /// Backs catalog maintenance jobs (Open scans, future appends issued
  /// through the catalog directly rather than a session).
  mapreduce::JobRunner catalog_runner_;
  catalog::DatasetCatalog catalog_;
  mapreduce::AdmissionController admission_;
  ResultCache result_cache_;

  mutable Mutex mu_;  // Guards the containers, not the sessions.
  std::vector<std::string> attached_ SHADOOP_GUARDED_BY(mu_);
  std::vector<std::unique_ptr<Session>> sessions_ SHADOOP_GUARDED_BY(mu_);
};

}  // namespace shadoop::server

#endif  // SHADOOP_SERVER_QUERY_SERVER_H_
