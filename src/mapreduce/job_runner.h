#ifndef SHADOOP_MAPREDUCE_JOB_RUNNER_H_
#define SHADOOP_MAPREDUCE_JOB_RUNNER_H_

#include <string>

#include "hdfs/file_system.h"
#include "mapreduce/admission_controller.h"
#include "mapreduce/cluster.h"
#include "mapreduce/job.h"

namespace shadoop::mapreduce {

/// Executes MapReduce jobs against a simulated HDFS instance.
///
/// Execution is *real* (map and reduce functions run on a thread pool and
/// produce real output) while time is *modeled*: JobResult::cost carries
/// the deterministic simulated cluster time derived from bytes moved,
/// records processed, task counts and the ClusterConfig — this is the
/// metric the benchmark suite reports, because it is machine-independent
/// and reproduces the paper's cost structure (job startup, scan, shuffle).
///
/// Failed task attempts (I/O errors on dead datanodes, injected faults)
/// are retried with exponential backoff up to max_task_attempts() before
/// failing the job; a straggler gets a speculative backup, and the
/// simulated race between the two decides which attempt runs. The fault
/// counters are counted per attempt, so jobs that run at the same time
/// never count each other's faults. See TaskScheduler and DESIGN.md §9.
class JobRunner {
 public:
  JobRunner(hdfs::FileSystem* fs, ClusterConfig cluster = ClusterConfig())
      : fs_(fs), cluster_(cluster) {}

  const ClusterConfig& cluster() const { return cluster_; }
  hdfs::FileSystem* file_system() const { return fs_; }

  /// Installs the deterministic fault source used by every subsequent
  /// Run() — the one task-fault entry point (block-read faults go through
  /// FileSystem::set_fault_injector). Not owned; null (the default)
  /// disables task-fault injection.
  void set_fault_injector(fault::FaultInjector* injector) {
    fault_injector_ = injector;
  }
  fault::FaultInjector* fault_injector() const { return fault_injector_; }

  /// Binds this runner's session to an admission controller and tenant:
  /// every subsequent Run() is admitted under the tenant's quotas (jobs
  /// queue FIFO-per-tenant, task lanes shrink to the tenant's share, and
  /// a one-lane share launches no backups — DESIGN.md §10). Neither is
  /// owned; a null controller (the default) disables admission entirely
  /// and keeps the runtime byte-identical to the pre-admission behavior.
  void set_admission(AdmissionController* controller, std::string tenant) {
    admission_ = controller;
    tenant_ = std::move(tenant);
  }
  AdmissionController* admission_controller() const { return admission_; }
  const std::string& tenant() const { return tenant_; }

  /// Attempts each task of every subsequent Run() gets before the job
  /// fails (default 3; the Pigeon `SET max_task_attempts` knob).
  void set_max_task_attempts(int attempts) { max_task_attempts_ = attempts; }
  int max_task_attempts() const { return max_task_attempts_; }

  /// Runs the job to completion. Never throws; failures are reported in
  /// JobResult::status. With an admission controller bound, blocks until
  /// the session's tenant has a free job slot first, and fails without
  /// running when the tenant's quota is zero.
  JobResult Run(const JobConfig& job);

  /// The runner's per-block artifact cache, handed to map tasks through
  /// MapContext::artifact_cache() — except while any fault injector is
  /// active, when tasks see null so injected faults are never masked.
  ArtifactCache* artifact_cache() { return &artifact_cache_; }

 private:
  /// The admitted run: `lanes` caps task parallelism (real threads and
  /// the simulated makespan alike), and stragglers get speculative
  /// backups only when `backups_fit` (TaskSchedulerOptions::backups_fit).
  JobResult RunAdmitted(const JobConfig& job, int lanes, bool backups_fit);

  hdfs::FileSystem* fs_;
  ClusterConfig cluster_;
  ArtifactCache artifact_cache_{kArtifactCacheCapacity};
  fault::FaultInjector* fault_injector_ = nullptr;
  AdmissionController* admission_ = nullptr;
  std::string tenant_ = "default";
  int max_task_attempts_ = 3;
};

/// Builds one split per block of `path`, with empty metadata — the
/// default, non-spatial splitter of plain Hadoop.
Result<std::vector<InputSplit>> MakeBlockSplits(const hdfs::FileSystem& fs,
                                                const std::string& path);

/// The default partitioner: FNV-1a hash of the key modulo num_reducers.
int HashPartition(std::string_view key, int num_reducers);

/// Adds one job's simulated admission wait to its charges: JobCost's
/// admission_wait_ms and admission_queued, and the nonzero-only
/// `admission.queued` and `admission.wait_ms` counters. Admitted runs and
/// the query server's result-cache hits charge a wait through this alone.
void ChargeAdmissionWait(double wait_ms, JobCost* cost, Counters* counters);

}  // namespace shadoop::mapreduce

#endif  // SHADOOP_MAPREDUCE_JOB_RUNNER_H_
