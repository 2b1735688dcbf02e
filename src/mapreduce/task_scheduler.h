#ifndef SHADOOP_MAPREDUCE_TASK_SCHEDULER_H_
#define SHADOOP_MAPREDUCE_TASK_SCHEDULER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "fault/fault_injector.h"

namespace shadoop::mapreduce {

/// How an attempt ended (DESIGN.md §9):
///
/// COMMITTED: the attempt ran cleanly and won its task — alone, or the
///            simulated race against its speculative rival.
/// FAILED:    the attempt reported an error, or its rival's run failed
///            (the same code over the same input); retried while
///            transient and the attempt budget lasts.
/// KILLED:    the attempt lost the simulated race to a rival that
///            committed; it never ran.
enum class AttemptState { kCommitted, kFailed, kKilled };

const char* AttemptStateName(AttemptState state);

/// One launched attempt of a task, as recorded in the task's history.
struct AttemptRecord {
  int id = 1;  // 1-based launch order within the task.
  bool speculative = false;
  AttemptState state = AttemptState::kCommitted;
  Status status;                 // Failure reason when state == kFailed.
  double injected_delay_ms = 0;  // Simulated straggler delay.
  double backoff_ms = 0;         // Simulated wait before this launch.
};

/// Full attempt history of one task.
struct TaskReport {
  size_t task = 0;
  std::vector<AttemptRecord> attempts;
  int committed_attempt = -1;  // Attempt id, or -1 when the task failed.
  /// Simulated milliseconds the task's retries, backoff waits and
  /// effective straggler delay added on top of its clean single-attempt
  /// cost. Deterministic: derived from the injector's decisions alone.
  double sim_overhead_ms = 0;

  /// "#1 FAILED (IoError: ...); #2 COMMITTED" — for error messages.
  std::string History() const;
};

/// Identity of the attempt being run, passed to the attempt body.
struct AttemptInfo {
  int id = 1;
  bool speculative = false;
};

/// What one attempt produced. `transient` distinguishes environment
/// failures (I/O errors, injected faults — worth retrying elsewhere) from
/// deterministic user-code failures (retrying would repeat them).
struct AttemptOutcome {
  Status status;
  bool transient = true;
};

/// Runs one attempt of `task`. The scheduler runs at most one attempt of
/// a task at a time, and an attempt that returns OK is the task's
/// committed attempt: it publishes its own output. A failed attempt must
/// publish nothing, so a retry never double-emits.
using AttemptFn =
    std::function<AttemptOutcome(size_t task, const AttemptInfo& info)>;

struct TaskSchedulerOptions {
  std::string job_name = "job";
  fault::TaskKind kind = fault::TaskKind::kMap;
  int max_task_attempts = 3;
  /// Mirrors ClusterConfig::task_startup_ms: each failed attempt charges
  /// one task launch to the simulated cost.
  double task_startup_ms = 200.0;
  /// Simulated wait before relaunching a failed attempt; doubles per
  /// consecutive failure (exponential backoff).
  double retry_backoff_ms = 1000.0;
  /// Speculative execution: when an attempt's injected straggler delay
  /// exceeds `speculative_slack_ms`, a backup attempt launches, and the
  /// simulated race between the two decides which one runs.
  double speculative_slack_ms = 5000.0;
  /// Whether a backup fits beside its primary: false when an admitted
  /// tenant's lane share is one lane. Denied backups are counted.
  bool backups_fit = true;
};

/// Task-attempt scheduler: drives every task of one phase through the
/// attempt state machine with bounded retries, exponential backoff and
/// speculative execution of stragglers. Execution is real (tasks run user
/// code through ParallelFor) while time is modeled: a speculative race is
/// decided in simulated time and only its winner runs, so the attempt
/// histories, JobCost and the fault counters are pure functions of the
/// injector's deterministic decisions.
class TaskScheduler {
 public:
  TaskScheduler(TaskSchedulerOptions options, fault::FaultInjector* injector);

  /// Runs all `num_tasks` tasks through ParallelFor with at most
  /// `max_parallel` lanes; each lane drives one task's attempts to
  /// completion before returning.
  void RunTasks(size_t num_tasks, int max_parallel,
                const AttemptFn& attempt_fn);

  /// True when every task committed an attempt.
  bool ok() const;

  /// OK, or the first failing task's status: its phase, task id, attempt
  /// count and full attempt history, with the last failure's code.
  Status MakeStatus() const;

  const std::vector<TaskReport>& reports() const { return reports_; }

  int64_t task_retries() const {
    return retries_.load(std::memory_order_relaxed);
  }
  int64_t speculative_launched() const {
    return speculative_launched_.load(std::memory_order_relaxed);
  }
  /// Backups that won the simulated race.
  int64_t speculative_won() const {
    return speculative_won_.load(std::memory_order_relaxed);
  }
  /// Backups not launched because they did not fit (`backups_fit`).
  int64_t backups_denied() const {
    return backups_denied_.load(std::memory_order_relaxed);
  }

 private:
  void RunTask(size_t task, const AttemptFn& attempt_fn);
  /// The record of launching attempt `id`, with the injector's straggler
  /// delay and, when it fails the launch, the FAILED state and status.
  AttemptRecord Launch(size_t task, int id, bool speculative) const;

  TaskSchedulerOptions options_;
  fault::FaultInjector* injector_;  // Nullable: no injection.
  std::vector<TaskReport> reports_;
  std::atomic<int64_t> retries_{0};
  std::atomic<int64_t> speculative_launched_{0};
  std::atomic<int64_t> speculative_won_{0};
  std::atomic<int64_t> backups_denied_{0};
};

}  // namespace shadoop::mapreduce

#endif  // SHADOOP_MAPREDUCE_TASK_SCHEDULER_H_
