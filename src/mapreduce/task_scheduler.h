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

/// Attempt lifecycle (DESIGN.md §9):
///
///   SCHEDULED → RUNNING → { COMMITTED, FAILED, KILLED }
///
/// COMMITTED: the attempt finished cleanly and won the task's commit race.
/// FAILED:    the attempt reported an error; retried while transient and
///            the attempt budget lasts.
/// KILLED:    a rival attempt committed first — the attempt's output is
///            discarded (never merged into the job).
enum class AttemptState { kScheduled, kRunning, kCommitted, kFailed, kKilled };

const char* AttemptStateName(AttemptState state);

/// One launched attempt of a task, as recorded in the task's history.
struct AttemptRecord {
  int id = 1;  // 1-based launch order within the task.
  bool speculative = false;
  AttemptState state = AttemptState::kScheduled;
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
  /// cost. Deterministic: derived from the injector's decisions, never
  /// from which attempt happened to win the wall-clock race.
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

/// Admission hook around task attempts (see AdmissionController). The
/// scheduler brackets *every* attempt — first launches, retries and
/// speculative backups alike — with OnAttemptStart/OnAttemptDone, so a
/// quota holder can account lanes and verify that every acquired lane is
/// released whatever the attempt's fate. AllowSpeculative is consulted
/// once per task the scheduler wants to back up; returning false vetoes
/// the backup (counted by the gate as a preempted speculation). All
/// three methods are called from worker threads and must be thread-safe.
class AttemptGate {
 public:
  virtual ~AttemptGate() = default;

  virtual void OnAttemptStart(bool speculative) = 0;
  virtual void OnAttemptDone(bool speculative) = 0;
  /// Whether a speculative backup may occupy a second lane. Must be
  /// deterministic for the same gate state: the set of tasks asking is
  /// injector-decided, and JobCost reproducibility hinges on the same
  /// tasks getting the same answer on every run.
  virtual bool AllowSpeculative(size_t task) = 0;
};

/// Runs one attempt of `task` into private, attempt-scoped state keyed by
/// `slot` (0 = primary, 1 = speculative backup). The body must not
/// publish anything outside its slot: publication happens exactly once,
/// through the CommitFn, for the winning attempt only — this is the
/// commit-once rule that makes retries and speculation unable to
/// double-emit. `cancelled` flips when a rival attempt commits; long
/// attempts should poll it and bail out early.
using AttemptFn = std::function<AttemptOutcome(
    size_t task, const AttemptInfo& info, int slot,
    const std::atomic<bool>& cancelled)>;

/// Publishes the given slot's output as the task's committed result.
/// Invoked at most once per task, after every attempt of the task has
/// stopped running (so it never races the losing attempt).
using CommitFn = std::function<void(size_t task, int slot)>;

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
  /// exceeds `speculative_slack_ms`, a backup attempt launches and
  /// whichever attempt commits first wins; the loser is killed.
  bool speculative_execution = true;
  double speculative_slack_ms = 5000.0;
  /// Admission gate bracketing every attempt; not owned, null (the
  /// default) disables admission accounting entirely.
  AttemptGate* gate = nullptr;
};

/// Task-attempt scheduler: drives every task of one phase through the
/// attempt state machine with bounded retries, exponential backoff and
/// speculative execution of stragglers. Execution is real (attempts run
/// user code through ParallelFor, a backup as the second lane beside its
/// primary) while time is modeled: all cost/counter outputs are pure
/// functions of the injector's deterministic decisions, so JobCost and
/// the fault counters are reproducible even though which attempt wins a
/// wall-clock race is not.
class TaskScheduler {
 public:
  TaskScheduler(TaskSchedulerOptions options, fault::FaultInjector* injector);

  /// Runs all `num_tasks` tasks through ParallelFor with at most
  /// `max_parallel` lanes; each lane drives one task's attempts to
  /// completion (including its speculative backup) before returning.
  void RunTasks(size_t num_tasks, int max_parallel,
                const AttemptFn& attempt_fn, const CommitFn& commit_fn);

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
  /// Backups that finish first in *simulated* time (injected delay
  /// exceeded the slack) — deterministic, unlike the wall-clock race.
  int64_t speculative_won() const {
    return speculative_won_.load(std::memory_order_relaxed);
  }

 private:
  void RunTask(size_t task, const AttemptFn& attempt_fn,
               const CommitFn& commit_fn);

  TaskSchedulerOptions options_;
  fault::FaultInjector* injector_;  // Nullable: no injection.
  std::vector<TaskReport> reports_;
  std::atomic<int64_t> retries_{0};
  std::atomic<int64_t> speculative_launched_{0};
  std::atomic<int64_t> speculative_won_{0};
};

}  // namespace shadoop::mapreduce

#endif  // SHADOOP_MAPREDUCE_TASK_SCHEDULER_H_
