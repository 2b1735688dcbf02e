#include "mapreduce/task_scheduler.h"

#include <cmath>
#include <sstream>

#include "mapreduce/thread_pool.h"

namespace shadoop::mapreduce {
namespace {

/// RAII bracket for one attempt's lane: OnAttemptStart on construction,
/// OnAttemptDone on destruction — so a lane is released on every exit
/// path (success, failure, injected fault, lost commit race).
class LaneHold {
 public:
  LaneHold(AttemptGate* gate, bool speculative)
      : gate_(gate), speculative_(speculative) {
    if (gate_ != nullptr) gate_->OnAttemptStart(speculative_);
  }
  ~LaneHold() {
    if (gate_ != nullptr) gate_->OnAttemptDone(speculative_);
  }
  LaneHold(const LaneHold&) = delete;
  LaneHold& operator=(const LaneHold&) = delete;

 private:
  AttemptGate* gate_;
  bool speculative_;
};

}  // namespace

const char* AttemptStateName(AttemptState state) {
  switch (state) {
    case AttemptState::kScheduled:
      return "SCHEDULED";
    case AttemptState::kRunning:
      return "RUNNING";
    case AttemptState::kCommitted:
      return "COMMITTED";
    case AttemptState::kFailed:
      return "FAILED";
    case AttemptState::kKilled:
      return "KILLED";
  }
  return "UNKNOWN";
}

std::string TaskReport::History() const {
  std::ostringstream out;
  for (size_t i = 0; i < attempts.size(); ++i) {
    const AttemptRecord& a = attempts[i];
    if (i > 0) out << "; ";
    out << "#" << a.id;
    if (a.speculative) out << " (speculative)";
    out << " " << AttemptStateName(a.state);
    if (a.state == AttemptState::kFailed && !a.status.ok()) {
      out << " (" << a.status.ToString() << ")";
    }
  }
  return out.str();
}

TaskScheduler::TaskScheduler(TaskSchedulerOptions options,
                             fault::FaultInjector* injector)
    : options_(std::move(options)), injector_(injector) {
  if (injector_ != nullptr && !injector_->policy().AnyTaskFaults()) {
    injector_ = nullptr;
  }
}

void TaskScheduler::RunTask(size_t task, const AttemptFn& attempt_fn,
                            const CommitFn& commit_fn) {
  TaskReport& report = reports_[task];
  report.task = task;

  int next_attempt_id = 1;
  int failures = 0;
  static const std::atomic<bool> kNeverCancelled{false};

  while (report.committed_attempt < 0 &&
         next_attempt_id <= options_.max_task_attempts) {
    const int attempt_id = next_attempt_id++;
    const double backoff_ms =
        failures == 0 ? 0.0
                      : options_.retry_backoff_ms *
                            std::pow(2.0, static_cast<double>(failures - 1));
    double delay_ms = 0;
    bool injected_failure = false;
    if (injector_ != nullptr) {
      injected_failure = injector_->ShouldFailAttempt(
          options_.kind, options_.job_name, task, attempt_id);
      delay_ms = injector_->StragglerDelayMs(options_.kind, options_.job_name,
                                             task, attempt_id);
    }

    // The admission gate can veto the backup: a tenant whose lane share
    // cannot fit a second concurrent attempt runs the straggler alone
    // (counted by the gate as a preempted speculation). The gate is
    // consulted only when the scheduler actually wants to speculate, so
    // the preemption count is as deterministic as the injector's
    // straggler decisions.
    const bool wants_speculation = options_.speculative_execution &&
                                   options_.speculative_slack_ms > 0 &&
                                   delay_ms > options_.speculative_slack_ms &&
                                   next_attempt_id <= options_.max_task_attempts;
    const bool speculate =
        wants_speculation &&
        (options_.gate == nullptr || options_.gate->AllowSpeculative(task));

    if (!speculate) {
      AttemptRecord rec;
      rec.id = attempt_id;
      rec.backoff_ms = backoff_ms;
      rec.injected_delay_ms = delay_ms;
      rec.state = AttemptState::kRunning;
      AttemptOutcome outcome;
      {
        LaneHold lane(options_.gate, /*speculative=*/false);
        if (injected_failure) {
          outcome.status = Status::IoError("injected task failure (attempt " +
                                           std::to_string(attempt_id) + ")");
          outcome.transient = true;
        } else {
          AttemptInfo info{attempt_id, /*speculative=*/false};
          outcome = attempt_fn(task, info, /*slot=*/0, kNeverCancelled);
        }
      }
      if (outcome.status.ok()) {
        rec.state = AttemptState::kCommitted;
        report.attempts.push_back(rec);
        report.committed_attempt = attempt_id;
        report.sim_overhead_ms += backoff_ms + delay_ms;
        commit_fn(task, /*slot=*/0);
        return;
      }
      rec.state = AttemptState::kFailed;
      rec.status = outcome.status;
      report.attempts.push_back(rec);
      report.sim_overhead_ms += backoff_ms + options_.task_startup_ms;
      ++failures;
      if (!outcome.transient) return;
      if (next_attempt_id <= options_.max_task_attempts) {
        retries_.fetch_add(1, std::memory_order_relaxed);
      }
      continue;
    }

    // Speculative race: the straggling primary and a fresh backup run as
    // the two lanes of one ParallelFor, into separate slots; the first
    // clean finisher commits the task via a compare-and-swap, the loser is
    // killed. With no free worker the backup runs after the primary, finds
    // its cancel flag set and stops. The backup consumes the next attempt
    // id.
    const int backup_id = next_attempt_id++;
    speculative_launched_.fetch_add(1, std::memory_order_relaxed);

    AttemptRecord primary_rec;
    primary_rec.id = attempt_id;
    primary_rec.backoff_ms = backoff_ms;
    primary_rec.injected_delay_ms = delay_ms;
    AttemptRecord backup_rec;
    backup_rec.id = backup_id;
    backup_rec.speculative = true;
    if (injector_ != nullptr) {
      backup_rec.injected_delay_ms = injector_->StragglerDelayMs(
          options_.kind, options_.job_name, task, backup_id);
    }
    const bool backup_injected_failure =
        injector_ != nullptr &&
        injector_->ShouldFailAttempt(options_.kind, options_.job_name, task,
                                     backup_id);

    std::atomic<int> committed_slot{-1};
    std::atomic<bool> cancel[2] = {{false}, {false}};

    auto run_lane = [&](int slot, const AttemptRecord& rec, bool injected,
                        AttemptOutcome* out) {
      LaneHold lane(options_.gate, rec.speculative);
      if (injected) {
        out->status = Status::IoError("injected task failure (attempt " +
                                      std::to_string(rec.id) + ")");
        out->transient = true;
        return;
      }
      if (cancel[slot].load(std::memory_order_acquire)) {
        out->status = Status::Cancelled("attempt killed by rival commit");
        out->transient = true;
        return;
      }
      AttemptInfo info{rec.id, rec.speculative};
      *out = attempt_fn(task, info, slot, cancel[slot]);
      if (!out->status.ok()) return;
      int expected = -1;
      if (committed_slot.compare_exchange_strong(expected, slot,
                                                 std::memory_order_acq_rel)) {
        cancel[1 - slot].store(true, std::memory_order_release);
      } else {
        // A rival committed first; our clean output is discarded.
        out->status = Status::Cancelled("attempt lost commit race");
      }
    };

    AttemptOutcome primary_out, backup_out;
    ParallelFor(2, 2, [&](size_t slot) {
      if (slot == 0) {
        run_lane(0, primary_rec, injected_failure, &primary_out);
      } else {
        run_lane(1, backup_rec, backup_injected_failure, &backup_out);
      }
    });

    const int winner_slot = committed_slot.load(std::memory_order_acquire);

    // Records follow the *simulated* outcome, decided by the injector —
    // not by which attempt happened to win the wall-clock race. A clean
    // attempt (succeeded, or killed after the rival committed) is
    // COMMITTED when the sim says it won and KILLED otherwise; both
    // produce the same output, so the committed result is identical
    // either way.
    auto finalize = [&](AttemptRecord rec, const AttemptOutcome& out,
                        bool won_sim) {
      const bool clean = out.status.ok() || out.status.IsCancelled();
      if (clean) {
        rec.state = won_sim ? AttemptState::kCommitted : AttemptState::kKilled;
      } else {
        rec.state = AttemptState::kFailed;
        rec.status = out.status;
      }
      report.attempts.push_back(rec);
    };

    if (winner_slot >= 0) {
      const bool primary_clean = primary_out.status.ok() ||
                                 primary_out.status.IsCancelled();
      const bool backup_clean =
          backup_out.status.ok() || backup_out.status.IsCancelled();
      // Sim race: the backup wins iff the primary's straggler delay
      // exceeds the backup's launch latency plus its own delay.
      const double backup_total_ms =
          options_.task_startup_ms + backup_rec.injected_delay_ms;
      bool backup_wins_sim = delay_ms > backup_total_ms;
      if (!backup_clean) backup_wins_sim = false;
      if (!primary_clean) backup_wins_sim = true;

      finalize(primary_rec, primary_out, !backup_wins_sim);
      finalize(backup_rec, backup_out, backup_wins_sim);
      if (backup_wins_sim) {
        speculative_won_.fetch_add(1, std::memory_order_relaxed);
        report.sim_overhead_ms += backoff_ms + backup_total_ms;
      } else {
        report.sim_overhead_ms += backoff_ms + delay_ms;
      }
      report.committed_attempt =
          backup_wins_sim ? backup_rec.id : primary_rec.id;
      commit_fn(task, winner_slot);
      return;
    }

    // Both attempts failed; charge both launches and retry if possible.
    finalize(primary_rec, primary_out, false);
    finalize(backup_rec, backup_out, false);
    failures += 2;
    report.sim_overhead_ms += backoff_ms + 2 * options_.task_startup_ms;
    if (!primary_out.transient && !backup_out.transient) return;
    if (next_attempt_id <= options_.max_task_attempts) {
      retries_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

void TaskScheduler::RunTasks(size_t num_tasks, int max_parallel,
                             const AttemptFn& attempt_fn,
                             const CommitFn& commit_fn) {
  reports_.assign(num_tasks, TaskReport{});
  ParallelFor(num_tasks, max_parallel,
              [&](size_t task) { RunTask(task, attempt_fn, commit_fn); });
}

bool TaskScheduler::ok() const {
  for (const TaskReport& report : reports_) {
    if (report.committed_attempt < 0) return false;
  }
  return true;
}

Status TaskScheduler::MakeStatus() const {
  for (const TaskReport& report : reports_) {
    if (report.committed_attempt >= 0) continue;
    Status last = Status::IoError("task never ran");
    for (auto it = report.attempts.rbegin(); it != report.attempts.rend();
         ++it) {
      if (it->state == AttemptState::kFailed) {
        last = it->status;
        break;
      }
    }
    std::ostringstream msg;
    msg << (options_.kind == fault::TaskKind::kMap ? "map" : "reduce")
        << " task " << report.task << " of job '" << options_.job_name
        << "' failed after " << report.attempts.size()
        << " attempt(s): " << report.History();
    return Status(last.code(), msg.str());
  }
  return Status::OK();
}

}  // namespace shadoop::mapreduce
