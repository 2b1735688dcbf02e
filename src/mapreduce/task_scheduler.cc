#include "mapreduce/task_scheduler.h"

#include <cmath>
#include <sstream>

#include "mapreduce/thread_pool.h"

namespace shadoop::mapreduce {

const char* AttemptStateName(AttemptState state) {
  switch (state) {
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

AttemptRecord TaskScheduler::Launch(size_t task, int id,
                                    bool speculative) const {
  AttemptRecord rec;
  rec.id = id;
  rec.speculative = speculative;
  if (injector_ == nullptr) return rec;
  rec.injected_delay_ms =
      injector_->StragglerDelayMs(options_.kind, options_.job_name, task, id);
  if (injector_->ShouldFailAttempt(options_.kind, options_.job_name, task,
                                   id)) {
    rec.state = AttemptState::kFailed;
    rec.status = Status::IoError("injected task failure (attempt " +
                                 std::to_string(id) + ")");
  }
  return rec;
}

void TaskScheduler::RunTask(size_t task, const AttemptFn& attempt_fn) {
  TaskReport& report = reports_[task];
  report.task = task;
  const int max_attempts = options_.max_task_attempts;
  int next_id = 1;
  int failures = 0;

  while (next_id <= max_attempts) {
    AttemptRecord primary = Launch(task, next_id++, /*speculative=*/false);
    primary.backoff_ms =
        failures == 0 ? 0.0
                      : options_.retry_backoff_ms *
                            std::pow(2.0, static_cast<double>(failures - 1));
    const bool straggles =
        options_.speculative_slack_ms > 0 &&
        primary.injected_delay_ms > options_.speculative_slack_ms &&
        next_id <= max_attempts;
    if (straggles && !options_.backups_fit) {
      backups_denied_.fetch_add(1, std::memory_order_relaxed);
    }

    // A straggler's backup consumes the next attempt id, and the race
    // between the two is decided in simulated time: the backup wins iff
    // the primary's straggler delay exceeds the backup's launch latency
    // plus its own delay, and an attempt whose launch failure is injected
    // loses. Only the winner runs.
    AttemptRecord backup;
    AttemptRecord* winner = &primary;
    AttemptRecord* rival = nullptr;
    double winner_ms = primary.injected_delay_ms;
    if (straggles && options_.backups_fit) {
      backup = Launch(task, next_id++, /*speculative=*/true);
      speculative_launched_.fetch_add(1, std::memory_order_relaxed);
      const double backup_ms =
          options_.task_startup_ms + backup.injected_delay_ms;
      const bool backup_wins =
          backup.status.ok() &&
          (!primary.status.ok() || primary.injected_delay_ms > backup_ms);
      winner = backup_wins ? &backup : &primary;
      rival = backup_wins ? &primary : &backup;
      if (backup_wins) winner_ms = backup_ms;
    }
    const bool rival_injected = rival != nullptr && !rival->status.ok();

    AttemptOutcome outcome{winner->status, /*transient=*/true};
    if (outcome.status.ok()) {
      outcome = attempt_fn(task, AttemptInfo{winner->id, winner->speculative});
    }
    if (outcome.status.ok()) {
      winner->state = AttemptState::kCommitted;
      if (rival != nullptr && !rival_injected) {
        rival->state = AttemptState::kKilled;
      }
      report.committed_attempt = winner->id;
      report.sim_overhead_ms += primary.backoff_ms + winner_ms;
      if (winner == &backup) {
        speculative_won_.fetch_add(1, std::memory_order_relaxed);
      }
    } else {
      // The rival would run the same code over the same input, so the
      // winner's own failure is the rival's too.
      for (AttemptRecord* rec : {winner, rival}) {
        if (rec == nullptr || !rec->status.ok()) continue;
        rec->state = AttemptState::kFailed;
        rec->status = outcome.status;
      }
      const int launches = rival != nullptr ? 2 : 1;
      failures += launches;
      report.sim_overhead_ms +=
          primary.backoff_ms + launches * options_.task_startup_ms;
    }
    report.attempts.push_back(std::move(primary));
    if (rival != nullptr) report.attempts.push_back(std::move(backup));
    if (outcome.status.ok()) return;
    // An injected launch failure is transient, so a rival's keeps the
    // task retrying even when the winner's own failure would not.
    if (!outcome.transient && !rival_injected) return;
    if (next_id <= max_attempts) {
      retries_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

void TaskScheduler::RunTasks(size_t num_tasks, int max_parallel,
                             const AttemptFn& attempt_fn) {
  reports_.assign(num_tasks, TaskReport{});
  ParallelFor(num_tasks, max_parallel,
              [&](size_t task) { RunTask(task, attempt_fn); });
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
