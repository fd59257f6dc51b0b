#include "mc/runtime.hpp"

#include <cstdio>
#include <cstdlib>
#include <utility>

#include "common/mutex.hpp"

namespace adets::mc {

namespace {
[[noreturn]] void fatal(const char* message) {
  std::fprintf(stderr, "adets-mc: %s\n", message);
  std::abort();
}
}  // namespace

McRuntime::Task*& McRuntime::tls_task() {
  static thread_local Task* task = nullptr;
  return task;
}

McRuntime::McRuntime(Options options) : options_(options) {
  runner_thread_ = std::thread([this] { runner_loop(); });
  // The runner registers itself as task 1 and parks idle; everything the
  // controller does later assumes it is already checked in.
  std::unique_lock<std::mutex> ml(model_m_);
  ctrl_cv_.wait(ml, [this] {
    return runner_task_ != nullptr &&
           runner_task_->park == Task::Park::kRunnerIdle;
  });
}

McRuntime::~McRuntime() {
  {
    std::lock_guard<std::mutex> ml(model_m_);
    if (!draining_) fatal("McRuntime destroyed without begin_drain()");
  }
  if (runner_thread_.joinable()) runner_thread_.join();
}

std::uint64_t McRuntime::token_locked(ResourceKind kind, const void* ptr,
                                      const std::string& name) {
  const auto key = std::make_pair(static_cast<int>(kind), ptr);
  const auto it = token_ids_.find(key);
  if (it != token_ids_.end()) return it->second;
  const std::uint64_t token = next_token_++;
  token_ids_.emplace(key, token);
  // First-touch order is schedule-deterministic, so "name#n" is a stable
  // identity usable in reports and replays.
  token_names_[token] = name + "#" + std::to_string(name_counts_[name]++);
  return token;
}

void McRuntime::touch_locked(std::uint64_t resource) {
  if (step_open_) current_step_.footprint.add(resource);
}

void McRuntime::finish_step_locked() {
  if (!step_open_) return;
  steps_.push_back(std::move(current_step_));
  current_step_ = StepInfo{};
  step_open_ = false;
}

bool McRuntime::quiescent_locked() const {
  if (running_ != nullptr) return false;
  if (expected_checkins_ != 0 || expected_adoptions_ != 0) return false;
  for (const auto& [id, task] : tasks_) {
    if (task->park == Task::Park::kNone) return false;
  }
  return true;
}

McRuntime::Task& McRuntime::register_task_locked(std::uint64_t id,
                                                 const std::string& name,
                                                 bool external) {
  auto [it, inserted] = tasks_.emplace(id, std::make_unique<Task>());
  if (!inserted) fatal("duplicate managed-task id");
  Task& t = *it->second;
  t.id = id;
  t.name = name;
  t.external = external;
  return t;
}

void McRuntime::announce_and_park(std::unique_lock<std::mutex>& ml, Task& t,
                                  Task::Park park) {
  t.park = park;
  if (running_ == &t) {
    running_ = nullptr;
    finish_step_locked();
  }
  ctrl_cv_.notify_all();
  if (draining_) return;  // teardown: pretend granted, fall through to real
  t.cv.wait(ml, [&t] { return t.go; });
  t.go = false;
}

// --- Interceptor: mutexes ---------------------------------------------------

bool McRuntime::mutex_lock(void* mutex, const char* name) {
  Task* t = self();
  if (t == nullptr) return false;
  std::unique_lock<std::mutex> ml(model_m_);
  if (draining_) return false;
  t->res = token_locked(kMutexRes, mutex, name != nullptr ? name : "mutex");
  announce_and_park(ml, *t, Task::Park::kLock);
  return true;  // the wrapper now takes the real (uncontended) lock
}

bool McRuntime::mutex_unlock(void* mutex) {
  Task* t = self();
  if (t == nullptr) return false;
  std::unique_lock<std::mutex> ml(model_m_);
  if (draining_) return false;
  const std::uint64_t res = token_locked(kMutexRes, mutex, "mutex");
  owners_[res] = 0;  // the real release already happened in the wrapper
  touch_locked(res);
  // Release-type operation: no yield (Lipton reduction).  Releasing can
  // only enable others, and anything they do becomes schedulable at this
  // task's next acquire-type park — parking here would only inflate the
  // interleaving space without adding distinguishable behaviours.
  return true;
}

// --- Interceptor: condition variables ---------------------------------------

bool McRuntime::cv_wait(void* condvar, void* mutex, bool timed,
                        bool* timed_out) {
  Task* t = self();
  if (t == nullptr) return false;
  auto* mu = static_cast<common::Mutex*>(mutex);
  std::unique_lock<std::mutex> ml(model_m_);
  if (draining_) return false;
  const std::uint64_t mures = token_locked(kMutexRes, mutex, mu->name());
  const std::uint64_t cvres = token_locked(kCvRes, condvar, "cv");
  owners_[mures] = 0;
  touch_locked(mures);
  touch_locked(cvres);
  // Real release before parking: whoever the controller schedules next
  // onto this mutex must find it free.
  mu->native_handle().unlock();
  t->res = cvres;
  t->mu = mures;
  t->mu_ptr = mutex;
  t->timed = timed;
  t->wake_was_timeout = false;
  announce_and_park(ml, *t, Task::Park::kCvWait);
  // Here either the controller granted the (wake, reacquire) pair, or
  // drain released us; either way we really hold nothing and must take
  // the mutex back before returning into the wait's caller.
  const bool was_timeout = t->wake_was_timeout;
  ml.unlock();
  mu->native_handle().lock();
  *timed_out = was_timeout;
  return true;
}

void McRuntime::apply_notify_locked(std::uint64_t cvres, bool all) {
  std::vector<Task*> waiters;
  for (auto& [id, task] : tasks_) {
    if (task->park == Task::Park::kCvWait && task->res == cvres) {
      waiters.push_back(task.get());
    }
  }
  // std semantics: a notify with nobody waiting is lost.
  if (waiters.empty()) return;
  if (!all && waiters.size() > 1) {
    // Contended notify_one: which waiter consumes it is a real choice.
    cv_tokens_[cvres]++;
    return;
  }
  // Deterministic wake (notify_all, or a single waiter): fold it into
  // the notifier's step instead of emitting wake choices.  Nothing is
  // lost — schedules where a racing timeout fires first simply order
  // the kTimeout choice before the notifier's step — and the real
  // contention point (reacquiring the guard) stays a choice.
  for (Task* w : waiters) {
    w->park = Task::Park::kReacquire;
    w->wake_was_timeout = false;
    touch_locked(w->mu);  // the wake contends the guarding mutex
  }
}

bool McRuntime::cv_notify(void* condvar, bool all) {
  Task* t = self();
  if (t == nullptr) return false;  // wrapper still performs the real notify
  std::unique_lock<std::mutex> ml(model_m_);
  if (draining_) return false;
  const std::uint64_t cvres = token_locked(kCvRes, condvar, "cv");
  touch_locked(cvres);
  apply_notify_locked(cvres, all);
  // Release-type: no yield (see mutex_unlock).
  return true;
}

void McRuntime::post_notify(void* condvar, bool all) {
  std::lock_guard<std::mutex> ml(model_m_);
  apply_notify_locked(token_locked(kCvRes, condvar, "cv"), all);
}

// --- Interceptor: timers ----------------------------------------------------

bool McRuntime::timer_schedule(std::function<void()>* fn) {
  Task* t = self();
  if (t == nullptr) return false;  // unmanaged callers keep real timers
  std::unique_lock<std::mutex> ml(model_m_);
  if (draining_) return false;
  const std::uint64_t timer_id = next_timer_id_++;
  pending_timers_[timer_id] = std::move(*fn);
  touch_locked(token_locked(
      kTimerRes, reinterpret_cast<const void*>(timer_id), "timer"));
  // Arming a timer only creates a future choice; no yield.
  return true;
}

// --- Interceptor: thread lifecycle ------------------------------------------

std::uint64_t McRuntime::thread_spawning() {
  std::lock_guard<std::mutex> ml(model_m_);
  if (draining_) return 0;
  expected_checkins_++;
  return next_ticket_++;
}

void McRuntime::thread_begin(std::uint64_t ticket) {
  std::unique_lock<std::mutex> ml(model_m_);
  Task& t =
      register_task_locked(ticket, "T" + std::to_string(ticket), false);
  tls_task() = &t;
  expected_checkins_--;
  announce_and_park(ml, t, Task::Park::kStart);
}

void McRuntime::thread_end() {
  Task* t = self();
  if (t == nullptr) return;
  std::lock_guard<std::mutex> ml(model_m_);
  t->park = Task::Park::kFinished;
  if (running_ == t) {
    running_ = nullptr;
    finish_step_locked();
  }
  tls_task() = nullptr;
  ctrl_cv_.notify_all();
}

// --- external (harness) tasks -----------------------------------------------

void McRuntime::expect_adoption() {
  std::lock_guard<std::mutex> ml(model_m_);
  expected_adoptions_++;
}

void McRuntime::adopt_current_thread(std::uint64_t stable_id,
                                     const std::string& name) {
  std::unique_lock<std::mutex> ml(model_m_);
  expected_adoptions_--;
  if (draining_) {
    ctrl_cv_.notify_all();
    return;  // run unmanaged; real primitives take over
  }
  Task& t = register_task_locked(stable_id, name, true);
  tls_task() = &t;
  announce_and_park(ml, t, Task::Park::kStart);
}

void McRuntime::retire_current_thread() { thread_end(); }

void McRuntime::acquire_app_resource(std::uint64_t resource,
                                     const std::string& name) {
  Task* t = self();
  std::unique_lock<std::mutex> ml(model_m_);
  const std::uint64_t res = token_locked(
      kAppRes, reinterpret_cast<const void*>(resource), name);
  if (t == nullptr || draining_) return;
  t->res = res;
  announce_and_park(ml, *t, Task::Park::kLock);
}

void McRuntime::release_app_resource(std::uint64_t resource) {
  Task* t = self();
  std::unique_lock<std::mutex> ml(model_m_);
  const std::uint64_t res = token_locked(
      kAppRes, reinterpret_cast<const void*>(resource), "app");
  owners_[res] = 0;
  if (t == nullptr || draining_) return;
  touch_locked(res);  // release-type: no yield (see mutex_unlock)
}

// --- controller -------------------------------------------------------------

McRuntime::Quiescence McRuntime::wait_quiescent() {
  std::unique_lock<std::mutex> ml(model_m_);
  const bool quiet = ctrl_cv_.wait_for(ml, options_.quiescence_timeout,
                                       [this] { return quiescent_locked(); });
  return quiet ? Quiescence::kQuiet : Quiescence::kHang;
}

std::vector<ChoiceKey> McRuntime::enabled_choices() {
  std::lock_guard<std::mutex> ml(model_m_);
  std::vector<ChoiceKey> out;
  for (const auto& [id, task] : tasks_) {  // map order: sorted by task id
    switch (task->park) {
      case Task::Park::kStart:
        out.push_back({ChoiceKey::Kind::kStep, id, 0});
        break;
      case Task::Park::kLock:
        if (owners_[task->res] == 0) {
          out.push_back({ChoiceKey::Kind::kStep, id, 0});
        }
        break;
      case Task::Park::kReacquire:
        if (owners_[task->mu] == 0) {
          out.push_back({ChoiceKey::Kind::kStep, id, 0});
        }
        break;
      case Task::Park::kCvWait:
        if (cv_tokens_[task->res] > 0) {
          out.push_back({ChoiceKey::Kind::kStep, id, 0});
        } else if (task->timed &&
                   timeout_firings_ < options_.max_timeout_firings) {
          out.push_back({ChoiceKey::Kind::kTimeout, id, 0});
        }
        break;
      case Task::Park::kRunnerIdle:
        for (const auto& [timer_id, fn] : pending_timers_) {
          out.push_back({ChoiceKey::Kind::kTimer, id, timer_id});
        }
        break;
      case Task::Park::kNone:
      case Task::Park::kFinished:
        break;
    }
  }
  return out;
}

bool McRuntime::timeouts_suppressed() {
  std::lock_guard<std::mutex> ml(model_m_);
  if (timeout_firings_ < options_.max_timeout_firings) return false;
  for (const auto& [id, task] : tasks_) {
    if (task->park == Task::Park::kCvWait && task->timed &&
        cv_tokens_[task->res] == 0) {
      return true;
    }
  }
  return false;
}

void McRuntime::grant(const ChoiceKey& choice, std::vector<ChoiceKey> enabled,
                      bool was_default) {
  std::lock_guard<std::mutex> ml(model_m_);
  const auto it = tasks_.find(choice.actor);
  if (it == tasks_.end()) fatal("grant of unknown task");
  Task& t = *it->second;
  StepInfo step;
  step.key = choice;
  step.enabled = std::move(enabled);
  step.was_default = was_default;

  const auto run = [&](Task& target) {
    current_step_ = std::move(step);
    step_open_ = true;
    running_ = &target;
    target.park = Task::Park::kNone;
    target.go = true;
    target.cv.notify_all();
  };

  switch (choice.kind) {
    case ChoiceKey::Kind::kTimer: {
      const auto timer = pending_timers_.find(choice.arg);
      if (timer == pending_timers_.end() ||
          t.park != Task::Park::kRunnerIdle) {
        fatal("grant of non-enabled timer choice");
      }
      runner_fn_ = std::move(timer->second);
      pending_timers_.erase(timer);
      step.footprint.add(token_locked(
          kTimerRes, reinterpret_cast<const void*>(choice.arg), "timer"));
      run(t);
      return;
    }
    case ChoiceKey::Kind::kTimeout: {
      if (t.park != Task::Park::kCvWait || !t.timed) {
        fatal("grant of non-enabled timeout choice");
      }
      timeout_firings_++;
      step.footprint.add(t.res);
      step.footprint.add(t.mu);
      t.park = Task::Park::kReacquire;
      t.wake_was_timeout = true;
      steps_.push_back(std::move(step));  // immediate: no thread runs
      return;
    }
    case ChoiceKey::Kind::kStep:
      switch (t.park) {
        case Task::Park::kStart:
          run(t);
          return;
        case Task::Park::kLock:
          if (owners_[t.res] != 0) fatal("grant of contended lock choice");
          owners_[t.res] = t.id;
          step.footprint.add(t.res);
          run(t);
          return;
        case Task::Park::kReacquire:
          if (owners_[t.mu] != 0) fatal("grant of contended reacquire");
          owners_[t.mu] = t.id;
          step.footprint.add(t.mu);
          run(t);
          return;
        case Task::Park::kCvWait: {
          // Wake: consume a wake token from a contended notify_one
          // (deterministic wakes never park here — apply_notify_locked
          // moves them straight to kReacquire).
          if (cv_tokens_[t.res] > 0) {
            cv_tokens_[t.res]--;
          } else {
            fatal("grant of cv wake without a pending notify");
          }
          step.footprint.add(t.res);
          step.footprint.add(t.mu);
          t.park = Task::Park::kReacquire;
          t.wake_was_timeout = false;
          steps_.push_back(std::move(step));  // immediate: no thread runs
          return;
        }
        case Task::Park::kNone:
        case Task::Park::kRunnerIdle:
        case Task::Park::kFinished:
          fatal("grant of a task that is not at a steppable park");
      }
  }
}

std::vector<StepInfo> McRuntime::steps() {
  std::lock_guard<std::mutex> ml(model_m_);
  return steps_;
}

bool McRuntime::work_drained() {
  std::lock_guard<std::mutex> ml(model_m_);
  if (!pending_timers_.empty()) return false;
  for (const auto& [id, task] : tasks_) {
    switch (task->park) {
      case Task::Park::kCvWait:
      case Task::Park::kRunnerIdle:
      case Task::Park::kFinished:
        break;
      default:
        return false;
    }
  }
  return true;
}

Footprint McRuntime::last_footprint() {
  std::lock_guard<std::mutex> ml(model_m_);
  return steps_.empty() ? Footprint{} : steps_.back().footprint;
}

std::string McRuntime::dump_tasks() {
  std::lock_guard<std::mutex> ml(model_m_);
  static const char* park_names[] = {"running",   "start",       "lock",    "cvwait",
                                     "reacquire", "runner-idle", "finished"};
  std::string out;
  for (const auto& [id, task] : tasks_) {
    out += "  task " + std::to_string(id) + " (" + task->name + "): " +
           park_names[static_cast<int>(task->park)];
    if (task->park == Task::Park::kLock ||
        task->park == Task::Park::kCvWait) {
      out += " on " + token_names_[task->res];
    }
    if (task->park == Task::Park::kReacquire) {
      out += " on " + token_names_[task->mu];
    }
    out += "\n";
  }
  return out;
}

void McRuntime::begin_drain() {
  std::lock_guard<std::mutex> ml(model_m_);
  if (draining_) return;
  draining_ = true;
  runner_exit_ = true;
  for (auto& [id, task] : tasks_) {
    if (task->park == Task::Park::kCvWait) task->wake_was_timeout = false;
    if (task->park != Task::Park::kNone &&
        task->park != Task::Park::kFinished) {
      task->go = true;
      task->cv.notify_all();
    }
  }
}

void McRuntime::shutdown() {
  if (runner_thread_.joinable()) runner_thread_.join();
}

void McRuntime::runner_loop() {
  std::unique_lock<std::mutex> ml(model_m_);
  Task& t = register_task_locked(1, "timer-runner", false);
  runner_task_ = &t;
  tls_task() = &t;
  for (;;) {
    announce_and_park(ml, t, Task::Park::kRunnerIdle);
    if (runner_exit_) break;
    std::function<void()> fn = std::move(runner_fn_);
    runner_fn_ = nullptr;
    ml.unlock();
    if (fn) fn();
    ml.lock();
  }
  t.park = Task::Park::kFinished;
  if (running_ == &t) {
    running_ = nullptr;
    finish_step_locked();
  }
  tls_task() = nullptr;
  ctrl_cv_.notify_all();
}

}  // namespace adets::mc
