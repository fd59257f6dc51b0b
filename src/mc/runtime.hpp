// McRuntime: the cooperative-scheduling core of adets-mc.
//
// One McRuntime instance serialises every *managed* thread of a scenario
// onto a single logical processor (CHESS lineage).  Managed threads are
// (a) scheduler threads spawned through SchedulerBase (registered via
// spawn tickets; the pooled OS worker that runs one is managed only for
// that thread's lifetime), (b) harness driver threads and RacyScheduler
// workers (adopted explicitly), and (c) the runtime's own timer-runner
// task that executes virtualised TimerService callbacks.  Each managed
// thread runs until its next interception point (common/mc_hooks.hpp),
// announces the operation it wants to perform, and parks; the controller
// — the unmanaged thread driving run_execution — waits until every
// managed thread is parked (quiescence), asks for the set of enabled
// choices, and grants exactly one.  Real primitive state stays
// authoritative throughout: a task really acquires a mutex only after
// the model granted it (so the acquisition cannot block), and really
// releases before the model learns of the release (so a freshly granted
// task never contends).
//
// The runtime is process-exclusive (it installs itself as the global
// mc-hook interceptor) and single-use: one instance drives one execution
// of one schedule, then is drained and destroyed.  Determinism across
// re-executions comes from stable identity assignment: task ids are
// spawn tickets drawn in program order, timer ids are creation-ordered,
// and resource tokens are first-touch-ordered.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/annotations.hpp"
#include "common/mc_hooks.hpp"
#include "mc/model.hpp"

namespace adets::mc {

class McRuntime final : public mchook::Interceptor {
 public:
  struct Options {
    /// Watchdog: how long the controller waits for all managed threads
    /// to park before declaring the execution hung.
    std::chrono::milliseconds quiescence_timeout{10000};
    /// Per-execution cap on kTimeout choices (timed-wait expiries of
    /// common-level waits, e.g. the PDS idle-fill).  Prevents infinite
    /// artificial-request loops from unbounding the exploration tree.
    int max_timeout_firings = 2;
  };

  explicit McRuntime(Options options);
  ~McRuntime() override;

  McRuntime(const McRuntime&) = delete;
  McRuntime& operator=(const McRuntime&) = delete;

  // --- mchook::Interceptor (called from managed/unmanaged threads) --------
  bool mutex_lock(void* mutex, const char* name) override;
  bool mutex_unlock(void* mutex) override;
  bool cv_wait(void* condvar, void* mutex, bool timed, bool* timed_out) override;
  bool cv_notify(void* condvar, bool all) override;
  bool timer_schedule(std::function<void()>* fn) override;
  std::uint64_t thread_spawning() override;
  void thread_begin(std::uint64_t ticket) override;
  void thread_end() override;

  // --- controller API (the unmanaged thread driving the execution) --------
  enum class Quiescence { kQuiet, kHang };
  /// Blocks until every managed thread is parked and every announced
  /// spawn/adoption has checked in (or the watchdog fires).
  [[nodiscard]] Quiescence wait_quiescent();
  /// Enabled choices at the current (quiescent) state, in canonical
  /// (deterministic) order.  Call only while quiescent.
  [[nodiscard]] std::vector<ChoiceKey> enabled_choices();
  /// True when at least one timed wait is blocked only by the
  /// timeout-firing cap (distinguishes budget exhaustion from deadlock).
  [[nodiscard]] bool timeouts_suppressed();
  /// True when every managed task is idle (waiting on a condvar,
  /// finished, or the idle timer-runner) and no virtual timer is armed.
  /// Completion must wait for this: a task still holding or chasing a
  /// lock is outstanding work, and an armed timer WILL fire in real
  /// time, so its effects belong to every completed execution.  Call
  /// only while quiescent.
  [[nodiscard]] bool work_drained();
  /// Executes one enabled choice.  `enabled` is the snapshot the caller
  /// selected from; it is stored on the resulting step for the explorer.
  void grant(const ChoiceKey& choice, std::vector<ChoiceKey> enabled,
             bool was_default);
  /// All completed steps so far (footprints of steps whose task is still
  /// running are not included until the task parks again).
  [[nodiscard]] std::vector<StepInfo> steps();
  /// Footprint of the most recently completed step (empty before the
  /// first).  Call only while quiescent.
  [[nodiscard]] Footprint last_footprint();
  /// Diagnostic dump of task park states (deadlock/hang reports).
  [[nodiscard]] std::string dump_tasks();

  /// Releases every parked task into real-primitive mode; subsequent
  /// hook calls fall through.  Call before stopping schedulers.
  void begin_drain();
  /// Joins the timer-runner.  Call after the harness joined its threads.
  void shutdown();

  // --- managed-world helpers for the harness ------------------------------
  /// Announces that exactly one adopt_current_thread call is imminent
  /// (e.g. a RacyScheduler worker was just spawned by a delivery);
  /// quiescence waits for it.  Callable from any thread.
  void expect_adoption();
  /// Registers the calling (externally created) thread as a managed task
  /// with a caller-chosen stable id, and parks until first scheduled.
  void adopt_current_thread(std::uint64_t stable_id, const std::string& name);
  void retire_current_thread();
  /// Models an application-level lock for schedulers whose threads do not
  /// block through common::Mutex/CondVar (the racy double):
  /// parks until the model grants `resource` to the calling task.  The
  /// caller performs the real acquisition afterwards (uncontended by
  /// construction, since every acquirer routes through this).
  void acquire_app_resource(std::uint64_t resource, const std::string& name);
  void release_app_resource(std::uint64_t resource);
  /// Applies a condvar-notify effect from the (unmanaged) controller —
  /// used when the harness seeds the event bus while every task is
  /// parked.  `condvar` is the common::CondVar the tasks wait on.
  void post_notify(void* condvar, bool all);

 private:
  struct Task {
    std::uint64_t id = 0;
    std::string name;
    enum class Park {
      kNone,        // granted: executing real code
      kStart,       // at thread_begin/adoption, waiting for first grant
      kLock,        // wants mutex `res`
      kCvWait,      // waiting on condvar `res`, guarding mutex `mu`
      kReacquire,   // woken from kCvWait, waiting to reacquire `mu`
      kRunnerIdle,  // the timer-runner, waiting for a timer to fire
      kFinished,
    };
    Park park = Park::kNone;
    std::uint64_t res = 0;
    std::uint64_t mu = 0;
    void* mu_ptr = nullptr;  // common::Mutex* to really relock after a wait
    bool timed = false;
    bool wake_was_timeout = false;  // how the last cv wake resolved
    bool external = false;          // adopted (not spawn-ticketed)
    std::condition_variable cv;     // parks on model_m_
    bool go = false;
  };

  enum ResourceKind { kMutexRes = 1, kCvRes = 2, kAppRes = 3, kTimerRes = 4 };

  std::uint64_t token_locked(ResourceKind kind, const void* ptr,
                             const std::string& name);
  Task* self() const { return tls_task(); }
  static Task*& tls_task();
  /// Completes the in-flight step (if any) and parks the calling task.
  /// Returns with model_m_ reacquired once the controller grants.
  void announce_and_park(std::unique_lock<std::mutex>& ml, Task& t,
                         Task::Park park);
  void finish_step_locked();
  void touch_locked(std::uint64_t resource);
  /// Applies a notify to condvar `cvres`.  Deterministic wakes collapse
  /// into the notifier's step (waiters move straight to kReacquire); a
  /// contended notify_one instead credits a wake token so which waiter
  /// wins stays a scheduling choice.
  void apply_notify_locked(std::uint64_t cvres, bool all);
  [[nodiscard]] bool quiescent_locked() const;
  void runner_loop();
  Task& register_task_locked(std::uint64_t id, const std::string& name,
                             bool external);

  const Options options_;

  // The runtime's own lock must be a raw std::mutex -- a common::Mutex
  // would recurse into the very mc hooks this class implements -- so
  // the guard facts below are declared with the compiler-invisible
  // ADETS_GUARDED_BY_STATIC and enforced by adets-sa instead of clang.
  mutable std::mutex model_m_;
  std::condition_variable ctrl_cv_;
  std::map<std::uint64_t, std::unique_ptr<Task>> tasks_
      ADETS_GUARDED_BY_STATIC(model_m_);
  Task* running_ ADETS_GUARDED_BY_STATIC(model_m_) = nullptr;
  int expected_checkins_ ADETS_GUARDED_BY_STATIC(model_m_) = 0;
  int expected_adoptions_ ADETS_GUARDED_BY_STATIC(model_m_) = 0;
  bool draining_ ADETS_GUARDED_BY_STATIC(model_m_) = false;

  // Model state.
  std::map<std::uint64_t, std::uint64_t> owners_
      ADETS_GUARDED_BY_STATIC(model_m_);  // mutex token -> task id (0 = free)
  std::map<std::uint64_t, int> cv_tokens_
      ADETS_GUARDED_BY_STATIC(model_m_);  // condvar token -> notify_one credits
  std::map<std::uint64_t, std::function<void()>> pending_timers_
      ADETS_GUARDED_BY_STATIC(model_m_);
  std::uint64_t next_timer_id_ ADETS_GUARDED_BY_STATIC(model_m_) =
      (1ULL << 62) + 1;
  int timeout_firings_ ADETS_GUARDED_BY_STATIC(model_m_) = 0;

  // Stable identity assignment.
  std::map<std::pair<int, const void*>, std::uint64_t> token_ids_
      ADETS_GUARDED_BY_STATIC(model_m_);
  std::map<std::uint64_t, std::string> token_names_
      ADETS_GUARDED_BY_STATIC(model_m_);
  std::map<std::string, int> name_counts_ ADETS_GUARDED_BY_STATIC(model_m_);
  std::uint64_t next_token_ ADETS_GUARDED_BY_STATIC(model_m_) = 1;
  std::uint64_t next_ticket_ ADETS_GUARDED_BY_STATIC(model_m_) =
      100;  // spawn-ticket task ids; 1..99 reserved

  // Step recording.
  bool step_open_ ADETS_GUARDED_BY_STATIC(model_m_) = false;
  StepInfo current_step_ ADETS_GUARDED_BY_STATIC(model_m_);
  std::vector<StepInfo> steps_ ADETS_GUARDED_BY_STATIC(model_m_);

  // Timer runner.
  Task* runner_task_ ADETS_GUARDED_BY_STATIC(model_m_) = nullptr;
  std::function<void()> runner_fn_ ADETS_GUARDED_BY_STATIC(model_m_);
  bool runner_exit_ ADETS_GUARDED_BY_STATIC(model_m_) = false;
  std::thread runner_thread_;
};

}  // namespace adets::mc
