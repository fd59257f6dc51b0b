#include "mc/harness.hpp"

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "common/mc_hooks.hpp"
#include "common/mutex.hpp"
#include "common/types.hpp"
#include "lin/checker.hpp"
#include "racy_scheduler.hpp"
#include "replication/statehash.hpp"
#include "sched/api.hpp"

namespace adets::mc {

namespace {

constexpr int kReplicas = 2;

std::optional<sched::SchedulerKind> kind_of(const std::string& strategy) {
  if (strategy == "seq") return sched::SchedulerKind::kSeq;
  if (strategy == "sl") return sched::SchedulerKind::kSl;
  if (strategy == "sat") return sched::SchedulerKind::kSat;
  if (strategy == "mat") return sched::SchedulerKind::kMat;
  if (strategy == "lsa") return sched::SchedulerKind::kLsa;
  if (strategy == "pds" || strategy == "pds2") return sched::SchedulerKind::kPds;
  return std::nullopt;
}

std::string hex(const common::Bytes& bytes) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (const std::uint8_t b : bytes) {
    out += digits[b >> 4];
    out += digits[b & 0xf];
  }
  return out;
}

struct BusEvent {
  enum class Kind { kRequest, kReply, kMsg };
  Kind kind = Kind::kRequest;
  sched::Request request;
  std::uint64_t nested = 0;
  common::NodeId sender;
  common::Bytes payload;

  [[nodiscard]] std::string render() const {
    switch (kind) {
      case Kind::kRequest:
        return "R " + std::to_string(request.id.value()) + " " +
               std::to_string(request.logical.value());
      case Kind::kReply:
        return "Y " + std::to_string(nested);
      case Kind::kMsg:
        return "M " + std::to_string(sender.value()) + " " + hex(payload);
    }
    return "?";
  }
};

class World;

class WorldEnv final : public sched::SchedulerEnv {
 public:
  WorldEnv(World& world, int replica) : world_(world), replica_(replica) {}
  void execute(const sched::Request& request) override;
  void broadcast(const common::Bytes& payload) override;
  [[nodiscard]] common::NodeId self() const override {
    return common::NodeId(static_cast<std::uint32_t>(replica_));
  }
  [[nodiscard]] std::vector<common::NodeId> view_members() const override {
    return {common::NodeId(0), common::NodeId(1)};
  }

 private:
  World& world_;
  int replica_;
};

class Ctx final : public McCtx {
 public:
  Ctx(World& world, int replica, std::uint64_t request)
      : world_(world), replica_(replica), request_(request) {}
  [[nodiscard]] std::uint64_t request_id() const override { return request_; }
  [[nodiscard]] int replica() const override { return replica_; }
  void lock(std::uint64_t mutex) override;
  void unlock(std::uint64_t mutex) override;
  bool wait(std::uint64_t mutex, std::uint64_t condvar) override;
  bool wait_for(std::uint64_t mutex, std::uint64_t condvar,
                common::Duration paper_timeout) override;
  void notify_one(std::uint64_t mutex, std::uint64_t condvar) override;
  void notify_all(std::uint64_t mutex, std::uint64_t condvar) override;
  void trace(std::uint64_t mutex, const std::string& entry) override;
  [[nodiscard]] std::int64_t get(std::uint64_t mutex,
                                 const std::string& key) override;
  void set(std::uint64_t mutex, const std::string& key,
           std::int64_t value) override;
  void record_op(const std::string& method, const common::Bytes& args,
                 const common::Bytes& result) override;

 private:
  World& world_;
  int replica_;
  std::uint64_t request_;
};

class World {
 public:
  World(const Scenario& scenario, const std::string& strategy,
        const RunOptions& options)
      : scenario_(scenario),
        strategy_(strategy),
        racy_(strategy == "racy"),
        options_(options),
        runtime_(options.runtime) {
    for (int r = 0; r < kReplicas; ++r) {
      if (racy_) {
        schedulers_.push_back(std::make_unique<testing::RacyScheduler>());
      } else {
        sched::SchedulerConfig config;
        config.pds_thread_pool = 2;
        if (strategy == "pds2") config.pds_variant = 2;
        schedulers_.push_back(sched::make_scheduler(*kind_of(strategy), config));
      }
      schedulers_.back()->set_trace(true);  // the whole run, never wrapped
      envs_.push_back(std::make_unique<WorldEnv>(*this, r));
    }
  }

  ExecutionResult run(const SchedulePlan& plan) {
    mchook::install(&runtime_);
    for (int r = 0; r < kReplicas; ++r) schedulers_[r]->start(*envs_[r]);
    for (int r = 0; r < kReplicas; ++r) {
      runtime_.expect_adoption();
      drivers_.emplace_back([this, r] { driver_loop(r); });
    }
    seed();
    ExecutionResult result = control_loop(plan);
    teardown();
    finalize(result);
    mchook::uninstall(&runtime_);
    return result;
  }

  // --- called by WorldEnv / Ctx (on managed threads) ----------------------

  void execute_body(int replica, const sched::Request& request) {
    if (request.kind != sched::RequestKind::kApplication) return;
    if (racy_) {
      // RacyScheduler workers are raw std::threads; manage them through
      // the adoption path with an id stable across re-executions.
      runtime_.adopt_current_thread(
          200 + static_cast<std::uint64_t>(replica) * 100 + request.id.value(),
          "w" + std::to_string(replica) + ":" +
              std::to_string(request.id.value()));
    }
    Ctx ctx(*this, replica, request.id.value());
    if (scenario_.body) scenario_.body(ctx);
    if (racy_) {
      // Count completion before retiring: RacyScheduler's own counter
      // only bumps after execute() returns, when this thread is already
      // unmanaged, so the controller could see every task parked while
      // the count still lags (a spurious deadlock).
      racy_completed_[replica].fetch_add(1, std::memory_order_release);
      runtime_.retire_current_thread();
    }
  }

  void broadcast_msg(int replica, const common::Bytes& payload) {
    BusEvent event;
    event.kind = BusEvent::Kind::kMsg;
    event.sender = common::NodeId(static_cast<std::uint32_t>(replica));
    event.payload = payload;
    publish(event);
  }

  void ctx_lock(int replica, std::uint64_t mutex) {
    if (racy_) {
      // RacyScheduler grants locks with raw primitives the hooks cannot
      // see; model the acquisition at harness level instead so its
      // real-time races become explorable choices.
      runtime_.acquire_app_resource(app_token(replica, mutex),
                                    "app:" + std::to_string(replica) + ":" +
                                        std::to_string(mutex));
    }
    std::uint64_t before = 0;
    {
      const std::lock_guard<std::mutex> guard(state_m_);
      before = acq_count_[replica][mutex];
    }
    schedulers_[replica]->lock(common::MutexId(mutex));
    {
      const std::lock_guard<std::mutex> guard(state_m_);
      std::uint64_t& count = acq_count_[replica][mutex];
      starvation_.push_back({replica, mutex, count - before});
      count++;
    }
  }

  void ctx_unlock(int replica, std::uint64_t mutex) {
    schedulers_[replica]->unlock(common::MutexId(mutex));
    if (racy_) runtime_.release_app_resource(app_token(replica, mutex));
  }

  bool ctx_wait(int replica, std::uint64_t mutex, std::uint64_t condvar,
                common::Duration timeout) {
    return schedulers_[replica]
        ->wait(common::MutexId(mutex), common::CondVarId(condvar), timeout)
        .notified;
  }

  void ctx_notify(int replica, std::uint64_t mutex, std::uint64_t condvar,
                  bool all) {
    if (all) {
      schedulers_[replica]->notify_all(common::MutexId(mutex),
                                       common::CondVarId(condvar));
    } else {
      schedulers_[replica]->notify_one(common::MutexId(mutex),
                                       common::CondVarId(condvar));
    }
  }

  void ctx_trace(int replica, std::uint64_t mutex, const std::string& entry) {
    const std::lock_guard<std::mutex> guard(state_m_);
    traces_[replica][mutex].push_back(entry);
  }

  std::int64_t ctx_get(int replica, const std::string& key) {
    const std::lock_guard<std::mutex> guard(state_m_);
    const auto it = blackboard_[replica].find(key);
    return it == blackboard_[replica].end() ? 0 : it->second;
  }

  void ctx_set(int replica, std::uint64_t mutex, const std::string& key,
               std::int64_t value) {
    const std::lock_guard<std::mutex> guard(state_m_);
    blackboard_[replica][key] = value;
    traces_[replica][mutex].push_back("set " + key + "=" +
                                      std::to_string(value));
  }

  void ctx_record(int replica, std::uint64_t request, const std::string& method,
                  const common::Bytes& args, const common::Bytes& result) {
    const std::lock_guard<std::mutex> guard(state_m_);
    // Per-replica history: instantaneous ops in effect order (the body
    // records while still holding the guarding mutex), so checking it
    // verifies the replica executed a legal *sequential* run.
    lin::Operation op;
    op.client = request;
    op.invoke_stamp = ++lin_stamp_;
    op.response_stamp = ++lin_stamp_;
    op.method = method;
    op.args = args;
    op.result = result;
    replica_ops_[replica].push_back(op);
    // Client-observable history: the first replica to finish a request
    // is the reply the client would see (first-reply-wins, exactly the
    // runtime::Client contract).  Invoke stamps were taken at seed time
    // — every request is outstanding from submission — so this history
    // is maximally concurrent and any violation found is real.
    const auto it = client_ops_.find(request);
    if (it != client_ops_.end() && it->second.pending()) {
      it->second.method = method;
      it->second.args = args;
      it->second.result = result;
      it->second.response_stamp =
          scenario_.submissions.size() + (++client_responses_);
    }
  }

 private:
  struct Starve {
    int replica;
    std::uint64_t mutex;
    std::uint64_t waited;  // other grants between attempt and acquisition
  };

  static std::uint64_t app_token(int replica, std::uint64_t mutex) {
    return (static_cast<std::uint64_t>(replica + 1) << 32) | mutex;
  }

  // Append an event to the canonical total order and every replica's
  // delivery queue.  The sequencer lock makes concurrent publications
  // atomic across queues, so all replicas see one global order.
  void publish(const BusEvent& event) {
    common::MutexLock seq(seq_mu_);
    order_log_ += event.render() + "\n";
    published_.fetch_add(1, std::memory_order_release);
    for (int r = 0; r < kReplicas; ++r) {
      {
        common::MutexLock lk(bus_[r].mu);
        bus_[r].queue.push_back(event);
      }
      bus_[r].cv.notify_all();
    }
  }

  void seed() {
    if (scenario_.lin_spec) {
      const std::lock_guard<std::mutex> guard(state_m_);
      std::uint64_t stamp = 0;
      for (const auto& [id, logical] : scenario_.submissions) {
        lin::Operation op;
        op.client = logical;
        op.invoke_stamp = ++stamp;  // responses start past submissions.size()
        client_ops_[id] = std::move(op);
      }
    }
    for (const auto& [id, logical] : scenario_.submissions) {
      BusEvent event;
      event.kind = BusEvent::Kind::kRequest;
      event.request.kind = sched::RequestKind::kApplication;
      event.request.id = common::RequestId(id);
      event.request.logical = common::LogicalThreadId(logical);
      publish(event);
    }
    // Wake drivers already model-parked on their bus condvars (the
    // notifies inside publish() were real-only: the controller is not a
    // managed task, so its hooks are pass-through).
    for (int r = 0; r < kReplicas; ++r) {
      runtime_.post_notify(&bus_[r].cv, /*all=*/true);
      bus_[r].cv.notify_all();
    }
  }

  void driver_loop(int replica) {
    runtime_.adopt_current_thread(2 + static_cast<std::uint64_t>(replica),
                                  "driver" + std::to_string(replica));
    DriverBus& bus = bus_[replica];
    {
      common::MutexLock lk(bus.mu);
      for (;;) {
        while (!bus.queue.empty()) {
          const BusEvent event = bus.queue.front();
          bus.queue.pop_front();
          lk.unlock();
          dispatch(replica, event);
          bus.delivered.fetch_add(1, std::memory_order_release);
          lk.lock();
        }
        if (bus.closed) break;
        bus.cv.wait(lk);
      }
    }
    runtime_.retire_current_thread();
  }

  void dispatch(int replica, const BusEvent& event) {
    sched::Scheduler& s = *schedulers_[replica];
    switch (event.kind) {
      case BusEvent::Kind::kRequest:
        // A racy on_request spawns an unmanaged worker that adopts
        // itself from execute_body; quiescence must wait for it.
        if (racy_) runtime_.expect_adoption();
        s.on_request(event.request);
        break;
      case BusEvent::Kind::kReply:
        s.on_reply(common::RequestId(event.nested));
        break;
      case BusEvent::Kind::kMsg:
        s.on_scheduler_message(event.sender, event.payload);
        break;
    }
  }

  [[nodiscard]] bool done() {
    for (int r = 0; r < kReplicas; ++r) {
      const std::uint64_t completed =
          racy_ ? racy_completed_[r].load(std::memory_order_acquire)
                : schedulers_[r]->completed_requests();
      if (completed < scenario_.submissions.size()) return false;
    }
    const std::size_t published = published_.load(std::memory_order_acquire);
    for (int r = 0; r < kReplicas; ++r) {
      if (bus_[r].delivered.load(std::memory_order_acquire) < published) {
        return false;
      }
    }
    // Internal work (timeout-broadcast threads chasing a mutex, armed
    // wait timers) must finish too: cutting it off mid-flight would
    // truncate one replica's grant trace and fake a divergence.
    return runtime_.work_drained();
  }

  static bool contains(const std::vector<ChoiceKey>& enabled,
                       const ChoiceKey& key) {
    for (const ChoiceKey& e : enabled) {
      if (e == key) return true;
    }
    return false;
  }

  using SleepSet = std::vector<std::pair<ChoiceKey, Footprint>>;

  static bool sleeping(const SleepSet& sleep, const ChoiceKey& key) {
    for (const auto& [k, fp] : sleep) {
      if (k == key) return true;
    }
    return false;
  }

  static ChoiceKey pick_default(const std::vector<ChoiceKey>& enabled,
                                const std::optional<ChoiceKey>& prev,
                                const SleepSet& sleep) {
    // Fewest-context-switches completion policy: keep the previous actor
    // running while it has an enabled choice, else take the first
    // plain step, else the first choice (timeouts/timers last) — always
    // skipping sleeping choices (interleavings the explorer has already
    // covered); fall back to the front only if everything sleeps.
    if (prev) {
      for (const ChoiceKey& e : enabled) {
        if (e.actor == prev->actor && !sleeping(sleep, e)) return e;
      }
    }
    for (const ChoiceKey& e : enabled) {
      if (e.kind == ChoiceKey::Kind::kStep && !sleeping(sleep, e)) return e;
    }
    for (const ChoiceKey& e : enabled) {
      if (!sleeping(sleep, e)) return e;
    }
    return enabled.front();
  }

  ExecutionResult control_loop(const SchedulePlan& plan) {
    ExecutionResult result;
    std::optional<ChoiceKey> prev;
    // Sleep set in force for the current step (active from the last
    // prefix step on): drop members that conflict with each executed
    // step, so the default completion never replays an interleaving the
    // explorer already covered.
    SleepSet sleep = plan.sleep;
    const std::size_t sleep_from =
        plan.prefix.empty() ? 0 : plan.prefix.size() - 1;
    for (std::size_t step = 0;; ++step) {
      if (runtime_.wait_quiescent() == McRuntime::Quiescence::kHang) {
        result.hang = true;
        result.violations.push_back(
            {"hang", "quiescence watchdog fired at step " +
                         std::to_string(step) + "\n" + runtime_.dump_tasks()});
        break;
      }
      if (step > sleep_from && prev && !sleep.empty()) {
        const Footprint last = runtime_.last_footprint();
        SleepSet kept;
        for (auto& entry : sleep) {
          if (entry.first.actor != prev->actor &&
              !entry.second.conflicts(last)) {
            kept.push_back(std::move(entry));
          }
        }
        sleep = std::move(kept);
      }
      if (done()) {
        result.completed = true;
        break;
      }
      const std::vector<ChoiceKey> enabled = runtime_.enabled_choices();
      if (enabled.empty()) {
        if (runtime_.timeouts_suppressed()) {
          result.bounded = true;  // budget, not a bug
        } else {
          result.deadlock = true;
          result.violations.push_back(
              {"deadlock", "no enabled choice before completion\n" +
                               runtime_.dump_tasks()});
        }
        break;
      }
      if (step >= options_.max_steps) {
        result.bounded = true;
        break;
      }
      const ChoiceKey def = pick_default(
          enabled, prev, step >= sleep_from ? sleep : SleepSet{});
      ChoiceKey choice = def;
      if (step < plan.prefix.size()) {
        if (contains(enabled, plan.prefix[step])) {
          choice = plan.prefix[step];
        } else if (plan.strict_prefix) {
          result.violations.push_back(
              {"replay-divergence",
               "step " + std::to_string(step) + ": recorded choice " +
                   to_string(plan.prefix[step]) +
                   " is not enabled; enabled:\n" + runtime_.dump_tasks()});
          break;
        }
      } else if (const auto it = plan.forced.find(step);
                 it != plan.forced.end() && contains(enabled, it->second)) {
        choice = it->second;
      }
      prev = choice;
      runtime_.grant(choice, enabled, choice == def);
    }
    result.steps = runtime_.steps();
    return result;
  }

  void teardown() {
    runtime_.begin_drain();
    for (int r = 0; r < kReplicas; ++r) {
      {
        common::MutexLock lk(bus_[r].mu);
        bus_[r].closed = true;
      }
      bus_[r].cv.notify_all();
    }
    for (std::thread& d : drivers_) {
      if (d.joinable()) d.join();
    }
    for (const auto& s : schedulers_) s->stop();
    runtime_.shutdown();
  }

  [[nodiscard]] static std::string render_projection(
      const std::map<std::uint64_t, std::vector<std::uint64_t>>& projection) {
    std::string out;
    for (const auto& [mutex, grantees] : projection) {
      out += "m" + std::to_string(mutex) + ":";
      for (const std::uint64_t g : grantees) out += " " + std::to_string(g);
      out += "\n";
    }
    return out;
  }

  [[nodiscard]] std::string render_state(int replica) const {
    std::string out;
    for (const auto& [mutex, entries] : traces_[replica]) {
      out += "m" + std::to_string(mutex) + ":";
      for (const std::string& e : entries) out += " [" + e + "]";
      out += "\n";
    }
    for (const auto& [key, value] : blackboard_[replica]) {
      out += key + "=" + std::to_string(value) + "\n";
    }
    return out;
  }

  [[nodiscard]] std::uint64_t state_hash(int replica) const {
    repl::StateHash h;
    for (const auto& [mutex, entries] : traces_[replica]) {
      h.mix(mutex);
      h.mix_range(entries);
    }
    for (const auto& [key, value] : blackboard_[replica]) {
      h.mix(key);
      h.mix(value);
    }
    return h.digest();
  }

  void finalize(ExecutionResult& result) {
    {
      common::MutexLock lk(seq_mu_);
      result.order_key = order_log_;
    }
    if (!result.completed) return;

    // Property 1: identical per-mutex grant projections (the cross-mutex
    // interleaving is legitimately free for truly multithreaded
    // strategies; within a mutex the order is the contract).
    std::array<std::map<std::uint64_t, std::vector<std::uint64_t>>, kReplicas>
        projections;
    for (int r = 0; r < kReplicas; ++r) {
      projections[r] = sched::per_mutex_decisions(schedulers_[r]->decision_trace());
    }
    if (projections[0] != projections[1]) {
      result.violations.push_back(
          {"grant-divergence", "replica 0:\n" + render_projection(projections[0]) +
                                   "replica 1:\n" + render_projection(projections[1])});
    }

    // Property 2 (within the execution): identical traced state and
    // quiescent state hashes.
    const std::uint64_t hash0 = state_hash(0);
    const std::uint64_t hash1 = state_hash(1);
    if (traces_[0] != traces_[1] || blackboard_[0] != blackboard_[1] ||
        hash0 != hash1) {
      result.violations.push_back(
          {"state-divergence",
           "hashes " + std::to_string(hash0) + " vs " + std::to_string(hash1) +
               "\nreplica 0:\n" + render_state(0) + "replica 1:\n" +
               render_state(1)});
    }

    // Per-schedule linearizability property (scenarios with a lin_spec):
    // each replica's local op order must be a legal sequential
    // execution, and the merged first-reply history must be
    // linearizable.  Not folded into `outcome`: which replica replies
    // first is legitimate real-time nondeterminism, and outcome feeds
    // the cross-schedule equal-order-implies-equal-outcome property.
    if (scenario_.lin_spec) {
      const lin::SequentialSpec& spec = *scenario_.lin_spec;
      for (int r = 0; r < kReplicas; ++r) {
        lin::History local;
        local.ops = replica_ops_[r];
        const lin::CheckResult check = lin::check_history(local, spec);
        if (!check.linearizable && !check.exhausted_budget) {
          result.violations.push_back(
              {"non-linearizable-replica" + std::to_string(r),
               check.explanation});
        }
      }
      lin::History merged;
      for (const auto& [id, op] : client_ops_) merged.ops.push_back(op);
      const lin::CheckResult check = lin::check_history(merged, spec);
      if (!check.linearizable && !check.exhausted_budget) {
        result.violations.push_back({"non-linearizable-client",
                                     check.explanation});
      }
    }

    // Property 4: starvation bound on lock acquisitions.
    for (const Starve& s : starvation_) {
      if (s.waited > static_cast<std::uint64_t>(scenario_.starvation_bound)) {
        result.violations.push_back(
            {"starvation", "replica " + std::to_string(s.replica) + " mutex " +
                               std::to_string(s.mutex) + ": " +
                               std::to_string(s.waited) +
                               " other grants before acquisition (bound " +
                               std::to_string(scenario_.starvation_bound) + ")"});
      }
    }

    result.outcome = "grants:\n" + render_projection(projections[0]) +
                     "state:\n" + render_state(0) +
                     "hash: " + std::to_string(hash0) + "\n";
    result.report = "replica 0 grants:\n" + render_projection(projections[0]) +
                    "replica 1 grants:\n" + render_projection(projections[1]) +
                    "replica 0 state:\n" + render_state(0) +
                    "replica 1 state:\n" + render_state(1);
  }

  const Scenario& scenario_;
  const std::string strategy_;
  const bool racy_;
  const RunOptions options_;
  // adets-sa:allow(unguarded-field) McRuntime synchronizes itself (model_m_)
  McRuntime runtime_;

  // The emulated total-order event bus.  A sequencer lock serialises
  // publications and owns the canonical order; each replica drains its
  // own queue, so the two drivers never contend with each other and the
  // replicas only couple at publication points — which is what lets
  // DPOR factor the schedule space per replica.
  struct DriverBus {
    common::Mutex mu{"mc::bus.q"};
    common::CondVar cv;
    std::deque<BusEvent> queue ADETS_GUARDED_BY(mu);
    bool closed ADETS_GUARDED_BY(mu) = false;
    std::atomic<std::size_t> delivered{0};
  };
  common::Mutex seq_mu_{"mc::bus.seq"};
  std::string order_log_ ADETS_GUARDED_BY(seq_mu_);
  std::atomic<std::size_t> published_{0};
  // adets-sa:allow(unguarded-field) DriverBus entries synchronize themselves
  std::array<DriverBus, kReplicas> bus_;

  // Populated in run() before the driver threads start, then only the
  // pointees (which synchronize themselves) are touched.
  // adets-sa:allow(unguarded-field) written only in run(), before drivers
  std::vector<std::unique_ptr<sched::Scheduler>> schedulers_;
  // adets-sa:allow(unguarded-field) written only in run(), before drivers
  std::vector<std::unique_ptr<WorldEnv>> envs_;
  std::vector<std::thread> drivers_;
  // Racy-path completion counts, bumped while the worker is still
  // managed (see execute_body) so done() never races the model state.
  std::array<std::atomic<std::uint64_t>, kReplicas> racy_completed_{};

  // Harness-internal bookkeeping.  Deliberately a raw std::mutex: this
  // state is not part of the modelled world (only one managed task runs
  // at a time, so there is never contention), and modelling it would
  // pollute the choice space with harness steps.
  std::mutex state_m_;
  std::array<std::map<std::uint64_t, std::vector<std::string>>, kReplicas>
      traces_ ADETS_GUARDED_BY_STATIC(state_m_);
  std::array<std::map<std::string, std::int64_t>, kReplicas> blackboard_
      ADETS_GUARDED_BY_STATIC(state_m_);
  std::array<std::map<std::uint64_t, std::uint64_t>, kReplicas> acq_count_
      ADETS_GUARDED_BY_STATIC(state_m_);
  std::vector<Starve> starvation_ ADETS_GUARDED_BY_STATIC(state_m_);
  // Linearizability recording (scenarios with a lin_spec).  client_ops_
  // is keyed by request id.
  std::uint64_t lin_stamp_ ADETS_GUARDED_BY_STATIC(state_m_) = 0;
  std::uint64_t client_responses_ ADETS_GUARDED_BY_STATIC(state_m_) = 0;
  std::array<std::vector<lin::Operation>, kReplicas> replica_ops_
      ADETS_GUARDED_BY_STATIC(state_m_);
  std::map<std::uint64_t, lin::Operation> client_ops_
      ADETS_GUARDED_BY_STATIC(state_m_);
};

void WorldEnv::execute(const sched::Request& request) {
  world_.execute_body(replica_, request);
}

void WorldEnv::broadcast(const common::Bytes& payload) {
  world_.broadcast_msg(replica_, payload);
}

void Ctx::lock(std::uint64_t mutex) { world_.ctx_lock(replica_, mutex); }
void Ctx::unlock(std::uint64_t mutex) { world_.ctx_unlock(replica_, mutex); }
bool Ctx::wait(std::uint64_t mutex, std::uint64_t condvar) {
  return world_.ctx_wait(replica_, mutex, condvar, common::Duration::zero());
}
bool Ctx::wait_for(std::uint64_t mutex, std::uint64_t condvar,
                   common::Duration paper_timeout) {
  return world_.ctx_wait(replica_, mutex, condvar, paper_timeout);
}
void Ctx::notify_one(std::uint64_t mutex, std::uint64_t condvar) {
  world_.ctx_notify(replica_, mutex, condvar, /*all=*/false);
}
void Ctx::notify_all(std::uint64_t mutex, std::uint64_t condvar) {
  world_.ctx_notify(replica_, mutex, condvar, /*all=*/true);
}
void Ctx::trace(std::uint64_t mutex, const std::string& entry) {
  world_.ctx_trace(replica_, mutex, entry);
}
std::int64_t Ctx::get(std::uint64_t mutex, const std::string& key) {
  (void)mutex;
  return world_.ctx_get(replica_, key);
}
void Ctx::set(std::uint64_t mutex, const std::string& key, std::int64_t value) {
  world_.ctx_set(replica_, mutex, key, value);
}
void Ctx::record_op(const std::string& method, const common::Bytes& args,
                    const common::Bytes& result) {
  world_.ctx_record(replica_, request_, method, args, result);
}

}  // namespace

const std::vector<std::string>& known_strategies() {
  static const std::vector<std::string> all = {"seq", "sl",  "sat",  "mat",
                                               "lsa", "pds", "pds2", "racy"};
  return all;
}

bool strategy_supports(const std::string& strategy, const Scenario& scenario) {
  if (strategy == "racy") {
    // The racy double has no deterministic timeout events; only the
    // lock-level scenarios are meaningful against it.
    return scenario.racy_only;
  }
  if (scenario.racy_only) return false;
  const auto kind = kind_of(strategy);
  if (!kind) return false;
  const auto caps = sched::make_scheduler(*kind)->capabilities();
  if (scenario.needs_condvars && !caps.condition_variables) return false;
  if (scenario.needs_timed_wait && !caps.timed_wait) return false;
  return true;
}

ExecutionResult run_execution(const Scenario& scenario,
                              const std::string& strategy,
                              const SchedulePlan& plan,
                              const RunOptions& options) {
  World world(scenario, strategy, options);
  return world.run(plan);
}

}  // namespace adets::mc
