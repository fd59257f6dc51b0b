// Replica: one member of a replicated object group on one node.
//
// Mirrors the FTflex stack of paper Sec. 5.1: the group communication
// module (gcs::GroupService) delivers totally-ordered messages to the
// ADETS scheduler plug-in, which creates/admits threads and calls back
// into the object adapter (this class) to unmarshal and dispatch the
// invocation, enforce at-most-once semantics and send the reply.
#pragma once

#include <map>
#include <memory>
#include <set>
#include <unordered_map>
#include <vector>

#include "common/annotations.hpp"
#include "common/mutex.hpp"
#include "gcs/group_service.hpp"
#include "runtime/context.hpp"
#include "runtime/object.hpp"
#include "runtime/wire.hpp"
#include "sched/api.hpp"

namespace adets::runtime {

/// Shared name service: group id -> member nodes (for nested calls).
class Directory {
 public:
  void add(common::GroupId group, std::vector<common::NodeId> members) {
    const common::MutexLock guard(mutex_);
    groups_[group.value()] = std::move(members);
  }
  [[nodiscard]] std::vector<common::NodeId> members(common::GroupId group) const {
    const common::MutexLock guard(mutex_);
    const auto it = groups_.find(group.value());
    return it == groups_.end() ? std::vector<common::NodeId>{} : it->second;
  }

 private:
  mutable common::Mutex mutex_{"runtime::directory"};
  std::map<std::uint32_t, std::vector<common::NodeId>> groups_ ADETS_GUARDED_BY(mutex_);
};

/// A recorded totally-ordered event stream of one replica group, usable
/// for passive-replication style re-execution (paper Sec. 1: a backup
/// re-executes logged requests and, thanks to deterministic scheduling,
/// reaches the identical state).
class EventLog {
 public:
  struct Event {
    enum class Kind : std::uint8_t { kRequest, kReply, kSchedMsg } kind;
    common::Bytes payload;          // kRequest: full request wire payload
    common::RequestId reply_id;     // kReply
    common::Bytes reply_result;     // kReply
    common::NodeId sender;          // kSchedMsg
    /// kRequest: sched::Request::callback_of as delivered.
    common::RequestId callback_of = common::RequestId::invalid();
  };

  void append(Event event) {
    const common::MutexLock guard(mutex_);
    events_.push_back(std::move(event));
  }
  [[nodiscard]] std::vector<Event> snapshot() const {
    const common::MutexLock guard(mutex_);
    return events_;
  }
  [[nodiscard]] std::size_t size() const {
    const common::MutexLock guard(mutex_);
    return events_.size();
  }

 private:
  mutable common::Mutex mutex_{"runtime::eventlog"};
  std::vector<Event> events_ ADETS_GUARDED_BY(mutex_);
};

class Replica : private sched::SchedulerEnv, public InvocationHost {
 public:
  Replica(gcs::GroupService& gcs, common::GroupId group,
          std::vector<common::NodeId> members,
          std::unique_ptr<sched::Scheduler> scheduler,
          std::unique_ptr<ReplicatedObject> object,
          std::shared_ptr<Directory> directory);
  ~Replica();

  Replica(const Replica&) = delete;
  Replica& operator=(const Replica&) = delete;

  void stop();

  [[nodiscard]] sched::Scheduler& scheduler() { return *scheduler_; }
  [[nodiscard]] common::GroupId group() const { return group_; }
  [[nodiscard]] std::uint64_t state_hash() const { return object_->state_hash(); }
  [[nodiscard]] std::uint64_t completed_requests() const {
    return scheduler_->completed_requests();
  }

  /// Starts recording this replica's delivered event stream (post
  /// at-most-once filtering) for later re-execution.
  void set_event_log(std::shared_ptr<EventLog> log) {
    const common::MutexLock guard(mutex_);
    event_log_ = std::move(log);
  }

  // --- InvocationHost (used by SyncContext) --------------------------------
  [[nodiscard]] sched::Scheduler& context_scheduler() override { return *scheduler_; }
  common::Bytes nested_invoke(SyncContext& ctx, common::GroupId target,
                              const std::string& method,
                              const common::Bytes& args) override;
  void nested_invoke_oneway(SyncContext& ctx, common::GroupId target,
                            const std::string& method,
                            const common::Bytes& args) override;

 private:
  // SchedulerEnv
  void execute(const sched::Request& request) override;
  void broadcast(const common::Bytes& payload) override;
  [[nodiscard]] common::NodeId self() const override { return gcs_.self(); }
  [[nodiscard]] std::vector<common::NodeId> view_members() const override {
    return gcs_.current_view(group_).members;
  }

  void on_deliver(const gcs::Sequenced& message);
  void on_view(const gcs::View& view);
  void send_reply(const RequestMessage& request, const common::Bytes& result);
  void ensure_connected(common::GroupId target);

  gcs::GroupService& gcs_;
  const common::GroupId group_;
  // Wired once in the constructor, before the replica is visible to any
  // GCS callback; only the pointees (which synchronize themselves) are
  // touched afterwards.
  // adets-sa:allow(unguarded-field) set in the constructor, const thereafter
  std::unique_ptr<sched::Scheduler> scheduler_;
  // adets-sa:allow(unguarded-field) set in the constructor, const thereafter
  std::unique_ptr<ReplicatedObject> object_;
  // adets-sa:allow(unguarded-field) set in the constructor, const thereafter
  std::shared_ptr<Directory> directory_;

  common::Mutex mutex_{"runtime::replica"};
  /// At-most-once (requests).
  std::set<std::uint64_t> seen_requests_ ADETS_GUARDED_BY(mutex_);
  /// At-most-once (nested replies).
  std::set<std::uint64_t> seen_replies_ ADETS_GUARDED_BY(mutex_);
  std::unordered_map<std::uint64_t, common::Bytes> nested_results_
      ADETS_GUARDED_BY(mutex_);
  std::shared_ptr<EventLog> event_log_ ADETS_GUARDED_BY(mutex_);
  bool stopped_ ADETS_GUARDED_BY(mutex_) = false;
};

}  // namespace adets::runtime
