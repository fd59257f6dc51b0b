#include "replication/replay.hpp"

#include <map>

#include "common/annotations.hpp"
#include "common/clock.hpp"
#include "common/logging.hpp"
#include "common/mutex.hpp"
#include "runtime/context.hpp"
#include "runtime/wire.hpp"

namespace adets::repl {

using common::Bytes;
using common::NodeId;
using common::RequestId;
using runtime::AppWireKind;
using runtime::EventLog;

namespace {

/// Standalone scheduler host: executes logged requests against a local
/// object and serves nested replies from the log.
class ReplayHost : public sched::SchedulerEnv, public runtime::InvocationHost {
 public:
  ReplayHost(sched::Scheduler& scheduler, runtime::ReplicatedObject& object)
      : scheduler_(scheduler), object_(object) {}

  void add_reply(RequestId id, Bytes result) {
    const common::MutexLock guard(mutex_);
    replies_[id.value()] = std::move(result);
  }

  // --- SchedulerEnv ---------------------------------------------------
  void execute(const sched::Request& request) override {
    common::Reader r(request.payload);
    try {
      const runtime::RequestMessage message = runtime::decode_request(r);
      runtime::SyncContext ctx(*this, message.id, message.logical, message.callers);
      object_.dispatch(message.method, message.args, ctx);
    } catch (const sched::SchedulerStopping&) {
    } catch (const std::exception& e) {
      ADETS_LOG_ERROR("replay") << "request failed: " << e.what();
    }
  }

  void broadcast(const Bytes&) override {
    // The original broadcasts are already in the log; drop re-emissions
    // (e.g. from the replayer's own wait timers).
  }

  [[nodiscard]] NodeId self() const override { return NodeId(1u << 30); }

  [[nodiscard]] std::vector<NodeId> view_members() const override {
    // Present the replayer as a *follower*: the original leader (node 0)
    // ranks first, so an LSA replayer replays the logged mutex tables.
    return {NodeId(0), self()};
  }

  // --- InvocationHost --------------------------------------------------
  [[nodiscard]] sched::Scheduler& context_scheduler() override { return scheduler_; }

  Bytes nested_invoke(runtime::SyncContext& ctx, common::GroupId,
                      const std::string&, const Bytes&) override {
    const RequestId nested_id =
        runtime::derive_nested_id(ctx.request_id(), ctx.next_nested_counter());
    scheduler_.before_nested_call(nested_id);
    scheduler_.after_nested_call(nested_id);
    const common::MutexLock guard(mutex_);
    const auto it = replies_.find(nested_id.value());
    if (it == replies_.end()) throw sched::SchedulerStopping();
    return it->second;
  }

  void nested_invoke_oneway(runtime::SyncContext& ctx, common::GroupId,
                            const std::string&, const Bytes&) override {
    // Consume the id so later synchronous calls derive matching ids;
    // the callback it triggered is already in the log as a request.
    (void)runtime::derive_nested_id(ctx.request_id(), ctx.next_nested_counter());
  }

 private:
  sched::Scheduler& scheduler_;
  runtime::ReplicatedObject& object_;
  common::Mutex mutex_{"repl::replayhost"};
  std::map<std::uint64_t, Bytes> replies_ ADETS_GUARDED_BY(mutex_);
};

}  // namespace

ReplayResult replay_log(const runtime::EventLog& log, sched::SchedulerKind kind,
                        sched::SchedulerConfig config, runtime::ObjectFactory factory,
                        std::chrono::milliseconds timeout) {
  ReplayResult result;
  const auto events = log.snapshot();
  auto object = factory();
  auto scheduler = sched::make_scheduler(kind, config);
  ReplayHost host(*scheduler, *object);
  scheduler->start(host);

  std::uint64_t app_requests = 0;
  for (const auto& event : events) {
    switch (event.kind) {
      case EventLog::Event::Kind::kRequest: {
        common::Reader r(event.payload);
        sched::Request request;
        try {
          const runtime::RequestMessage message = runtime::decode_request(r);
          request.id = message.id;
          request.logical = message.logical;
        } catch (const common::SerializationError&) {
          continue;
        }
        request.payload = event.payload;
        request.callback_of = event.callback_of;
        app_requests++;
        scheduler->on_request(std::move(request));
        break;
      }
      case EventLog::Event::Kind::kReply:
        host.add_reply(event.reply_id, event.reply_result);
        scheduler->on_reply(event.reply_id);
        break;
      case EventLog::Event::Kind::kSchedMsg:
        scheduler->on_scheduler_message(event.sender, event.payload);
        break;
    }
  }

  const auto deadline = common::Clock::now() + timeout;
  while (scheduler->completed_requests() < app_requests &&
         common::Clock::now() < deadline) {
    common::Clock::sleep_real(std::chrono::milliseconds(1));
  }
  result.requests_executed = scheduler->completed_requests();
  result.complete = result.requests_executed >= app_requests;
  scheduler->stop();
  result.state_hash = object->state_hash();
  return result;
}

}  // namespace adets::repl
