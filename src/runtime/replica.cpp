#include "runtime/replica.hpp"

#include "common/logging.hpp"

namespace adets::runtime {

using common::Bytes;
using common::GroupId;
using common::LogicalThreadId;
using common::NodeId;
using common::Reader;
using common::RequestId;

Replica::Replica(gcs::GroupService& gcs, GroupId group,
                 std::vector<NodeId> members,
                 std::unique_ptr<sched::Scheduler> scheduler,
                 std::unique_ptr<ReplicatedObject> object,
                 std::shared_ptr<Directory> directory)
    : gcs_(gcs),
      group_(group),
      scheduler_(std::move(scheduler)),
      object_(std::move(object)),
      directory_(std::move(directory)) {
  gcs::GroupCallbacks callbacks;
  callbacks.deliver = [this](GroupId, const gcs::Sequenced& m) { on_deliver(m); };
  callbacks.on_view = [this](GroupId, const gcs::View& v) { on_view(v); };
  gcs_.join(group_, std::move(members), callbacks);
  scheduler_->start(*this);
}

Replica::~Replica() { stop(); }

void Replica::stop() {
  {
    const common::MutexLock guard(mutex_);
    if (stopped_) return;
    stopped_ = true;
  }
  scheduler_->stop();
}

// --- delivery path --------------------------------------------------------------

void Replica::on_deliver(const gcs::Sequenced& message) {
  Reader r(message.submission.payload);
  try {
    const auto kind = static_cast<AppWireKind>(r.u8());
    switch (kind) {
      case AppWireKind::kRequest: {
        const RequestId id = r.id<RequestId>();
        const auto logical = r.id<LogicalThreadId>();
        r.u8();   // reply mode
        r.u32();  // reply target
        r.str();        // method and
        r.blob_span();  // args, decoded by execute()
        const RequestId callback = callback_of(read_callers(r), group_);
        // One materialisation per request: the scheduler API owns plain
        // Bytes (replay logs and the mc harness depend on that), so the
        // zero-copy wire payload becomes a vector exactly once here.
        Bytes payload = message.submission.payload.to_bytes();
        {
          const common::MutexLock guard(mutex_);
          if (stopped_) return;
          if (!seen_requests_.insert(id.value()).second) return;  // at-most-once
          if (event_log_) {
            event_log_->append(EventLog::Event{EventLog::Event::Kind::kRequest,
                                               payload,
                                               RequestId::invalid(),
                                               {},
                                               NodeId::invalid(),
                                               callback});
          }
        }
        sched::Request request;
        request.id = id;
        request.logical = logical;
        request.payload = std::move(payload);
        request.callback_of = callback;
        scheduler_->on_request(std::move(request));
        break;
      }
      case AppWireKind::kNestedReply: {
        const RequestId id = r.id<RequestId>();
        Bytes result = r.blob();
        {
          const common::MutexLock guard(mutex_);
          if (stopped_) return;
          if (!seen_replies_.insert(id.value()).second) return;
          if (event_log_) {
            event_log_->append(EventLog::Event{EventLog::Event::Kind::kReply,
                                               {},
                                               id,
                                               result,
                                               NodeId::invalid()});
          }
          nested_results_[id.value()] = std::move(result);
        }
        scheduler_->on_reply(id);
        break;
      }
      case AppWireKind::kSchedMsg: {
        const NodeId sender(r.u32());
        const Bytes payload = r.blob();
        {
          const common::MutexLock guard(mutex_);
          if (event_log_) {
            event_log_->append(EventLog::Event{EventLog::Event::Kind::kSchedMsg,
                                               payload,
                                               RequestId::invalid(),
                                               {},
                                               sender});
          }
        }
        scheduler_->on_scheduler_message(sender, payload);
        break;
      }
    }
  } catch (const common::SerializationError& e) {
    ADETS_LOG_ERROR("replica") << "malformed delivery in group " << group_ << ": "
                               << e.what();
  }
}

void Replica::on_view(const gcs::View& view) {
  scheduler_->on_view_change(view.members);
}

// --- SchedulerEnv ------------------------------------------------------------------

void Replica::execute(const sched::Request& request) {
  Reader r(request.payload);
  RequestMessage message;
  try {
    message = decode_request(r);
  } catch (const common::SerializationError& e) {
    ADETS_LOG_ERROR("replica") << "unmarshal failed: " << e.what();
    return;
  }
  SyncContext ctx(*this, message.id, message.logical, message.callers);
  Bytes result;
  try {
    result = object_->dispatch(message.method, message.args, ctx);
  } catch (const sched::SchedulerStopping&) {
    return;  // shutting down; no reply
  } catch (const std::exception& e) {
    ADETS_LOG_ERROR("replica") << "method " << message.method
                               << " threw: " << e.what();
    result.clear();
  }
  send_reply(message, result);
}

void Replica::send_reply(const RequestMessage& request, const Bytes& result) {
  switch (request.reply_mode) {
    case ReplyMode::kDirectToNode:
      gcs_.send_direct(NodeId(request.reply_target),
                       encode_client_reply(ClientReply{request.id, result}));
      break;
    case ReplyMode::kIntoGroup: {
      const GroupId target(request.reply_target);
      ensure_connected(target);
      gcs_.submit(target, encode_nested_reply(NestedReplyMessage{request.id, result}));
      break;
    }
    case ReplyMode::kNone:
      break;
  }
}

void Replica::broadcast(const Bytes& payload) {
  gcs_.submit(group_, encode_sched_msg(SchedMsgMessage{gcs_.self(), payload}));
}

// --- nested invocations ----------------------------------------------------------------

void Replica::ensure_connected(GroupId target) {
  gcs_.connect(target, directory_->members(target));  // a no-op once connected
}

Bytes Replica::nested_invoke(SyncContext& ctx, GroupId target,
                             const std::string& method, const Bytes& args) {
  const RequestId nested_id = derive_nested_id(ctx.request_id(), ctx.next_nested_counter());
  RequestMessage request;
  request.id = nested_id;
  request.logical = ctx.logical();
  request.reply_mode = ReplyMode::kIntoGroup;
  request.reply_target = group_.value();
  request.method = method;
  request.args = args;
  request.callers = ctx.callers();
  request.callers.push_back(CallerCall{group_.value(), nested_id});

  ensure_connected(target);
  scheduler_->before_nested_call(nested_id);
  gcs_.submit(target, encode_request(request));
  scheduler_->after_nested_call(nested_id);

  const common::MutexLock guard(mutex_);
  const auto it = nested_results_.find(nested_id.value());
  if (it == nested_results_.end()) throw sched::SchedulerStopping();
  Bytes result = it->second;
  nested_results_.erase(it);
  return result;
}

void Replica::nested_invoke_oneway(SyncContext& ctx, GroupId target,
                                   const std::string& method, const Bytes& args) {
  // Fire-and-forget: all replicas derive the same id, so the callee's
  // at-most-once filter collapses the copies; no reply is produced and
  // the scheduler is not involved (the caller does not block).  The call
  // starts its own logical thread: a caller that never waits for it needs
  // no shared id to avoid deadlock, and a shared one would let a call
  // that comes back here re-enter a mutex the caller still holds,
  // depending on when it arrives.
  RequestMessage request;
  request.id = derive_nested_id(ctx.request_id(), ctx.next_nested_counter());
  request.logical = LogicalThreadId(request.id.value());
  request.reply_mode = ReplyMode::kNone;
  request.reply_target = 0;
  request.method = method;
  request.args = args;
  ensure_connected(target);
  gcs_.submit(target, encode_request(request));
}

}  // namespace adets::runtime
