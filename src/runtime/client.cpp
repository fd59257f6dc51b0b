#include "runtime/client.hpp"

#include <stdexcept>

namespace adets::runtime {

using common::Bytes;
using common::GroupId;
using common::NodeId;
using common::RequestId;
using common::SharedBytes;

Client::Client(gcs::GroupService& gcs) : gcs_(gcs) {
  gcs_.set_direct_handler(
      [this](NodeId src, const SharedBytes& payload) { on_direct(src, payload); });
}

void Client::connect(GroupId group, std::vector<NodeId> members) {
  gcs_.connect(group, std::move(members));
}

RequestId Client::next_request_id() {
  // Globally unique: client node id in the top bits, local counter below.
  return RequestId((static_cast<std::uint64_t>(gcs_.self().value()) << 40) | ++counter_);
}

Bytes Client::invoke(GroupId group, const std::string& method, const Bytes& args,
                     std::chrono::milliseconds timeout) {
  RequestMessage request;
  {
    const std::lock_guard<std::mutex> guard(mutex_);
    request.id = next_request_id();
    pending_[request.id.value()];  // create slot
  }
  request.logical = common::LogicalThreadId(request.id.value());
  request.reply_mode = ReplyMode::kDirectToNode;
  request.reply_target = gcs_.self().value();
  request.method = method;
  request.args = args;
  gcs_.submit(group, encode_request(request));

  std::unique_lock<std::mutex> lock(mutex_);
  const bool ok = cv_.wait_for(lock, timeout, [&] {
    return pending_[request.id.value()].ready;
  });
  if (!ok) {
    pending_.erase(request.id.value());
    throw std::runtime_error("client invocation timed out: " + method);
  }
  Bytes result = std::move(pending_[request.id.value()].result);
  pending_.erase(request.id.value());
  return result;
}

RequestId Client::invoke_async(GroupId group, const std::string& method,
                               const Bytes& args, ReplyCallback on_reply) {
  RequestMessage request;
  {
    const std::lock_guard<std::mutex> guard(mutex_);
    request.id = next_request_id();
    pending_[request.id.value()].callback = std::move(on_reply);
  }
  request.logical = common::LogicalThreadId(request.id.value());
  request.reply_mode = ReplyMode::kDirectToNode;
  request.reply_target = gcs_.self().value();
  request.method = method;
  request.args = args;
  gcs_.submit(group, encode_request(request));
  return request.id;
}

void Client::invoke_oneway(GroupId group, const std::string& method, const Bytes& args) {
  RequestMessage request;
  {
    const std::lock_guard<std::mutex> guard(mutex_);
    request.id = next_request_id();
  }
  request.logical = common::LogicalThreadId(request.id.value());
  request.reply_mode = ReplyMode::kNone;
  request.reply_target = 0;
  request.method = method;
  request.args = args;
  gcs_.submit(group, encode_request(request));
}

void Client::on_direct(NodeId /*src*/, const SharedBytes& payload) {
  auto reply = decode_client_reply(payload);
  if (!reply) return;
  ReplyCallback callback;
  {
    const std::lock_guard<std::mutex> guard(mutex_);
    const auto it = pending_.find(reply->request.value());
    if (it == pending_.end() || it->second.ready) return;  // duplicate replica reply
    if (it->second.callback) {
      // Async invocation: complete outside the lock, on this node's
      // network thread; the callback may immediately issue the next
      // invocation.
      callback = std::move(it->second.callback);
      pending_.erase(it);
    } else {
      it->second.ready = true;
      it->second.result = std::move(reply->result);
      cv_.notify_all();
      return;
    }
  }
  callback(std::move(reply->result));
}

}  // namespace adets::runtime
