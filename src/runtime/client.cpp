#include "runtime/client.hpp"

#include <future>
#include <memory>
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

RequestId Client::submit(GroupId group, const std::string& method, const Bytes& args,
                         ReplyMode reply_mode, ReplyCallback on_reply) {
  RequestMessage request;
  {
    const std::lock_guard<std::mutex> guard(mutex_);
    // Globally unique: client node id in the top bits, local counter below.
    request.id =
        RequestId((static_cast<std::uint64_t>(gcs_.self().value()) << 40) | ++counter_);
    if (on_reply) pending_[request.id.value()] = std::move(on_reply);
  }
  request.logical = common::LogicalThreadId(request.id.value());
  request.reply_mode = reply_mode;
  request.reply_target = reply_mode == ReplyMode::kDirectToNode ? gcs_.self().value() : 0;
  request.method = method;
  request.args = args;
  gcs_.submit(group, encode_request(request));
  return request.id;
}

Bytes Client::invoke(GroupId group, const std::string& method, const Bytes& args,
                     std::chrono::milliseconds timeout) {
  // Shared with the callback, which may still run after a timeout.
  auto reply = std::make_shared<std::promise<Bytes>>();
  std::future<Bytes> result = reply->get_future();
  const RequestId id = invoke_async(
      group, method, args, [reply](Bytes bytes) { reply->set_value(std::move(bytes)); });
  if (result.wait_for(timeout) == std::future_status::timeout) {
    {
      const std::lock_guard<std::mutex> guard(mutex_);
      pending_.erase(id.value());
    }
    throw std::runtime_error("client invocation timed out: " + method);
  }
  return result.get();
}

RequestId Client::invoke_async(GroupId group, const std::string& method,
                               const Bytes& args, ReplyCallback on_reply) {
  return submit(group, method, args, ReplyMode::kDirectToNode, std::move(on_reply));
}

void Client::invoke_oneway(GroupId group, const std::string& method, const Bytes& args) {
  submit(group, method, args, ReplyMode::kNone, nullptr);
}

void Client::on_direct(NodeId /*src*/, const SharedBytes& payload) {
  auto reply = decode_client_reply(payload);
  if (!reply) return;
  ReplyCallback callback;
  {
    const std::lock_guard<std::mutex> guard(mutex_);
    const auto it = pending_.find(reply->request.value());
    if (it == pending_.end()) return;  // duplicate replica reply
    callback = std::move(it->second);
    pending_.erase(it);
  }
  // Complete outside the lock, on the network thread; the
  // callback may immediately issue the next invocation.
  callback(std::move(reply->result));
}

}  // namespace adets::runtime
