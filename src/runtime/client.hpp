// Client stub: invokes methods of a replica group from a non-member node.
//
// Requests are submitted into the group's total order; every replica
// executes the method (active replication) and sends a direct reply; the
// client accepts the first reply per request (the others are duplicates
// by construction).
//
// Two invocation styles share one reply path:
//  - invoke_async(): registers a completion callback, so one client
//    node can multiplex many logical closed-loop sessions (the load
//    harness drives thousands of simulated clients over a handful of
//    client nodes this way).  Callbacks run on the network thread,
//    which runs every node (GroupService's callback contract), and must
//    not block;
//  - invoke(): synchronous, blocks the calling thread on the callback
//    of an invoke_async().
#pragma once

#include <chrono>
#include <functional>
#include <map>
#include <mutex>
#include <string>

#include "common/annotations.hpp"
#include "gcs/group_service.hpp"
#include "runtime/wire.hpp"

namespace adets::runtime {

class Client {
 public:
  /// Called with the first replica reply of an async invocation.
  using ReplyCallback = std::function<void(common::Bytes result)>;

  /// `gcs` must be a service on the client's own node.
  explicit Client(gcs::GroupService& gcs);

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Makes `group` (with the given members) invocable.
  void connect(common::GroupId group, std::vector<common::NodeId> members);

  /// Synchronous invocation; returns the first replica reply.  Throws
  /// std::runtime_error on timeout (real time).
  common::Bytes invoke(common::GroupId group, const std::string& method,
                       const common::Bytes& args,
                       std::chrono::milliseconds timeout = std::chrono::seconds(60));

  /// Asynchronous invocation: `on_reply` fires once, on the network
  /// thread, with the first replica reply.  No built-in
  /// timeout — a caller that needs one owns the deadline (the load
  /// harness does).
  common::RequestId invoke_async(common::GroupId group, const std::string& method,
                                 const common::Bytes& args, ReplyCallback on_reply);

  /// Fire-and-forget invocation (no reply expected).
  void invoke_oneway(common::GroupId group, const std::string& method,
                     const common::Bytes& args);

  [[nodiscard]] common::NodeId node() const { return gcs_.self(); }

 private:
  /// Numbers a request (registering `on_reply` for its first reply, if
  /// given) and submits it to `group`.
  common::RequestId submit(common::GroupId group, const std::string& method,
                           const common::Bytes& args, ReplyMode reply_mode,
                           ReplyCallback on_reply);
  void on_direct(common::NodeId src, const common::SharedBytes& payload);

  gcs::GroupService& gcs_;
  // Raw std::mutex: the client is load-generator machinery outside the
  // replica (no lock-order story to record); guards declared for
  // adets-sa only.
  std::mutex mutex_;
  std::uint64_t counter_ ADETS_GUARDED_BY_STATIC(mutex_) = 0;
  /// Callbacks of the invocations still waiting for their first reply.
  std::map<std::uint64_t, ReplyCallback> pending_ ADETS_GUARDED_BY_STATIC(mutex_);
};

}  // namespace adets::runtime
