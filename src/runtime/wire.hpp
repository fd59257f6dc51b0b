// Application-level message encoding carried inside GCS payloads.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/serialization.hpp"
#include "common/types.hpp"

namespace adets::runtime {

/// Payload kinds inside a group's total order.
enum class AppWireKind : std::uint8_t {
  kRequest = 1,      // client request or nested invocation
  kNestedReply = 2,  // reply from a callee group into the caller's order
  kSchedMsg = 3,     // scheduler-internal broadcast (LSA tables, timeouts)
};

/// Where the reply of a request must go.
enum class ReplyMode : std::uint8_t {
  kDirectToNode = 0,  // point-to-point datagram to a client node
  kIntoGroup = 1,     // submitted into the caller group's total order
  kNone = 2,          // fire-and-forget (poison etc.)
};

/// A synchronous nested call, named by the calling group and the call's
/// request id.
struct CallerCall {
  std::uint32_t group = 0;
  common::RequestId call;
};

/// Decoded invocation request.
struct RequestMessage {
  common::RequestId id;
  common::LogicalThreadId logical;
  ReplyMode reply_mode = ReplyMode::kDirectToNode;
  std::uint32_t reply_target = 0;  // node id or group id
  std::string method;
  common::Bytes args;
  /// The synchronous nested calls this request runs under, outermost
  /// first.  A one-way invocation starts an empty list, since its caller
  /// does not wait for it.  A group finds its own pending call here when
  /// the request is a callback into it.
  std::vector<CallerCall> callers;
};

/// The innermost call of `group` among `callers` (invalid if none).
inline common::RequestId callback_of(const std::vector<CallerCall>& callers,
                                     common::GroupId group) {
  for (auto it = callers.rbegin(); it != callers.rend(); ++it) {
    if (it->group == group.value()) return it->call;
  }
  return common::RequestId::invalid();
}

struct NestedReplyMessage {
  common::RequestId request;
  common::Bytes result;
};

struct SchedMsgMessage {
  common::NodeId sender;
  common::Bytes payload;
};

inline common::Bytes encode_request(const RequestMessage& m) {
  common::Writer w;
  w.u8(static_cast<std::uint8_t>(AppWireKind::kRequest));
  w.id(m.id);
  w.id(m.logical);
  w.u8(static_cast<std::uint8_t>(m.reply_mode));
  w.u32(m.reply_target);
  w.str(m.method);
  w.blob(m.args);
  w.u32(static_cast<std::uint32_t>(m.callers.size()));
  for (const CallerCall& c : m.callers) {
    w.u32(c.group);
    w.id(c.call);
  }
  return w.take();
}

/// Reads the caller list that ends a request payload.
inline std::vector<CallerCall> read_callers(common::Reader& r) {
  const std::uint32_t count = r.u32();
  constexpr std::size_t kEntryBytes = 4 + 8;
  if (count > r.remaining() / kEntryBytes) {
    throw common::SerializationError("caller list longer than its payload");
  }
  std::vector<CallerCall> callers(count);
  for (CallerCall& c : callers) {
    c.group = r.u32();
    c.call = r.id<common::RequestId>();
  }
  return callers;
}

/// Decodes a request payload (the leading kind byte included); throws
/// common::SerializationError on malformed input.
inline RequestMessage decode_request(common::Reader& r) {
  RequestMessage m;
  r.u8();  // kind
  m.id = r.id<common::RequestId>();
  m.logical = r.id<common::LogicalThreadId>();
  m.reply_mode = static_cast<ReplyMode>(r.u8());
  m.reply_target = r.u32();
  m.method = r.str();
  m.args = r.blob();
  m.callers = read_callers(r);
  return m;
}

inline common::Bytes encode_nested_reply(const NestedReplyMessage& m) {
  common::Writer w;
  w.u8(static_cast<std::uint8_t>(AppWireKind::kNestedReply));
  w.id(m.request);
  w.blob(m.result);
  return w.take();
}

inline common::Bytes encode_sched_msg(const SchedMsgMessage& m) {
  common::Writer w;
  w.u8(static_cast<std::uint8_t>(AppWireKind::kSchedMsg));
  w.u32(m.sender.value());
  w.blob(m.payload);
  return w.take();
}

/// Deterministic, collision-resistant nested request id: every replica
/// executing the same logical code derives the same id, so the callee's
/// at-most-once filter and the caller-side reply matching line up.  The
/// passive-replication replay harness derives identical ids to look up
/// recorded replies.
inline common::RequestId derive_nested_id(common::RequestId parent,
                                          std::uint64_t counter) {
  std::uint64_t state = parent.value() ^ (counter * 0x9e3779b97f4a7c15ULL);
  return common::RequestId(common::splitmix64(state) | (1ULL << 63));
}

/// Reply datagram from a replica to a client node.
struct ClientReply {
  common::RequestId request;
  common::Bytes result;
};

inline common::Bytes encode_client_reply(const ClientReply& m) {
  common::Writer w;
  w.id(m.request);
  w.blob(m.result);
  return w.take();
}

namespace detail {
inline std::optional<ClientReply> decode_client_reply(common::Reader r) {
  try {
    ClientReply m;
    m.request = r.id<common::RequestId>();
    m.result = r.blob();
    return m;
  } catch (const common::SerializationError&) {
    return std::nullopt;
  }
}
}  // namespace detail

inline std::optional<ClientReply> decode_client_reply(const common::Bytes& payload) {
  return detail::decode_client_reply(common::Reader(payload));
}

inline std::optional<ClientReply> decode_client_reply(const common::SharedBytes& payload) {
  return detail::decode_client_reply(common::Reader(payload));
}

}  // namespace adets::runtime
