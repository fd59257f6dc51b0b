// Wire encoding of group-communication protocol messages.
//
// Payloads are zero-copy: a Submission inside a received envelope is a
// SharedBytes slice of that envelope, so decoding a SeqBatch of N
// submissions performs no per-message allocation — the whole batch
// shares the one buffer the transport delivered.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/buffer.hpp"
#include "common/serialization.hpp"
#include "common/types.hpp"
#include "gcs/view.hpp"

namespace adets::gcs {

/// Protocol message kinds multiplexed over the transport.  Each of the
/// three ordering roles (submission, ack to an external sender, sequenced
/// message) has one wire format, a batch: a lone message travels as a
/// batch of one.
enum class WireKind : std::uint8_t {
  kNack = 4,       // member -> sequencer: retransmit sequence range
  kHeartbeat = 5,  // member -> members: liveness
  kViewPropose = 6,
  kViewAck = 7,
  kViewCommit = 8,
  kDirect = 9,        // point-to-point datagram outside any total order
  kSeqBatch = 10,     // sequencer -> members: contiguous run of ordered messages
  kSubmitBatch = 11,  // sender -> sequencer (or member, forwarded): order these
  kSubmitAckBatch = 12,  // sequencer -> external sender: these are sequenced
};

/// A message submitted for total ordering.  (sender, sender_msg_id) makes
/// submissions idempotent across retransmissions and sequencer fail-over.
struct Submission {
  common::NodeId sender;
  std::uint64_t sender_msg_id = 0;
  common::SharedBytes payload;
};

/// A sequenced message as retained/delivered by members.
struct Sequenced {
  common::SeqNo seq;
  Submission submission;
};

// --- encoding helpers -----------------------------------------------------

inline void encode_submission(common::Writer& w, const Submission& s) {
  w.u32(s.sender.value());
  w.u64(s.sender_msg_id);
  w.blob(s.payload);
}

/// `envelope` is the buffer `r` reads from; the payload becomes a
/// zero-copy slice of it.
inline Submission decode_submission(common::Reader& r,
                                    const common::SharedBytes& envelope) {
  Submission s;
  s.sender = common::NodeId(r.u32());
  s.sender_msg_id = r.u64();
  const auto [offset, length] = r.blob_span();
  s.payload = envelope.slice(offset, length);
  return s;
}

/// A sequenced message with its own seq: a ViewAck's entries need not be
/// contiguous, so they cannot share a SeqBatch's implicit numbering.
inline void encode_sequenced(common::Writer& w, const Sequenced& m) {
  w.id(m.seq);
  encode_submission(w, m.submission);
}

inline Sequenced decode_sequenced(common::Reader& r,
                                  const common::SharedBytes& envelope) {
  Sequenced m;
  m.seq = r.id<common::SeqNo>();
  m.submission = decode_submission(r, envelope);
  return m;
}

// A SeqBatch is a contiguous run [first_seq, first_seq + count): the per
// message seq is implicit, so the run header costs 12 bytes however many
// messages it carries.  A sequencing round and NACK repair both send it
// (any contiguous sub-run of the retained window is a valid SeqBatch);
// `run` must be non-empty.
inline common::Bytes encode_seq_batch(common::GroupId group,
                                      std::span<const Sequenced> run) {
  std::size_t bytes = 0;
  for (const Sequenced& m : run) bytes += m.submission.payload.size();
  common::Writer w;
  w.reserve(bytes + 20 * (run.size() + 1));
  w.u8(static_cast<std::uint8_t>(WireKind::kSeqBatch));
  w.u32(group.value());
  w.u64(run.front().seq.value());
  w.u32(static_cast<std::uint32_t>(run.size()));
  for (const Sequenced& m : run) encode_submission(w, m.submission);
  return w.take();
}

/// Tells one external sender that its messages `msg_ids` are sequenced.
inline common::Bytes encode_submit_ack_batch(common::GroupId group,
                                             std::span<const std::uint64_t> msg_ids) {
  common::Writer w;
  w.reserve(msg_ids.size() * 8 + 16);
  w.u8(static_cast<std::uint8_t>(WireKind::kSubmitAckBatch));
  w.u32(group.value());
  w.u32(static_cast<std::uint32_t>(msg_ids.size()));
  for (const std::uint64_t id : msg_ids) w.u64(id);
  return w.take();
}

inline void encode_view(common::Writer& w, const View& v) {
  w.u32(v.id.value());
  w.u32(static_cast<std::uint32_t>(v.members.size()));
  for (auto m : v.members) w.u32(m.value());
}

inline View decode_view(common::Reader& r) {
  View v;
  v.id = common::ViewId(r.u32());
  const auto n = r.u32();
  v.members.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) v.members.emplace_back(r.u32());
  return v;
}

}  // namespace adets::gcs
