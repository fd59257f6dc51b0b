#include "gcs/group_service.hpp"

#include <algorithm>
#include <cassert>

#include "common/clock.hpp"
#include "common/logging.hpp"

namespace adets::gcs {

using common::Bytes;
using common::Duration;
using common::GroupId;
using common::NodeId;
using common::Reader;
using common::SeqNo;
using common::SharedBytes;
using common::TimePoint;
using common::Writer;

namespace {

// Fixed protocol constants; durations are real time, like GcsConfig's.
/// Period of the heartbeats a member sends the rest of its view.
constexpr Duration kHeartbeatInterval = std::chrono::milliseconds(20);
/// A coordinator whose proposal is not acked by every member it names
/// within this long proposes again.
constexpr Duration kViewAckTimeout = std::chrono::milliseconds(250);
/// How many delivered messages each member retains for NACK repair and
/// view-change reconciliation (a sliding window; older ones cannot be
/// re-requested, matching a real GC layer's stability horizon).
constexpr std::size_t kRetainedLimit = 8192;
/// The sequencer's dedup map is pruned once it holds more entries than
/// this (entries below the retained window reference messages nobody can
/// re-request anyway).
constexpr std::size_t kDedupLimit = 2 * kRetainedLimit;
/// Caps of one SubmitBatch or SeqBatch datagram: messages, and payload
/// bytes after which no further message joins it.
constexpr std::size_t kMaxBatchMsgs = 64;
constexpr std::size_t kMaxBatchBytes = 64 * 1024;

/// Length of the datagram that starts at message `first` of `count`,
/// whose payload sizes `size_of(i)` gives (at least one message).
template <typename SizeOf>
std::size_t chunk_length(std::size_t first, std::size_t count, SizeOf size_of) {
  std::size_t n = 1;
  for (std::size_t bytes = size_of(first);
       first + n < count && n < kMaxBatchMsgs && bytes < kMaxBatchBytes; ++n) {
    bytes += size_of(first + n);
  }
  return n;
}

}  // namespace

GroupService::GroupService(transport::SimNetwork& net, NodeId self, GcsConfig config)
    : net_(net), self_(self), config_(config) {
  net_.set_handler(
      self_, [this](transport::Message m) { on_message(std::move(m)); },
      [this] { return on_deadline(); });
}

GroupService::~GroupService() { stop(); }

void GroupService::stop() {
  {
    const common::MutexLock guard(mutex_);
    if (stopping_) return;
    stopping_ = true;
  }
  // Duties and callbacks run inside the node's handlers, so once its
  // thread has left them none is running, and none can start.
  net_.set_handler(self_, {}, {});
}

void GroupService::join(GroupId group, std::vector<NodeId> initial_members,
                        GroupCallbacks callbacks) {
  const common::MutexLock guard(mutex_);
  MemberState st;
  st.view = View::initial(std::move(initial_members));
  st.callbacks = std::move(callbacks);
  const auto now = common::Clock::now();
  for (auto m : st.view.members) {
    if (m != self_) st.last_heard[m.value()] = now;
  }
  memberships_[group.value()] = std::move(st);
  // A member submits through its own membership; register a sender slot
  // so submit() has a pending-tracking structure.
  SenderState sender;
  sender.members = memberships_[group.value()].view.members;
  senders_.emplace(group.value(), std::move(sender));
  net_.wake_at(self_, now);  // the first heartbeat is due
}

void GroupService::connect(GroupId group, std::vector<NodeId> members) {
  const common::MutexLock guard(mutex_);
  // A new session would restart the message numbering, and the sequencer
  // would drop the next submissions as duplicates of earlier ones.
  if (senders_.count(group.value()) > 0) return;
  std::sort(members.begin(), members.end());
  SenderState sender;
  sender.members = std::move(members);
  sender.external = true;
  senders_[group.value()] = std::move(sender);
}

std::uint64_t GroupService::submit(GroupId group, Bytes payload) {
  const common::MutexLock guard(mutex_);
  auto it = senders_.find(group.value());
  if (it == senders_.end()) return 0;
  SenderState& sender = it->second;
  const std::uint64_t msg_id = sender.next_msg_id++;
  const bool first = sender.pending.empty();
  SenderState::Pending& pending = sender.pending[msg_id];
  pending.payload = SharedBytes(std::move(payload));
  pending.target = sender.target;
  if (sender.members.empty()) return msg_id;
  const auto now = common::Clock::now();
  // Send just the new submission (never the whole pending map: that
  // would be O(pending) work per submit under load); with a configured
  // submit_flush_delay, on_deadline packs it into a SubmitBatch instead.
  // Later submissions are due no earlier than the first one, so only
  // the first lowers the node's deadline.
  if (config_.submit_flush_delay == Duration::zero()) {
    pending.last_send = now;
    send_submissions(group, sender, {msg_id}, pending.target);
    if (first) net_.wake_at(self_, now + config_.retransmit_interval);
  } else if (sender.flush_at == TimePoint::max()) {
    sender.flush_at = now + config_.submit_flush_delay;
    net_.wake_at(self_, sender.flush_at);
  }
  return msg_id;
}

void GroupService::send_direct(NodeId dst, Bytes payload) {
  Writer w;
  w.reserve(payload.size() + 16);
  w.u8(static_cast<std::uint8_t>(WireKind::kDirect));
  w.u32(0);
  w.blob(payload);
  net_.send(self_, dst, w.take());
}

void GroupService::set_direct_handler(
    std::function<void(NodeId, const SharedBytes&)> handler) {
  const common::MutexLock guard(mutex_);
  direct_handler_ = std::move(handler);
}

View GroupService::current_view(GroupId group) const {
  const common::MutexLock guard(mutex_);
  const auto it = memberships_.find(group.value());
  return it == memberships_.end() ? View{} : it->second.view;
}

std::uint64_t GroupService::delivered_up_to(GroupId group) const {
  const common::MutexLock guard(mutex_);
  const auto it = memberships_.find(group.value());
  return it == memberships_.end() ? 0 : it->second.delivered_up_to;
}

// --- message handling -------------------------------------------------------

void GroupService::on_message(transport::Message message) {
  Reader r(message.payload);
  WireKind kind;
  GroupId group;
  try {
    kind = static_cast<WireKind>(r.u8());
    group = GroupId(r.u32());
  } catch (const common::SerializationError&) {
    return;
  }

  common::MutexLock lock(mutex_);
  if (stopping_) return;
  if (kind == WireKind::kDirect) {
    try {
      const auto [offset, length] = r.blob_span();
      events_.push_back(
          DirectEvent{direct_handler_, message.src, message.payload.slice(offset, length)});
    } catch (const common::SerializationError&) {
    }
    run_callbacks(lock);
    return;
  }

  // Any protocol traffic from a peer counts as a liveness signal.
  if (auto it = memberships_.find(group.value()); it != memberships_.end()) {
    it->second.last_heard[message.src.value()] = common::Clock::now();
  }
  try {
    switch (kind) {
      case WireKind::kSubmitBatch: handle_submit_batch(group, message, r); break;
      case WireKind::kSubmitAckBatch:
        handle_submit_ack_batch(group, message.src, r);
        break;
      case WireKind::kSeqBatch: handle_seq_batch(group, message, r); break;
      case WireKind::kNack: handle_nack(group, message.src, r); break;
      case WireKind::kHeartbeat: handle_heartbeat(group, message.src, r); break;
      case WireKind::kViewPropose: handle_view_propose(group, message.src, r); break;
      case WireKind::kViewAck: handle_view_ack(group, message.src, message, r); break;
      case WireKind::kViewCommit: handle_view_commit(group, r); break;
      case WireKind::kDirect: break;  // handled above
    }
  } catch (const common::SerializationError& e) {
    ADETS_LOG_ERROR("gcs") << "malformed message kind=" << static_cast<int>(kind)
                           << ": " << e.what();
  }
  run_callbacks(lock);
}

void GroupService::run_callbacks(common::MutexLock& lock) {
  if (events_.empty()) return;
  std::vector<Event> batch;
  batch.swap(events_);
  lock.unlock();
  for (Event& event : batch) {
    if (auto* deliver = std::get_if<DeliverEvent>(&event)) {
      if (deliver->deliver) {
        for (const Sequenced& message : deliver->messages) {
          deliver->deliver(deliver->group, message);
        }
      }
    } else if (auto* view = std::get_if<ViewEvent>(&event)) {
      if (view->on_view) view->on_view(view->group, view->view);
    } else if (auto* direct = std::get_if<DirectEvent>(&event)) {
      if (direct->handler) direct->handler(direct->src, direct->payload);
    }
  }
  batch.clear();
  lock.lock();
}

void GroupService::handle_submit_batch(GroupId group, const transport::Message& m,
                                       Reader& r) {
  auto it = memberships_.find(group.value());
  if (it == memberships_.end()) return;
  MemberState& st = it->second;
  if (st.view.sequencer() != self_) {
    // Forward the original envelope to the current sequencer verbatim
    // (it names its sender); the sender will also retry.
    net_.send(self_, st.view.sequencer(), m.payload);
    return;
  }
  // Between a view-commit and its installation the old sequence space is
  // frozen; the sender retransmits into the new view.
  if (st.commit_pending) return;
  const NodeId sender(r.u32());
  std::vector<Submission> batch;
  for (std::uint32_t i = 0, count = r.u32(); i < count; ++i) {
    const std::uint64_t msg_id = r.u64();
    const auto [offset, length] = r.blob_span();
    batch.push_back({sender, msg_id, m.payload.slice(offset, length)});
  }
  // One sequencing round, started only once the whole batch parsed (a
  // malformed one sequences nothing): what is new is multicast before
  // this handler returns, then an external sender is acked every message
  // of the batch.  A duplicate was multicast in the round that sequenced
  // it, so it is re-acked too.
  const bool external = !st.view.contains(sender);
  std::vector<Sequenced> round;
  std::vector<std::uint64_t> acks;
  for (Submission& s : batch) {
    if (external) acks.push_back(s.sender_msg_id);
    if (st.dedup.try_emplace({sender.value(), s.sender_msg_id}, st.next_seq).second) {
      round.push_back({SeqNo(st.next_seq++), std::move(s)});
    }
  }
  send_seq_batches(group, round, st.view.members);
  if (!acks.empty()) net_.send(self_, sender, encode_submit_ack_batch(group, acks));
}

void GroupService::handle_submit_ack_batch(GroupId group, NodeId from, Reader& r) {
  auto it = senders_.find(group.value());
  if (it == senders_.end()) return;
  const std::uint32_t count = r.u32();
  for (std::uint32_t i = 0; i < count; ++i) {
    it->second.pending.erase(r.u64());
  }
  follow_sequencer(group, it->second, from);
}

void GroupService::follow_sequencer(GroupId group, SenderState& sender, NodeId from) {
  // Only the sequencer acks, so the acking node is where submissions
  // belong.  Members route by their installed view instead.
  if (!sender.external) return;
  const auto pos = std::find(sender.members.begin(), sender.members.end(), from);
  if (pos == sender.members.end()) return;
  const auto target = static_cast<std::size_t>(pos - sender.members.begin());
  if (target != sender.target) retarget_pending(group, sender, target);
}

void GroupService::handle_seq_batch(GroupId group, const transport::Message& m,
                                    Reader& r) {
  auto it = memberships_.find(group.value());
  if (it == memberships_.end()) return;
  MemberState& st = it->second;
  const std::uint64_t first_seq = r.u64();
  const std::uint32_t count = r.u32();
  for (std::uint32_t i = 0; i < count; ++i) {
    Sequenced message;
    message.seq = SeqNo(first_seq + i);
    message.submission = decode_submission(r, m.payload);
    const std::uint64_t seq = message.seq.value();
    // A member observing its own submission sequenced can stop retrying it.
    if (message.submission.sender == self_) {
      if (auto sit = senders_.find(group.value()); sit != senders_.end()) {
        sit->second.pending.erase(message.submission.sender_msg_id);
      }
    }
    if (seq <= st.delivered_up_to) continue;
    if (st.commit_pending && seq > st.commit_final_highest) continue;
    st.holdback.emplace(seq, std::move(message));
  }
  try_deliver(group, st);
  send_nack_if_gap(group, st);
}

void GroupService::try_deliver(GroupId group, MemberState& st) {
  // Collect the whole contiguous run and queue it as one event (one
  // queue operation and one callback copy per run).
  std::vector<Sequenced> ready;
  while (true) {
    const auto it = st.holdback.find(st.delivered_up_to + 1);
    if (it == st.holdback.end()) break;
    st.delivered_up_to++;
    st.retained.emplace(it->first, it->second);
    ready.push_back(std::move(it->second));
    st.holdback.erase(it);
  }
  if (!ready.empty()) {
    events_.push_back(DeliverEvent{st.callbacks.deliver, group, std::move(ready)});
  }
  // Slide the repair window; also bound the sequencer's dedup map (its
  // entries reference sequence numbers below the window anyway).
  while (st.retained.size() > kRetainedLimit) {
    st.retained.erase(st.retained.begin());
  }
  if (st.dedup.size() > kDedupLimit) {
    const std::uint64_t horizon =
        st.delivered_up_to > kRetainedLimit ? st.delivered_up_to - kRetainedLimit : 0;
    for (auto it = st.dedup.begin(); it != st.dedup.end();) {
      if (it->second < horizon) {
        it = st.dedup.erase(it);
      } else {
        ++it;
      }
    }
  }
  maybe_install_view(group, st);
}

bool GroupService::has_gap(const MemberState& st) {
  return !st.holdback.empty() && st.holdback.begin()->first > st.delivered_up_to + 1;
}

void GroupService::send_nack_if_gap(GroupId group, MemberState& st) {
  if (!has_gap(st)) return;
  const auto now = common::Clock::now();
  if (now - st.last_nack < config_.retransmit_interval) return;
  st.last_nack = now;
  send_nack(group, st.view.sequencer(), st.delivered_up_to + 1,
            st.holdback.begin()->first - 1);
  net_.wake_at(self_, now + config_.retransmit_interval);  // the retry
}

void GroupService::send_nack(GroupId group, NodeId sequencer, std::uint64_t from_seq,
                             std::uint64_t to_seq) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(WireKind::kNack));
  w.u32(group.value());
  w.u64(from_seq);
  w.u64(to_seq);
  net_.send(self_, sequencer, w.take());
}

void GroupService::handle_nack(GroupId group, NodeId from, Reader& r) {
  auto it = memberships_.find(group.value());
  if (it == memberships_.end()) return;
  MemberState& st = it->second;
  const std::uint64_t from_seq = r.u64();
  const std::uint64_t to_seq = r.u64();
  send_repair(group, st, from, from_seq, to_seq);
}

void GroupService::send_seq_batches(GroupId group, std::span<const Sequenced> run,
                                    std::span<const NodeId> dsts) {
  const auto size_of = [&](std::size_t i) { return run[i].submission.payload.size(); };
  for (std::size_t i = 0, n = 0; i < run.size(); i += n) {
    n = chunk_length(i, run.size(), size_of);
    const SharedBytes datagram{encode_seq_batch(group, run.subspan(i, n))};
    for (const NodeId dst : dsts) net_.send(self_, dst, datagram);
  }
}

void GroupService::send_repair(GroupId group, MemberState& st, NodeId dst,
                               std::uint64_t from_seq, std::uint64_t to_seq) {
  // Repair at batch granularity: every maximal contiguous run of found
  // messages goes out as capped SeqBatch datagrams.
  std::vector<Sequenced> run;
  for (std::uint64_t seq = from_seq; seq <= to_seq; ++seq) {
    if (auto rit = st.retained.find(seq); rit != st.retained.end()) {
      run.push_back(rit->second);
    } else if (auto hit = st.holdback.find(seq); hit != st.holdback.end()) {
      run.push_back(hit->second);
    } else {
      send_seq_batches(group, run, std::span(&dst, 1));  // a gap ends the run
      run.clear();
    }
  }
  send_seq_batches(group, run, std::span(&dst, 1));
}

void GroupService::handle_heartbeat(GroupId group, NodeId, Reader& r) {
  // Liveness was already recorded in on_message.  The heartbeat also
  // carries the peer's highest known sequence number: that is the only
  // way a member can detect a gap at the TAIL of the stream.  A dropped
  // final SeqBatch leaves the holdback queue empty, so send_nack_if_gap
  // never fires, and once the submitter has seen its own submission
  // sequenced nobody retransmits -- the member would lag forever.
  const std::uint64_t peer_highest = r.u64();
  auto it = memberships_.find(group.value());
  if (it == memberships_.end()) return;
  MemberState& st = it->second;
  if (st.commit_pending) return;  // view installation repairs its own range
  if (peer_highest <= st.delivered_up_to) return;
  const auto now = common::Clock::now();
  if (now - st.last_nack < config_.retransmit_interval) return;
  st.last_nack = now;
  send_nack(group, st.view.sequencer(), st.delivered_up_to + 1, peer_highest);
}

// --- view changes ------------------------------------------------------------

void GroupService::start_proposal(GroupId group, MemberState& st) {
  std::vector<NodeId> survivors;
  for (auto m : st.view.members) {
    if (m == self_ || st.suspected.count(m.value()) == 0) survivors.push_back(m);
  }
  if (survivors.empty() || survivors.front() != self_) return;
  st.proposing = true;
  st.proposal_view_id = st.view.id.value() + 1;
  st.proposal_members = survivors;
  st.proposal_acks.clear();
  st.proposal_highest = st.delivered_up_to;
  st.proposal_deadline = common::Clock::now() + kViewAckTimeout;

  Writer w;
  w.u8(static_cast<std::uint8_t>(WireKind::kViewPropose));
  w.u32(group.value());
  w.u32(st.proposal_view_id);
  w.u32(static_cast<std::uint32_t>(survivors.size()));
  for (auto m : survivors) w.u32(m.value());
  w.u64(st.delivered_up_to);
  const SharedBytes datagram{w.take()};
  for (auto m : survivors) {
    if (m != self_) net_.send(self_, m, datagram);
  }
  // Coordinator's own ack is implicit.
  st.proposal_acks.insert(self_.value());
  ADETS_LOG_INFO("gcs") << "node " << self_ << " proposing view "
                        << st.proposal_view_id << " for group " << group
                        << " with " << survivors.size() << " members";
}

void GroupService::handle_view_propose(GroupId group, NodeId from, Reader& r) {
  auto it = memberships_.find(group.value());
  if (it == memberships_.end()) return;
  MemberState& st = it->second;
  const std::uint32_t proposal_view_id = r.u32();
  const auto member_count = r.u32();
  std::vector<NodeId> members;
  members.reserve(member_count);
  for (std::uint32_t i = 0; i < member_count; ++i) members.emplace_back(r.u32());
  const std::uint64_t coord_highest = r.u64();
  if (proposal_view_id <= st.view.id.value()) return;
  if (std::find(members.begin(), members.end(), self_) == members.end()) return;

  // Reply with everything we received beyond the coordinator's horizon.
  std::vector<const Sequenced*> extra;
  for (const auto& [seq, msg] : st.retained) {
    if (seq > coord_highest) extra.push_back(&msg);
  }
  for (const auto& [seq, msg] : st.holdback) {
    if (seq > coord_highest) extra.push_back(&msg);
  }
  Writer w;
  w.u8(static_cast<std::uint8_t>(WireKind::kViewAck));
  w.u32(group.value());
  w.u32(proposal_view_id);
  w.u64(st.delivered_up_to);
  w.u32(static_cast<std::uint32_t>(extra.size()));
  for (const Sequenced* msg : extra) encode_sequenced(w, *msg);
  net_.send(self_, from, w.take());
}

void GroupService::handle_view_ack(GroupId group, NodeId from,
                                   const transport::Message& m, Reader& r) {
  auto it = memberships_.find(group.value());
  if (it == memberships_.end()) return;
  MemberState& st = it->second;
  if (!st.proposing) return;
  const std::uint32_t proposal_view_id = r.u32();
  if (proposal_view_id != st.proposal_view_id) return;
  r.u64();  // member's delivered_up_to (informational)
  const auto count = r.u32();
  for (std::uint32_t i = 0; i < count; ++i) {
    Sequenced msg = decode_sequenced(r, m.payload);
    const std::uint64_t seq = msg.seq.value();
    if (seq > st.delivered_up_to && st.holdback.count(seq) == 0) {
      st.holdback.emplace(seq, std::move(msg));
    }
  }
  try_deliver(group, st);
  st.proposal_acks.insert(from.value());
  const bool all_acked = std::all_of(
      st.proposal_members.begin(), st.proposal_members.end(),
      [&](NodeId member) { return st.proposal_acks.count(member.value()) > 0; });
  if (all_acked) finish_proposal(group, st);
}

void GroupService::finish_proposal(GroupId group, MemberState& st) {
  st.proposing = false;
  // After merging all survivors' messages, the highest contiguous seq the
  // coordinator holds is safe: anything above it was never delivered by
  // any survivor and is discarded (senders will re-submit).
  std::uint64_t final_highest = st.delivered_up_to;
  while (st.holdback.count(final_highest + 1) > 0) final_highest++;

  View new_view;
  new_view.id = common::ViewId(st.proposal_view_id);
  new_view.members = st.proposal_members;
  std::sort(new_view.members.begin(), new_view.members.end());

  Writer w;
  w.u8(static_cast<std::uint8_t>(WireKind::kViewCommit));
  w.u32(group.value());
  encode_view(w, new_view);
  w.u64(final_highest);
  const SharedBytes datagram{w.take()};
  for (auto m : new_view.members) {
    if (m != self_) net_.send(self_, m, datagram);
  }
  // Apply locally without a network round-trip.
  st.commit_pending = true;
  st.committed_view = new_view;
  st.commit_final_highest = final_highest;
  for (auto hb = st.holdback.upper_bound(final_highest); hb != st.holdback.end();) {
    hb = st.holdback.erase(hb);
  }
  try_deliver(group, st);
}

void GroupService::handle_view_commit(GroupId group, Reader& r) {
  auto it = memberships_.find(group.value());
  if (it == memberships_.end()) return;
  MemberState& st = it->second;
  View new_view = decode_view(r);
  const std::uint64_t final_highest = r.u64();
  if (new_view.id.value() <= st.view.id.value()) return;
  st.commit_pending = true;
  st.committed_view = std::move(new_view);
  st.commit_final_highest = final_highest;
  for (auto hb = st.holdback.upper_bound(final_highest); hb != st.holdback.end();) {
    hb = st.holdback.erase(hb);
  }
  try_deliver(group, st);
  // Any gap below final_highest must be repaired by the new sequencer.
  if (st.delivered_up_to < final_highest) {
    send_nack(group, st.committed_view.sequencer(), st.delivered_up_to + 1, final_highest);
  }
}

void GroupService::maybe_install_view(GroupId group, MemberState& st) {
  if (!st.commit_pending || st.delivered_up_to < st.commit_final_highest) return;
  st.commit_pending = false;
  st.view = st.committed_view;
  st.proposing = false;
  st.suspected.clear();
  const auto now = common::Clock::now();
  st.last_heard.clear();
  for (auto m : st.view.members) {
    if (m != self_) st.last_heard[m.value()] = now;
  }
  if (st.view.sequencer() == self_) {
    st.next_seq = st.commit_final_highest + 1;
    // Rebuild the dedup map from everything that survived the change so
    // re-submissions of already-sequenced messages are not duplicated.
    st.dedup.clear();
    for (const auto& [seq, msg] : st.retained) {
      st.dedup[{msg.submission.sender.value(), msg.submission.sender_msg_id}] = seq;
    }
  }
  events_.push_back(ViewEvent{st.callbacks.on_view, group, st.view});
  // Re-target our own pending submissions at the new sequencer.
  if (auto sit = senders_.find(group.value()); sit != senders_.end()) {
    sit->second.members = st.view.members;
    retarget_pending(group, sit->second, 0);
  }
  ADETS_LOG_INFO("gcs") << "node " << self_ << " installed view "
                        << st.view.id << " of group " << group << " ("
                        << st.view.members.size() << " members, final="
                        << st.commit_final_highest << ")";
}

// --- timed duties -------------------------------------------------------------

void GroupService::resend_pending(GroupId group, SenderState& sender, bool force) {
  if (sender.members.empty()) return;
  const auto now = common::Clock::now();
  const bool flush = force || now >= sender.flush_at;
  // Collect everything due per target so each target gets one batch.
  std::map<std::size_t, std::vector<std::uint64_t>> by_target;
  for (auto& [msg_id, pending] : sender.pending) {
    const bool unsent = pending.last_send == TimePoint{};
    if (unsent ? !flush
               : !force && now - pending.last_send < config_.retransmit_interval) {
      continue;
    }
    if (!unsent) {
      // Previous attempt unanswered: rotate to the next candidate.  An
      // external session's target moves along when the silent node was
      // its target, so later submissions skip it too.
      const bool on_session_target = pending.target == sender.target;
      pending.target = (pending.target + 1) % sender.members.size();
      if (sender.external && on_session_target) sender.target = pending.target;
    }
    pending.last_send = now;
    by_target[pending.target].push_back(msg_id);
  }
  if (flush) sender.flush_at = TimePoint::max();
  for (const auto& [target, msg_ids] : by_target) {
    send_submissions(group, sender, msg_ids, target);
  }
}

void GroupService::retarget_pending(GroupId group, SenderState& sender,
                                    std::size_t target) {
  // Marking them never-sent makes resend_pending address `target` at
  // once instead of rotating past it.
  sender.target = target;
  for (auto& [msg_id, pending] : sender.pending) {
    pending.target = target;
    pending.last_send = TimePoint{};
  }
  resend_pending(group, sender, /*force=*/true);
}

void GroupService::send_submissions(GroupId group, SenderState& sender,
                                    const std::vector<std::uint64_t>& msg_ids,
                                    std::size_t target) {
  const auto size_of = [&](std::size_t i) { return sender.pending[msg_ids[i]].payload.size(); };
  for (std::size_t i = 0, n = 0; i < msg_ids.size(); i += n) {
    n = chunk_length(i, msg_ids.size(), size_of);
    std::size_t bytes = 20 * (n + 1);
    for (std::size_t j = i; j < i + n; ++j) bytes += size_of(j);
    Writer w;
    w.reserve(bytes);
    w.u8(static_cast<std::uint8_t>(WireKind::kSubmitBatch));
    w.u32(group.value());
    w.u32(self_.value());
    w.u32(static_cast<std::uint32_t>(n));
    for (std::size_t j = i; j < i + n; ++j) {
      w.u64(msg_ids[j]);
      w.blob(sender.pending[msg_ids[j]].payload);
    }
    net_.send(self_, sender.members[target], w.take());
  }
}

TimePoint GroupService::on_deadline() {
  const common::MutexLock guard(mutex_);
  if (stopping_) return TimePoint::max();
  const auto now = common::Clock::now();
  // Every duty below runs once its time has come and is then due again
  // strictly later, so the deadline returned lies in the future.
  TimePoint next = TimePoint::max();
  for (auto& [group_raw, st] : memberships_) {
    const GroupId group(group_raw);
    // Heartbeats.
    if (now - st.last_heartbeat >= kHeartbeatInterval) {
      st.last_heartbeat = now;
      Writer w;
      w.u8(static_cast<std::uint8_t>(WireKind::kHeartbeat));
      w.u32(group_raw);
      // Highest sequence this node knows of, so receivers can detect
      // (and NACK) a gap at the tail of the stream.  A sequencer has
      // multicast everything it sequenced.
      std::uint64_t known_highest = st.delivered_up_to;
      if (!st.holdback.empty()) {
        known_highest = std::max(known_highest, st.holdback.rbegin()->first);
      }
      if (st.view.sequencer() == self_) {
        known_highest = std::max(known_highest, st.next_seq - 1);
      }
      w.u64(known_highest);
      const SharedBytes datagram{w.take()};
      for (auto m : st.view.members) {
        if (m != self_) net_.send(self_, m, datagram);
      }
    }
    next = std::min(next, st.last_heartbeat + kHeartbeatInterval);
    // Failure detection.
    bool new_suspicion = false;
    for (auto m : st.view.members) {
      if (m == self_ || st.suspected.count(m.value()) > 0) continue;
      const auto heard = st.last_heard.find(m.value());
      if (heard == st.last_heard.end()) continue;
      if (now - heard->second >= config_.suspect_timeout) {
        st.suspected.insert(m.value());
        new_suspicion = true;
        ADETS_LOG_INFO("gcs") << "node " << self_ << " suspects node " << m
                              << " in group " << group;
      } else {
        next = std::min(next, heard->second + config_.suspect_timeout);
      }
    }
    // Coordinator drives the view change.
    if (!st.suspected.empty() && !st.commit_pending) {
      const bool proposal_expired = st.proposing && now >= st.proposal_deadline;
      if ((new_suspicion && !st.proposing) || proposal_expired) {
        start_proposal(group, st);
      }
      if (st.proposing) next = std::min(next, st.proposal_deadline);
    }
    send_nack_if_gap(group, st);
    if (has_gap(st)) next = std::min(next, st.last_nack + config_.retransmit_interval);
  }
  for (auto& [group_raw, sender] : senders_) {
    resend_pending(GroupId(group_raw), sender, /*force=*/false);
    if (sender.members.empty()) continue;
    next = std::min(next, sender.flush_at);
    for (const auto& [msg_id, pending] : sender.pending) {
      if (pending.last_send != TimePoint{}) {
        next = std::min(next, pending.last_send + config_.retransmit_interval);
      }
    }
  }
  return next;
}

}  // namespace adets::gcs
