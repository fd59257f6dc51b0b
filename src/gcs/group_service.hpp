// Group communication service: sequencer-based total-order broadcast.
//
// One GroupService runs on every simulated node.  It plays the role of
// the "group communication module" in the FTflex architecture (paper
// Sec. 5.1): all client requests, nested invocations/replies, scheduler
// timeout messages and LSA mutex-table broadcasts travel through it and
// are delivered to every group member in the same total order.
//
// Protocol (fixed-sequencer with fail-over and batching):
//  - The member with the lowest node id in the current view sequences
//    submissions and multicasts them; members deliver in sequence order
//    using a hold-back queue and NACK-based gap repair.
//  - Each ordering role has one wire format, a batch (SubmitBatch,
//    SubmitAckBatch, SeqBatch); a lone message is a batch of one.  A
//    sequencing round is self-contained: the sequencer multicasts what
//    one received SubmitBatch sequenced as one SeqBatch (a contiguous run
//    of sequence numbers) before that handler returns, then acks an
//    external sender, so an ack implies the message was multicast and
//    nothing sequenced is ever held.  The one batching point is the
//    sender's: GcsConfig::submit_flush_delay packs a burst of
//    submissions into one SubmitBatch.  Every SubmitBatch, SeqBatch and
//    NACK repair run is capped at 64 messages and 64 KiB of payload.
//  - Submissions are idempotent: (sender, sender_msg_id) pairs are
//    deduplicated by the sequencer, and senders retransmit every
//    retransmit_interval until their message is observed sequenced
//    (members) or acknowledged (externals).  A retransmission goes to
//    the next node of the session's member list; a non-sequencer member
//    forwards it to the sequencer of its view.
//  - Session routing: each session has one target, where every new
//    submission starts.  A member session targets its installed view's
//    sequencer and never adopts a retransmission's rotation (one slow
//    ack would otherwise send all its later submissions through a
//    forwarding hop).  An external session (connect()) has no view; it
//    follows the node that sent its last SubmitAckBatch, which only the
//    sequencer sends, and moves along with a retransmission that timed
//    out on its target.  When an ack names a new sequencer, every
//    pending submission is re-sent there at once.  So a sequencer
//    failover costs a session about one retransmit interval, not one per
//    later submission.  Limit: views are not pushed to external
//    sessions, so a session that sent nothing during the failover still
//    pays that one interval on its first later submission.
//  - A heartbeat failure detector drives view changes.  The new
//    coordinator (lowest surviving member) collects each survivor's
//    received messages, recomputes the highest safely-contiguous sequence
//    number, discards anything beyond it (no survivor delivered it; a
//    sender that never saw it sequenced or acked re-submits it), and
//    commits the new view.  View events are delivered in-stream, after
//    all messages of the old view.  A view installs only once every
//    member it names has acked, so a member that suspects all its peers
//    (crashed, or merely stalled past suspect_timeout) never installs a
//    view of itself alone: it stops ordering rather than split the group.
//
// Threads: the service has no thread of its own.  Everything it does
// runs on the SimNetwork's network thread, which runs every node: the
// handling of each received message, the timed duties (submit flush,
// heartbeats, suspicion, proposal expiry, NACK retry, retransmission),
// which run when the node's one deadline falls due, and the callbacks.
// A handler lowers that deadline only for an obligation it creates (a
// first pending or held submission, a NACK to retry); the deadline
// handler recomputes the earliest duty.  What the service sends to its
// own node (the sequencer's SeqBatch to itself, a member's submissions
// while it is the sequencer) crosses no simulated link.
//
// Callbacks (deliver, view, direct) are produced only while a received
// message is handled (timed duties send, but never deliver), and run on
// the network thread right after mutex_ is released, in the order they
// were produced.  A callback may re-enter the service (submit,
// send_direct), but no node receives anything or sends a heartbeat
// while it runs, so it must take monitors only briefly, never wait for
// a message, and return far sooner than suspect_timeout, or peers
// suspect each other: the scheduler entry points only enqueue work, and a
// client's reply callback records the reply or issues the next request.
//
// Lifetime: a service registers itself as its node's network handlers,
// so the SimNetwork must outlive it.  stop() unregisters them and waits
// until the network thread has left them; from then on no duty or
// callback runs and no message reaches the service, so it may be
// destroyed while the network keeps running.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <span>
#include <unordered_map>
#include <variant>
#include <vector>

#include "common/annotations.hpp"
#include "common/buffer.hpp"
#include "common/clock.hpp"
#include "common/mutex.hpp"
#include "common/types.hpp"
#include "gcs/view.hpp"
#include "gcs/wire.hpp"
#include "transport/network.hpp"

namespace adets::gcs {

/// Tunables; all durations are real time (failure detection is a
/// real-time concern, not a workload concern).
struct GcsConfig {
  common::Duration suspect_timeout = std::chrono::milliseconds(150);
  common::Duration retransmit_interval = std::chrono::milliseconds(60);

  /// When non-zero, submit() holds a submission back for up to this long
  /// (counted from the first one held) so several local submissions pack
  /// into one SubmitBatch datagram, and so into one sequencing round.
  /// Zero sends immediately.
  common::Duration submit_flush_delay = common::Duration::zero();
};

/// Totally-ordered delivery and view callbacks of one group membership.
struct GroupCallbacks {
  /// Called for every sequenced message, in total order.
  std::function<void(common::GroupId, const Sequenced&)> deliver;
  /// Called when a new view is installed (after all old-view messages).
  std::function<void(common::GroupId, const View&)> on_view;
};

/// Per-node group communication endpoint.
class GroupService {
 public:
  GroupService(transport::SimNetwork& net, common::NodeId self,
               GcsConfig config = {});
  ~GroupService();

  GroupService(const GroupService&) = delete;
  GroupService& operator=(const GroupService&) = delete;

  [[nodiscard]] common::NodeId self() const { return self_; }

  /// Joins `group` as a member with the given static initial membership
  /// (all members must call this with the same list).
  void join(common::GroupId group, std::vector<common::NodeId> initial_members,
            GroupCallbacks callbacks);

  /// Registers an external (non-member) session used to submit messages
  /// into `group`'s total order, e.g. a client or another replica group.
  /// Idempotent: a node that already has a session for `group` (as a
  /// member, or from an earlier connect) keeps it.
  void connect(common::GroupId group, std::vector<common::NodeId> members);

  /// Submits `payload` into the group's total order; returns the local
  /// message id (useful for tests).  Works for members and externals.
  std::uint64_t submit(common::GroupId group, common::Bytes payload);

  /// Point-to-point datagram outside any total order (used for replies
  /// from replicas to clients).
  void send_direct(common::NodeId dst, common::Bytes payload);

  /// Handler for kDirect datagrams; runs like the group callbacks (see
  /// the header comment).  The payload is a zero-copy view of the
  /// received datagram.
  void set_direct_handler(
      std::function<void(common::NodeId, const common::SharedBytes&)> handler);

  /// Current view of a group this node is member of.
  [[nodiscard]] View current_view(common::GroupId group) const;

  /// Highest contiguously delivered sequence number (tests).
  [[nodiscard]] std::uint64_t delivered_up_to(common::GroupId group) const;

  /// Unregisters the node's handlers; returns once the network thread
  /// has left them (at once on that thread).  No duty or callback runs
  /// after it returns.  Idempotent; the destructor calls it.
  void stop();

 private:
  struct MemberState {
    View view;
    GroupCallbacks callbacks;
    // Sequencer role (used when self is view.sequencer()).
    std::uint64_t next_seq = 1;
    std::map<std::pair<std::uint32_t, std::uint64_t>, std::uint64_t> dedup;
    // Delivery.
    std::uint64_t delivered_up_to = 0;
    std::map<std::uint64_t, Sequenced> holdback;
    std::map<std::uint64_t, Sequenced> retained;
    common::TimePoint last_nack{};
    // Failure detection.
    std::map<std::uint32_t, common::TimePoint> last_heard;
    std::set<std::uint32_t> suspected;
    common::TimePoint last_heartbeat{};
    // View change (coordinator side).
    bool proposing = false;
    std::uint32_t proposal_view_id = 0;
    std::vector<common::NodeId> proposal_members;
    std::set<std::uint32_t> proposal_acks;
    std::uint64_t proposal_highest = 0;
    common::TimePoint proposal_deadline{};
    // View change (member side).
    bool commit_pending = false;
    View committed_view;
    std::uint64_t commit_final_highest = 0;
  };

  struct SenderState {
    std::vector<common::NodeId> members;
    /// Index into `members` where every new submission starts.  A member
    /// session keeps it at its installed view's sequencer (index 0); an
    /// external session moves it to the node that last acked and along
    /// with a retransmission that timed out on it.
    std::size_t target = 0;
    bool external = false;  // connect() session: no view to follow
    std::uint64_t next_msg_id = 1;
    struct Pending {
      common::SharedBytes payload;
      common::TimePoint last_send{};  // {} = never sent yet
      std::size_t target = 0;
    };
    std::map<std::uint64_t, Pending> pending;
    /// When the submissions submit_flush_delay holds back are sent
    /// (TimePoint::max() while none is held).
    common::TimePoint flush_at = common::TimePoint::max();
  };

  // A callback to run once mutex_ is released, with the function it
  // calls copied when the event was produced.
  struct DeliverEvent {
    std::function<void(common::GroupId, const Sequenced&)> deliver;
    common::GroupId group;
    /// One contiguous run of sequenced messages (a delivered batch); the
    /// callback runs once per message, in order.
    std::vector<Sequenced> messages;
  };
  struct ViewEvent {
    std::function<void(common::GroupId, const View&)> on_view;
    common::GroupId group;
    View view;
  };
  struct DirectEvent {
    std::function<void(common::NodeId, const common::SharedBytes&)> handler;
    common::NodeId src;
    common::SharedBytes payload;
  };
  using Event = std::variant<DeliverEvent, ViewEvent, DirectEvent>;

  // All handlers below run with mutex_ held (enforced by clang's
  // thread-safety analysis via ADETS_REQUIRES) unless stated otherwise.
  void on_message(transport::Message message);  // network thread
  void handle_submit_batch(common::GroupId group, const transport::Message& m,
                           common::Reader& r) ADETS_REQUIRES(mutex_);
  void handle_submit_ack_batch(common::GroupId group, common::NodeId from,
                               common::Reader& r) ADETS_REQUIRES(mutex_);
  void handle_seq_batch(common::GroupId group, const transport::Message& m,
                        common::Reader& r) ADETS_REQUIRES(mutex_);
  void handle_nack(common::GroupId group, common::NodeId from, common::Reader& r)
      ADETS_REQUIRES(mutex_);
  void handle_heartbeat(common::GroupId group, common::NodeId from, common::Reader& r)
      ADETS_REQUIRES(mutex_);
  void handle_view_propose(common::GroupId group, common::NodeId from,
                           common::Reader& r) ADETS_REQUIRES(mutex_);
  void handle_view_ack(common::GroupId group, common::NodeId from,
                       const transport::Message& m, common::Reader& r)
      ADETS_REQUIRES(mutex_);
  void handle_view_commit(common::GroupId group, common::Reader& r)
      ADETS_REQUIRES(mutex_);

  void try_deliver(common::GroupId group, MemberState& st) ADETS_REQUIRES(mutex_);
  /// The holdback queue starts above the next sequence number to deliver.
  static bool has_gap(const MemberState& st);
  void maybe_install_view(common::GroupId group, MemberState& st) ADETS_REQUIRES(mutex_);
  void start_proposal(common::GroupId group, MemberState& st) ADETS_REQUIRES(mutex_);
  void finish_proposal(common::GroupId group, MemberState& st) ADETS_REQUIRES(mutex_);
  void send_nack_if_gap(common::GroupId group, MemberState& st) ADETS_REQUIRES(mutex_);
  /// Asks `sequencer` to retransmit sequence numbers [from_seq, to_seq].
  void send_nack(common::GroupId group, common::NodeId sequencer, std::uint64_t from_seq,
                 std::uint64_t to_seq);
  void resend_pending(common::GroupId group, SenderState& sender, bool force)
      ADETS_REQUIRES(mutex_);
  /// An external session adopts the acking node `from` (the sequencer) as
  /// its target; if that is a change, its pending submissions follow.
  void follow_sequencer(common::GroupId group, SenderState& sender, common::NodeId from)
      ADETS_REQUIRES(mutex_);
  /// Points the session and all its pending submissions at `target` and
  /// sends them there at once.
  void retarget_pending(common::GroupId group, SenderState& sender, std::size_t target)
      ADETS_REQUIRES(mutex_);
  /// Sends one batch of this sender's pending submissions to `target`.
  void send_submissions(common::GroupId group, SenderState& sender,
                        const std::vector<std::uint64_t>& msg_ids, std::size_t target)
      ADETS_REQUIRES(mutex_);
  /// Sends the contiguous run `run` to each of `dsts` as capped SeqBatch
  /// datagrams.
  void send_seq_batches(common::GroupId group, std::span<const Sequenced> run,
                        std::span<const common::NodeId> dsts);
  /// Repairs [from_seq, to_seq] for `dst` out of retained/holdback, as
  /// contiguous SeqBatch runs.
  void send_repair(common::GroupId group, MemberState& st, common::NodeId dst,
                   std::uint64_t from_seq, std::uint64_t to_seq)
      ADETS_REQUIRES(mutex_);

  /// Runs the callbacks the handler just queued with `lock` (on mutex_)
  /// released; returns with `lock` held.  Network thread only.
  void run_callbacks(common::MutexLock& lock) ADETS_REQUIRES(mutex_);

  /// The node's deadline handler (network thread): submit flush,
  /// heartbeats, suspicion, proposal expiry, NACK retry and
  /// retransmission, each once it is due.  Returns when the next of them
  /// is due.
  common::TimePoint on_deadline();

  transport::SimNetwork& net_;
  const common::NodeId self_;
  const GcsConfig config_;

  mutable common::Mutex mutex_{"gcs::mutex"};
  std::map<std::uint32_t, MemberState> memberships_ ADETS_GUARDED_BY(mutex_);
  std::map<std::uint32_t, SenderState> senders_ ADETS_GUARDED_BY(mutex_);
  std::function<void(common::NodeId, const common::SharedBytes&)> direct_handler_
      ADETS_GUARDED_BY(mutex_);

  /// Callbacks queued by the handler of the current message, not yet run.
  std::vector<Event> events_ ADETS_GUARDED_BY(mutex_);
  bool stopping_ ADETS_GUARDED_BY(mutex_) = false;
};

}  // namespace adets::gcs
