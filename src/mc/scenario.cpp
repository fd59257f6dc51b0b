#include "mc/scenario.hpp"

namespace adets::mc {

namespace {

// Three requests contending on two mutexes, with one nested hold.  The
// bread-and-butter bounded-exploration scenario: every strategy
// supports plain locks (exhaustive acceptance uses "locks2" below).
void locks_body(McCtx& ctx) {
  switch (ctx.request_id()) {
    case 1:
      ctx.lock(1);
      ctx.trace(1, "r1:a");
      ctx.lock(2);  // nested hold: 1 -> 2
      ctx.trace(2, "r1:b");
      ctx.set(2, "last2", 1);
      ctx.unlock(2);
      ctx.set(1, "last1", 1);
      ctx.unlock(1);
      break;
    case 2:
      ctx.lock(1);
      ctx.trace(1, "r2:a");
      ctx.set(1, "last1", 2);
      ctx.unlock(1);
      ctx.lock(2);
      ctx.trace(2, "r2:b");
      ctx.set(2, "last2", 2);
      ctx.unlock(2);
      break;
    case 3:
      ctx.lock(2);
      ctx.trace(2, "r3:a");
      ctx.set(2, "last2", 3);
      ctx.unlock(2);
      break;
    default:
      break;
  }
}

// Two requests contending on one mutex.  The smallest scenario with a
// real grant-order choice; its state space stays exhaustible even for
// the broadcast-heavy strategies (LSA couples the replicas at every
// grant announcement), so the exhaustive acceptance runs use this one.
void locks2_body(McCtx& ctx) {
  ctx.lock(1);
  ctx.trace(1, "r" + std::to_string(ctx.request_id()));
  ctx.set(1, "last", static_cast<std::int64_t>(ctx.request_id()));
  ctx.unlock(1);
}

// One request crossing two mutexes.  No lock contention, but for the
// communicating strategies this is the full protocol pipeline — leader
// grant recording, dynamic mutex-id binding, table broadcast, follower
// replay — under every delivery interleaving, and its state space stays
// exhaustible even for LSA (the acceptance target).
void single_body(McCtx& ctx) {
  ctx.lock(1);
  ctx.trace(1, "a");
  ctx.set(1, "x", 1);
  ctx.unlock(1);
  ctx.lock(2);
  ctx.trace(2, "b");
  ctx.set(2, "y", 2);
  ctx.unlock(2);
}

// Producer + two consumers on one condvar: explores wakeup order and
// lost-notify windows (a consumer arriving after the broadcast must
// still see the flag and skip the wait).
void condvar_body(McCtx& ctx) {
  switch (ctx.request_id()) {
    case 1:
    case 2:
      ctx.lock(1);
      while (ctx.get(1, "ready") == 0) {
        ctx.wait(1, 7);
      }
      ctx.set(1, "consumed",
              ctx.get(1, "consumed") + static_cast<std::int64_t>(ctx.request_id()));
      ctx.unlock(1);
      break;
    case 3:
      ctx.lock(1);
      ctx.set(1, "ready", 1);
      ctx.notify_all(1, 7);
      ctx.unlock(1);
      break;
    default:
      break;
  }
}

// A timed wait racing a notify_one.  Whether the wait resolves notified
// or timed out is a scheduling choice (the expiry is a totally ordered
// timeout event); both resolutions must be replica-deterministic.
void timeout_body(McCtx& ctx) {
  switch (ctx.request_id()) {
    case 1: {
      ctx.lock(1);
      const bool notified = ctx.wait_for(1, 7, common::paper_ms(5));
      ctx.trace(1, notified ? "r1:notified" : "r1:timeout");
      ctx.unlock(1);
      break;
    }
    case 2:
      ctx.lock(1);
      ctx.trace(1, "r2:signal");
      ctx.notify_one(1, 7);
      ctx.unlock(1);
      break;
    default:
      break;
  }
}

// Two requests writing under one lock — enough for the RacyScheduler to
// diverge: replicas grant the (real, unordered) lock in different
// real-time orders, so the per-mutex traces disagree.
void racy_locks_body(McCtx& ctx) {
  ctx.lock(1);
  ctx.trace(1, "r" + std::to_string(ctx.request_id()));
  ctx.set(1, "last", static_cast<std::int64_t>(ctx.request_id()));
  ctx.unlock(1);
}

// A single-key KV register on the blackboard (cell "k"; 0 = absent,
// else the stored integer), speaking the KvStore wire encoding so the
// recorded operations check against lin::KvSpec.  Two puts, a cas and a
// get contend on mutex 1; record_op is called inside the critical
// section so the per-replica op order is the effect order.
void kvreg_body(McCtx& ctx) {
  ctx.lock(1);
  const std::int64_t prev = ctx.get(1, "k");
  common::Writer args;
  common::Writer result;
  std::string method;
  switch (ctx.request_id()) {
    case 1:
    case 2: {
      method = "put";
      args.str("k");
      args.str(std::to_string(ctx.request_id()));
      result.boolean(prev != 0);
      ctx.set(1, "k", static_cast<std::int64_t>(ctx.request_id()));
      break;
    }
    case 3: {
      method = "cas";
      args.str("k");
      args.str("1");
      args.str("3");
      const bool success = prev == 1;
      result.boolean(success);
      if (success) ctx.set(1, "k", 3);
      break;
    }
    default: {
      method = "get";
      args.str("k");
      result.boolean(prev != 0);
      result.str(prev != 0 ? std::to_string(prev) : std::string());
      break;
    }
  }
  ctx.record_op(method, args.take(), result.take());
  ctx.unlock(1);
}

// Two fresh puts on the register.  Against the RacyScheduler the
// replicas grant the lock in different real-time orders, so the client
// (first-reply-wins) can observe *both* puts reporting existed=false —
// a lost update no linearization admits.  The negative control for the
// non-linearizable-client property.
void racy_kvreg_body(McCtx& ctx) {
  ctx.lock(1);
  const std::int64_t prev = ctx.get(1, "k");
  common::Writer args;
  common::Writer result;
  args.str("k");
  args.str(std::to_string(ctx.request_id()));
  result.boolean(prev != 0);
  ctx.set(1, "k", static_cast<std::int64_t>(ctx.request_id()));
  ctx.record_op("put", args.take(), result.take());
  ctx.unlock(1);
}

// Four requests arriving back-to-back, the delivery shape one sequencing
// round's SeqBatch produces: the GCS hands the whole batch to on_deliver in one
// event and the replica runs the per-message callback with no gaps, so
// request starts are not separated by network interleavings.  Two
// contended mutexes give every strategy a real grant-order choice inside
// the burst; the checker's cross-replica grant-trace equality property
// then certifies that batched delivery cannot diverge the replicas.
void seqbatch_body(McCtx& ctx) {
  const std::uint64_t m = 1 + (ctx.request_id() % 2);
  ctx.lock(m);
  ctx.trace(m, "r" + std::to_string(ctx.request_id()));
  // One cell per mutex: the determinism contract only orders accesses
  // within a mutex, so a cell shared across mutexes would be racy.
  ctx.set(m, "last" + std::to_string(m), static_cast<std::int64_t>(ctx.request_id()));
  ctx.unlock(m);
}

std::vector<Scenario> build() {
  std::vector<Scenario> out;

  Scenario locks;
  locks.name = "locks";
  locks.description = "3 requests, 2 mutexes, one nested hold";
  locks.submissions = {{1, 1}, {2, 2}, {3, 3}};
  locks.body = locks_body;
  out.push_back(std::move(locks));

  Scenario locks2;
  locks2.name = "locks2";
  locks2.description = "2 requests on 1 mutex (exhaustive-friendly)";
  locks2.submissions = {{1, 1}, {2, 2}};
  locks2.body = locks2_body;
  out.push_back(std::move(locks2));

  Scenario single;
  single.name = "single";
  single.description = "1 request over 2 mutexes (exhaustive protocol scope)";
  single.submissions = {{1, 1}};
  single.body = single_body;
  out.push_back(std::move(single));

  Scenario condvar;
  condvar.name = "condvar";
  condvar.description = "producer + 2 consumers on one condvar";
  condvar.needs_condvars = true;
  condvar.submissions = {{1, 1}, {2, 2}, {3, 3}};
  condvar.body = condvar_body;
  out.push_back(std::move(condvar));

  Scenario timeout;
  timeout.name = "timeout";
  timeout.description = "timed wait racing a notify_one";
  timeout.needs_condvars = true;
  timeout.needs_timed_wait = true;
  timeout.submissions = {{1, 1}, {2, 2}};
  timeout.body = timeout_body;
  out.push_back(std::move(timeout));

  Scenario racy;
  racy.name = "racy_locks";
  racy.description = "2 requests on 1 mutex (RacyScheduler negative control)";
  racy.racy_only = true;
  racy.submissions = {{1, 1}, {2, 2}};
  racy.body = racy_locks_body;
  out.push_back(std::move(racy));

  Scenario seqbatch;
  seqbatch.name = "seqbatch";
  seqbatch.description = "4 requests delivered as one sequencer batch, 2 mutexes";
  seqbatch.submissions = {{1, 1}, {2, 2}, {3, 3}, {4, 4}};
  seqbatch.body = seqbatch_body;
  out.push_back(std::move(seqbatch));

  Scenario kvreg;
  kvreg.name = "kvreg";
  kvreg.description = "KV register: 2 puts + cas + get, linearizability-checked";
  kvreg.submissions = {{1, 1}, {2, 2}, {3, 3}, {4, 4}};
  kvreg.body = kvreg_body;
  kvreg.lin_spec = std::make_shared<lin::KvSpec>();
  out.push_back(std::move(kvreg));

  Scenario racy_kvreg;
  racy_kvreg.name = "racy_kvreg";
  racy_kvreg.description =
      "2 fresh puts on the register (lin negative control)";
  racy_kvreg.racy_only = true;
  racy_kvreg.submissions = {{1, 1}, {2, 2}};
  racy_kvreg.body = racy_kvreg_body;
  racy_kvreg.lin_spec = std::make_shared<lin::KvSpec>();
  out.push_back(std::move(racy_kvreg));

  return out;
}

}  // namespace

const std::vector<Scenario>& scenarios() {
  static const std::vector<Scenario> all = build();
  return all;
}

const Scenario* find_scenario(const std::string& name) {
  for (const Scenario& s : scenarios()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

}  // namespace adets::mc
