// The paper's evaluation (Table 1, Figs. 4-6, Sec. 5) and the ablations,
// as one program over a table of points.
//
//   figures [--fast] [--out FILE] [FIGURE...]
//
// FIGURE is table1, fig4, fig5a, fig5b, fig6a, fig6b,
// ablation_pds_assignment, ablation_pds_variants, ablation_lsa_batch or
// ablation_mat_yield; with none, all of them run.  --fast is the smoke
// run: 6 measured invocations per client instead of 20, clients 1, 4 and
// 10 (pairs 1, 3 and 5) instead of the full sweep, and 4 clients for the
// points that use a fixed count.  --out writes every point to FILE
// (schema "adets-bench-figures/v1", docs/benchmarking.md).
//
// Methodology (paper Sec. 5.2): a replica group of three nodes, N client
// nodes started together, each in a closed loop; the measured value is
// the client-side average invocation time after 3 warm-up invocations
// per client, in paper milliseconds (real time divided by
// ADETS_TIME_SCALE, default 0.05).  After the loop each point drains the
// measured group by every invocation it issued (warm-up, producer and
// polling calls included) and runs repl::check_group on it.  The program
// exits 1 if any point fails to drain or reads inconsistent.
#include <algorithm>
#include <array>
#include <atomic>
#include <barrier>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <functional>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.hpp"
#include "common/clock.hpp"
#include "common/rng.hpp"
#include "replication/consistency.hpp"
#include "replication/statehash.hpp"
#include "runtime/cluster.hpp"
#include "runtime/context.hpp"
#include "sched/base.hpp"
#include "sched/pds.hpp"
#include "workload/objects.hpp"

namespace adets::bench {
namespace {

using sched::SchedulerKind;
using workload::pack_u64;
using workload::unpack_u64;

constexpr int kInvocations = 20;
constexpr int kFastInvocations = 6;
constexpr int kWarmup = 3;
constexpr std::uint64_t kPollPeriodPaperMs = 5;  // SEQ's polling period (paper Sec. 5.5)
constexpr auto kStallLimit = std::chrono::seconds(120);
constexpr auto kDrainLimit = std::chrono::seconds(60);

/// Stall guard: if a point does not finish within kStallLimit, dumps every
/// replica's scheduler state and aborts, so a rare scheduling stall
/// becomes a diagnosable failure instead of a silent hang.
class PointGuard {
 public:
  PointGuard(runtime::Cluster& cluster, common::GroupId group, std::string label)
      : cluster_(cluster), group_(group), label_(std::move(label)) {
    guard_ = std::thread([this] {
      std::unique_lock<std::mutex> lock(mutex_);
      if (cv_.wait_for(lock, kStallLimit, [this] { return done_; })) return;
      std::fprintf(stderr, "STALL in %s\n", label_.c_str());
      for (int i = 0; i < cluster_.group_size(group_); ++i) {
        auto& replica = cluster_.replica(group_, i);
        auto* base = dynamic_cast<sched::SchedulerBase*>(&replica.scheduler());
        std::fprintf(stderr, "replica %d completed=%llu %s\n", i,
                     static_cast<unsigned long long>(replica.completed_requests()),
                     base != nullptr ? base->debug_dump().c_str() : "?");
      }
      std::fflush(stderr);
      std::abort();
    });
  }
  PointGuard(const PointGuard&) = delete;
  PointGuard& operator=(const PointGuard&) = delete;
  ~PointGuard() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      done_ = true;
    }
    cv_.notify_all();
    guard_.join();
  }

 private:
  runtime::Cluster& cluster_;
  common::GroupId group_;
  std::string label_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread guard_;
};

runtime::ClusterConfig cluster_config() {
  runtime::ClusterConfig config;  // moderate LAN-like latency
  config.link.base_latency = common::paper_us(500);
  config.link.jitter = common::paper_us(200);
  return config;
}

/// One point's run: its cluster, the measured group, and what the
/// runner reads once the closed loop is over.
struct Rig {
  using Op = std::function<void(runtime::Client&, common::Rng&)>;

  Rig(std::string name, int invocations) : name(std::move(name)), invocations(invocations) {}

  /// Creates the measured group and arms the stall guard on it.  A PDS
  /// pool is sized to the requests that can be in flight (paper Sec. 5.2).
  common::GroupId measure(SchedulerKind measured_kind, runtime::ObjectFactory factory,
                          int in_flight, sched::SchedulerConfig config = {}) {
    kind = measured_kind;
    config.pds_thread_pool = static_cast<std::size_t>(in_flight);
    group = cluster.create_group(3, kind, std::move(factory), config);
    guard.emplace(cluster, group, name);
    return group;
  }

  /// Invokes `method` on the measured group; the drain counts it.
  common::Bytes call(runtime::Client& client, const std::string& method,
                     const common::Bytes& args = {}) {
    issued.fetch_add(1);
    return client.invoke(group, method, args);
  }

  /// `clients` closed-loop clients, each running kWarmup and then
  /// `invocations` measured invocations of `op`.
  void closed_loop(int loop_clients, const Op& op) {
    clients = loop_clients;
    std::vector<runtime::Client*> handles;
    for (int c = 0; c < clients; ++c) handles.push_back(&cluster.create_client());
    std::atomic<std::int64_t> total_ns{0};
    std::barrier sync(clients);
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        common::Rng rng(static_cast<std::uint64_t>(c) + 1);
        sync.arrive_and_wait();
        for (int i = 0; i < kWarmup; ++i) op(*handles[c], rng);
        sync.arrive_and_wait();  // all clients enter the measured phase together
        for (int i = 0; i < invocations; ++i) {
          const auto start = common::Clock::now();
          op(*handles[c], rng);
          total_ns.fetch_add((common::Clock::now() - start).count());
        }
      });
    }
    for (auto& t : threads) t.join();
    measured = static_cast<std::uint64_t>(clients) * static_cast<std::uint64_t>(invocations);
    paper_ms = static_cast<double>(total_ns.load()) / 1e6 / static_cast<double>(measured) /
               common::Clock::scale();
  }

  /// Invokes a buffer's blocking `method`.  SEQ cannot block inside the
  /// object, so under SEQ it polls "poll_<method>" until the object
  /// accepts (paper Sec. 5.5).
  void buffer_call(runtime::Client& client, const std::string& method,
                   const common::Bytes& args = {}) {
    if (kind != SchedulerKind::kSeq) {
      call(client, method, args);
      return;
    }
    while (unpack_u64(call(client, "poll_" + method, args))[0] != 1) {
      common::Clock::sleep_paper(common::paper_ms(kPollPeriodPaperMs));
    }
  }

  const std::string name;
  const int invocations;
  runtime::Cluster cluster{cluster_config()};
  SchedulerKind kind = SchedulerKind::kSeq;
  common::GroupId group;
  std::atomic<std::uint64_t> issued{0};
  int clients = 0;
  std::uint64_t measured = 0;
  double paper_ms = 0.0;
  /// The figure's extra counter, read after the drain.
  std::string counter_name;
  std::function<double()> counter;
  std::optional<PointGuard> guard;  // declared last: stops before the cluster
};

struct Point {
  std::string figure;             // the FIGURE argument that selects it
  std::string name;               // e.g. "Fig4/c/LSA/clients:10"
  std::function<void(Rig&)> run;  // builds the measured group, runs the loop
};

std::string str(int n) { return std::to_string(n); }

/// Client counts of the swept figures (paper: 1..10).
std::vector<int> client_counts(bool fast) {
  if (fast) return {1, 4, 10};
  return {1, 2, 4, 6, 8, 10};
}

std::unique_ptr<runtime::ReplicatedObject> compute_patterns() {
  return std::make_unique<workload::ComputePatterns>(10);
}

/// Nested-invocation rig (Fig. 5): a callee group B under MAT, so that
/// the front group's strategy is measured rather than a bottleneck at B.
common::GroupId nested_rig(Rig& rig, SchedulerKind kind, int clients) {
  const auto callee = rig.cluster.create_group(
      3, SchedulerKind::kMat, [] { return std::make_unique<workload::EchoService>(); });
  rig.measure(kind, [] { return std::make_unique<workload::NestedPatterns>(); }, clients);
  return callee;
}

// --- Table 1 ------------------------------------------------------------------
// The algorithm property matrix, printed from each scheduler's
// capabilities(): hand-set claims, not probed at run time.

void print_table1() {
  std::printf("\nTable 1. Overview of multithreading algorithms and their properties\n");
  std::printf("%-12s %-14s %-12s %-16s %-14s %-6s %-5s %-6s\n", "Algorithm",
              "Coordination", "Deadl.-Free", "Deployment", "Multithreading", "Reent",
              "CondV", "Comm");
  std::printf("%s\n", std::string(92, '-').c_str());
  const std::vector<std::pair<std::string, SchedulerKind>> rows = {
      {"SEQ", SchedulerKind::kSeq},       {"Eternal/SL", SchedulerKind::kSl},
      {"ADETS-SAT", SchedulerKind::kSat}, {"ADETS-MAT", SchedulerKind::kMat},
      {"ADETS-LSA", SchedulerKind::kLsa}, {"ADETS-PDS", SchedulerKind::kPds},
  };
  for (const auto& [name, kind] : rows) {
    const auto caps = sched::make_scheduler(kind)->capabilities();
    std::printf("%-12s %-14s %-12s %-16s %-14s %-6s %-5s %-6s\n", name.c_str(),
                caps.coordination.c_str(), caps.deadlock_free.c_str(),
                caps.deployment.c_str(), caps.multithreading.c_str(),
                caps.reentrant_locks ? "yes" : "no", caps.condition_variables ? "yes" : "no",
                caps.needs_communication ? "yes" : "no");
  }
  std::printf("\n");
}

// --- Fig. 4: local computations with mutex locks --------------------------------
// Patterns (Fig. 3): (a) compute; (b) compute - lock - state access -
// unlock; (c) lock - state access and compute - unlock; (d) lock - state
// access - unlock - compute.  100 ms computation, 10 mutexes chosen
// uniformly at random per invocation.
//
// Expected shapes (paper Sec. 5.3):
//   (a) SAT grows linearly (serialises everything); MAT/LSA flat; PDS
//       flat with a slight queue-mutex overhead.
//   (b) like (a); MAT best, LSA pays grant communication.
//   (c) MAT degenerates to SAT (lock-first serialises); LSA best at
//       high client counts; PDS suffers from round collisions.
//   (d) PDS best (collisions only cover the short state access), LSA
//       slightly slower, SAT and MAT serialise.
void fig4(std::vector<Point>& points, bool fast) {
  for (const std::string pattern : {"a", "b", "c", "d"}) {
    for (const auto kind : {SchedulerKind::kSat, SchedulerKind::kMat, SchedulerKind::kLsa,
                            SchedulerKind::kPds}) {
      for (const int clients : client_counts(fast)) {
        const auto name =
            "Fig4/" + pattern + "/" + sched::to_string(kind) + "/clients:" + str(clients);
        points.push_back({"fig4", name, [=](Rig& rig) {
          rig.measure(kind, compute_patterns, clients);
          rig.closed_loop(clients, [&rig, pattern](auto& client, auto& rng) {
            rig.call(client, pattern, pack_u64(100, rng.uniform(0, 9)));
          });
        }});
      }
    }
  }
}

// --- Fig. 5(a): nested invocations only ------------------------------------------
// Clients invoke a method at A that performs one nested invocation of B;
// B returns immediately or suspends for 2 ms (paper time).  Expected
// shape: SAT increasingly better than SEQ with more clients; with the
// 2 ms callee delay the gap becomes dramatic, because SAT accepts new
// requests at A while the nested call is in progress.
void fig5a(std::vector<Point>& points, bool fast) {
  for (const auto kind : {SchedulerKind::kSeq, SchedulerKind::kSat}) {
    for (const int delay : {0, 2}) {
      for (const int clients : client_counts(fast)) {
        const auto name = "Fig5a/" + sched::to_string(kind) + "/delay_ms:" + str(delay) +
                          "/clients:" + str(clients);
        points.push_back({"fig5a", name, [=](Rig& rig) {
          const auto callee = nested_rig(rig, kind, clients);
          rig.closed_loop(clients, [&rig, callee, delay](auto& client, auto&) {
            rig.call(client, "N", pack_u64(callee.value(), delay, delay, 0, 0));
          });
        }});
      }
    }
  }
}

// --- Fig. 5(b): nested invocations, local computations and mutex locks ----------
// Each request runs a permutation of N (nested invocation of B taking
// 100..150 paper-ms), C (local computation of 75..125 paper-ms) and S
// (synchronized state update).  Expected shapes (paper Sec. 5.4): SAT
// beats SEQ everywhere (uses nested idle time) but cannot parallelise C.
// MAT is best for NCS/CSN and no better than SAT for NSC/SCN (an S
// followed by C pins the primary token through the computation).  PDS
// and LSA are insensitive to the permutation; PDS slightly ahead of LSA.
void fig5b(std::vector<Point>& points, bool fast) {
  const int clients = fast ? 4 : 10;
  for (const std::string pattern : {"NCS", "CNS", "NSC", "CSN", "SCN", "SNC"}) {
    for (const auto kind : {SchedulerKind::kSeq, SchedulerKind::kSat, SchedulerKind::kPds,
                            SchedulerKind::kLsa, SchedulerKind::kMat}) {
      const auto name =
          "Fig5b/" + pattern + "/" + sched::to_string(kind) + "/clients:" + str(clients);
      points.push_back({"fig5b", name, [=](Rig& rig) {
        const auto callee = nested_rig(rig, kind, clients);
        rig.closed_loop(clients, [&rig, callee, pattern](auto& client, auto&) {
          rig.call(client, pattern, pack_u64(callee.value(), 100, 150, 75, 125));
        });
      }});
    }
  }
}

// --- Fig. 6(a): unbounded buffer ----------------------------------------------------
// One producer and 1..10 consumers in closed loops; the producer's rate
// is bounded by its own round trip.  SEQ's consumers poll; the other
// strategies block in consume() on a condition variable.  Metric: time
// per consumer invocation.  Expected shapes: the condvar strategies
// scale linearly with a gentle slope (SAT minimally best, PDS close, LSA
// pays the leader-follower communication); SEQ's polling steepens as
// consumers multiply.
void fig6a(std::vector<Point>& points, bool fast) {
  for (const auto kind : {SchedulerKind::kSeq, SchedulerKind::kSat, SchedulerKind::kMat,
                          SchedulerKind::kLsa, SchedulerKind::kPds}) {
    for (const int consumers : client_counts(fast)) {
      const auto name = "Fig6a/" + sched::to_string(kind) + "/consumers:" + str(consumers);
      points.push_back({"fig6a", name, [=](Rig& rig) {
        rig.measure(kind, [] { return std::make_unique<workload::UnboundedBuffer>(); },
                    consumers + 1);
        runtime::Client& producer = rig.cluster.create_client();
        std::atomic<bool> stop{false};
        std::thread producing([&] {
          for (std::uint64_t item = 0; !stop.load(); ++item) {
            rig.call(producer, "produce", pack_u64(item));
          }
        });
        rig.closed_loop(consumers,
                        [&rig](auto& client, auto&) { rig.buffer_call(client, "consume"); });
        stop.store(true);
        producing.join();
      }});
    }
  }
}

// --- Fig. 6(b): bounded buffer of capacity 2 -----------------------------------------
// As many producers as consumers (1..5), each producer making as many
// invocations as its consumer; produce() blocks while the buffer is
// full, consume() while it is empty (two condition variables).  Metric:
// time per consumer invocation (the paper observed identical averages
// for producers).  Expected shapes: SAT and MAT clearly best; LSA
// suffers from the extra scheduling communication, PDS from the
// next-round delay of resumed waiters; both can fall behind SEQ.
void fig6b(std::vector<Point>& points, bool fast) {
  for (const auto kind : {SchedulerKind::kSeq, SchedulerKind::kSat, SchedulerKind::kMat,
                          SchedulerKind::kLsa, SchedulerKind::kPds}) {
    for (const int pairs : fast ? std::vector<int>{1, 3, 5} : std::vector<int>{1, 2, 3, 4, 5}) {
      const auto name = "Fig6b/" + sched::to_string(kind) + "/pairs:" + str(pairs);
      points.push_back({"fig6b", name, [=](Rig& rig) {
        rig.measure(kind, [] { return std::make_unique<workload::BoundedBuffer>(2); }, 2 * pairs);
        std::vector<runtime::Client*> producers;
        for (int p = 0; p < pairs; ++p) producers.push_back(&rig.cluster.create_client());
        std::vector<std::thread> producing;
        for (runtime::Client* producer : producers) {
          producing.emplace_back([&rig, producer] {
            for (int i = 0; i < rig.invocations + kWarmup; ++i) {
              rig.buffer_call(*producer, "produce", pack_u64(i));
            }
          });
        }
        rig.closed_loop(pairs, [&rig](auto& client, auto&) { rig.buffer_call(client, "consume"); });
        for (auto& t : producing) t.join();
      }});
    }
  }
}

// --- Ablation: PDS request assignment (paper Sec. 4.2) --------------------------------
// Round-robin (request i goes to worker i mod N; "works fine if requests
// have identical computation times") against synchronized assignment
// through a scheduler-managed queue mutex (the variant the paper
// evaluates), on a uniform workload and on a skewed one where every
// fourth request computes 4x longer, which should stall the round-robin
// pipeline.
void ablation_pds_assignment(std::vector<Point>& points, bool fast) {
  const int clients = fast ? 4 : 8;
  for (const bool round_robin : {false, true}) {
    for (const bool skewed : {false, true}) {
      const auto name = std::string("AblationPdsAssign/") +
                        (round_robin ? "round_robin" : "synchronized") + "/" +
                        (skewed ? "skewed" : "uniform") + "/clients:" + str(clients);
      points.push_back({"ablation_pds_assignment", name, [=](Rig& rig) {
        sched::SchedulerConfig config;
        config.pds_round_robin_assignment = round_robin;
        rig.measure(SchedulerKind::kPds, compute_patterns, clients, config);
        std::atomic<std::uint64_t> sequence{0};
        rig.closed_loop(clients, [&rig, &sequence, skewed](auto& client, auto& rng) {
          const std::uint64_t n = sequence.fetch_add(1);
          const std::uint64_t compute = skewed && n % 4 == 0 ? 100 : 25;
          rig.call(client, "b", pack_u64(compute, rng.uniform(0, 9)));
        });
      }});
    }
  }
}

// --- Ablation: PDS-1 against PDS-2 (paper Sec. 3.2) -------------------------------------
// PDS-2 grants one extra in-round mutex acquisition, so requests that
// take two locks need about half as many rounds.  Counter: the rounds
// replica 0 ran.

/// Takes two mutexes per request: pair p locks mutexes p and 100 + p.
/// Requests of different pairs run at once under PDS, so each pair has
/// its own counter, guarded by that pair's locks.
class TwoLockObject : public runtime::ReplicatedObject {
 public:
  static constexpr std::uint64_t kPairs = 8;

  common::Bytes dispatch(const std::string&, const common::Bytes& args,
                         runtime::SyncContext& ctx) override {
    const auto a = unpack_u64(args);
    const std::uint64_t pair = a.at(0) % kPairs;
    runtime::DetLock first(ctx, common::MutexId(pair));
    runtime::DetLock second(ctx, common::MutexId(100 + pair));
    ctx.compute(common::paper_ms(static_cast<long long>(a.at(1))));
    return pack_u64(++counts_[pair]);
  }
  [[nodiscard]] std::uint64_t state_hash() const override {
    repl::StateHash h;
    h.mix_range(counts_);
    return h.digest();
  }

 private:
  std::array<std::uint64_t, kPairs> counts_{};
};

void ablation_pds_variants(std::vector<Point>& points, bool fast) {
  const int clients = fast ? 4 : 8;
  for (const int variant : {1, 2}) {
    const auto name = "AblationPdsVariant/PDS-" + str(variant) + "/clients:" + str(clients);
    points.push_back({"ablation_pds_variants", name, [=](Rig& rig) {
      sched::SchedulerConfig config;
      config.pds_variant = variant;
      rig.measure(SchedulerKind::kPds, [] { return std::make_unique<TwoLockObject>(); }, clients,
                  config);
      rig.closed_loop(clients, [&rig](auto& client, auto& rng) {
        rig.call(client, "run", pack_u64(rng.uniform(0, TwoLockObject::kPairs - 1), 10));
      });
      rig.counter_name = "rounds";
      rig.counter = [&rig] {
        auto& pds = dynamic_cast<sched::PdsScheduler&>(rig.cluster.replica(rig.group, 0)
                                                           .scheduler());
        return static_cast<double>(pds.rounds());
      };
    }});
  }
}

// --- Ablation: LSA mutex-table batching ----------------------------------------------
// The paper's LSA broadcasts the grant table "periodically"; the default
// flushes after every grant.  Larger batches send fewer broadcasts but
// delay followers (a partial batch waits up to 5 ms).  Lock-heavy
// pattern (c); counter: the messages the whole cluster sent.
void ablation_lsa_batch(std::vector<Point>& points, bool fast) {
  const int clients = fast ? 4 : 8;
  for (const int batch : {1, 4, 16}) {
    const auto name = "AblationLsaBatch/batch:" + str(batch) + "/clients:" + str(clients);
    points.push_back({"ablation_lsa_batch", name, [=](Rig& rig) {
      sched::SchedulerConfig config;
      config.lsa_batch_grants = static_cast<std::size_t>(batch);
      rig.measure(SchedulerKind::kLsa, compute_patterns, clients, config);
      const auto before = rig.cluster.network().stats().messages_sent;
      rig.closed_loop(clients, [&rig](auto& client, auto& rng) {
        rig.call(client, "c", pack_u64(25, rng.uniform(0, 9)));
      });
      rig.counter_name = "messages";
      rig.counter = [&rig, before] {
        return static_cast<double>(rig.cluster.network().stats().messages_sent - before);
      };
    }});
  }
}

// --- Ablation: the paper's yield() for ADETS-MAT (Sec. 5.3) ------------------------------
// "The poor performance of MAT can be alleviated by the introduction of
// yield operations, which enable a selection of a new primary thread
// without reaching an implicit scheduling point."  Pattern (d) serialises
// MAT because the token is only released at request completion; pattern
// "dy" yields right after the critical section.
void ablation_mat_yield(std::vector<Point>& points, bool fast) {
  const int clients = fast ? 4 : 8;
  for (const std::string pattern : {"d", "dy"}) {
    for (const auto kind : {SchedulerKind::kMat, SchedulerKind::kSat}) {
      const auto name =
          "AblationMatYield/" + pattern + "/" + sched::to_string(kind) + "/clients:" + str(clients);
      points.push_back({"ablation_mat_yield", name, [=](Rig& rig) {
        rig.measure(kind, compute_patterns, clients);
        rig.closed_loop(clients, [&rig, pattern](auto& client, auto& rng) {
          rig.call(client, pattern, pack_u64(100, rng.uniform(0, 9)));
        });
      }});
    }
  }
}

// --- runner ---------------------------------------------------------------------------

using Figure = void (*)(std::vector<Point>&, bool);
const std::vector<std::pair<std::string, Figure>> kFigures = {
    {"fig4", fig4},
    {"fig5a", fig5a},
    {"fig5b", fig5b},
    {"fig6a", fig6a},
    {"fig6b", fig6b},
    {"ablation_pds_assignment", ablation_pds_assignment},
    {"ablation_pds_variants", ablation_pds_variants},
    {"ablation_lsa_batch", ablation_lsa_batch},
    {"ablation_mat_yield", ablation_mat_yield},
};

/// Runs one point, drains and checks its group, prints the point and
/// appends it to `json`.  False if the group did not drain or diverged.
bool run_point(const Point& point, int invocations, JsonWriter& json) {
  Rig rig(point.name, invocations);
  point.run(rig);
  const std::uint64_t issued = rig.issued.load();
  const bool drained = rig.cluster.wait_drained(rig.group, issued, kDrainLimit);
  bool consistent = false;
  if (!drained) {
    std::fprintf(stderr, "%s: replicas did not complete %llu invocations\n", point.name.c_str(),
                 static_cast<unsigned long long>(issued));
  } else {
    const auto verdict = repl::check_group(rig.cluster, rig.group);
    consistent = verdict.consistent();
    if (!consistent) std::fprintf(stderr, "%s:\n%s\n", point.name.c_str(), verdict.detail.c_str());
  }
  std::printf("%-46s paper_ms_per_inv=%8.1f invocations=%4llu consistent=%d", point.name.c_str(),
              rig.paper_ms, static_cast<unsigned long long>(rig.measured), consistent ? 1 : 0);
  json.begin_object();
  json.field("name", point.name);
  json.field("figure", point.figure);
  json.field("strategy", sched::to_string(rig.kind));
  json.field("clients", rig.clients);
  json.field("paper_ms_per_inv", rig.paper_ms);
  json.field("invocations", rig.measured);
  json.field("issued", issued);
  json.field("drained", drained);
  json.field("consistent", consistent);
  if (rig.counter) {
    const double counter = rig.counter();
    std::printf(" %s=%.0f", rig.counter_name.c_str(), counter);
    json.field(rig.counter_name, counter);
  }
  json.end_object();
  std::printf("\n");
  std::fflush(stdout);
  return drained && consistent;
}

int usage() {
  std::fprintf(stderr, "usage: figures [--fast] [--out FILE] [table1");
  for (const auto& [name, figure] : kFigures) std::fprintf(stderr, " | %s", name.c_str());
  std::fprintf(stderr, "]...\n");
  return 2;
}

}  // namespace
}  // namespace adets::bench

int main(int argc, char** argv) {
  using namespace adets::bench;
  bool fast = false;
  std::string out;
  std::set<std::string> selected;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--fast") {
      fast = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out = argv[++i];
    } else if (arg == "table1" || std::any_of(kFigures.begin(), kFigures.end(),
                                              [&](const auto& f) { return f.first == arg; })) {
      selected.insert(arg);
    } else {
      return usage();
    }
  }
  std::ofstream file;
  if (!out.empty()) {
    file.open(out);
    if (!file) {
      std::fprintf(stderr, "figures: cannot write %s\n", out.c_str());
      return 2;
    }
  }
  const auto wanted = [&](const std::string& figure) {
    return selected.empty() || selected.count(figure) > 0;
  };
  if (wanted("table1")) print_table1();
  std::vector<Point> points;
  for (const auto& [name, figure] : kFigures) {
    if (wanted(name)) figure(points, fast);
  }

  const int invocations = fast ? kFastInvocations : kInvocations;
  JsonWriter json;
  json.begin_object();
  json.field("schema", "adets-bench-figures/v1");
  json.key("config");
  json.begin_object();
  json.field("fast", fast);
  json.field("invocations_per_client", invocations);
  json.field("warmup_per_client", kWarmup);
  json.field("time_scale", adets::common::Clock::scale());
  json.end_object();
  json.key("points");
  json.begin_array();
  int failed = 0;
  for (const Point& point : points) {
    if (!run_point(point, invocations, json)) failed++;
  }
  json.end_array();
  json.end_object();
  if (file.is_open() && !(file << json.str() << "\n" << std::flush)) {
    std::fprintf(stderr, "figures: cannot write %s\n", out.c_str());
    return 2;
  }
  if (failed > 0) std::fprintf(stderr, "figures: %d point(s) did not drain or diverged\n", failed);
  return failed > 0 ? 1 : 0;
}
