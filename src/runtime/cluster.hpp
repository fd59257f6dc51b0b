// Cluster: a complete simulated deployment (network, group services,
// replica groups, clients) behind one convenient facade.  This is what
// examples, integration tests and the benchmark harness build on.
#pragma once

#include <memory>
#include <vector>

#include "runtime/client.hpp"
#include "runtime/replica.hpp"
#include "transport/network.hpp"

namespace adets::runtime {

struct ClusterConfig {
  transport::LinkConfig link;        // latency model of every link
  gcs::GcsConfig gcs;                // failure-detection / retransmit / batching tunables
  std::uint64_t seed = 1;
};

/// Produces one scheduler instance per replica; lets tests plug custom
/// (e.g. deliberately nondeterministic) schedulers into a group.
using SchedulerFactory = std::function<std::unique_ptr<sched::Scheduler>()>;

class Cluster {
 public:
  explicit Cluster(ClusterConfig config = {});
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Creates a replica group of `replicas` members, each running the
  /// given scheduler kind over a fresh object from `factory`.
  common::GroupId create_group(int replicas, sched::SchedulerKind kind,
                               ObjectFactory factory,
                               sched::SchedulerConfig sched_config = {});

  /// Same, but each replica's scheduler comes from `scheduler_factory`.
  common::GroupId create_group(int replicas, const SchedulerFactory& scheduler_factory,
                               ObjectFactory factory);

  /// Creates a client on its own simulated node, already connected to
  /// every existing group.
  Client& create_client();

  [[nodiscard]] Replica& replica(common::GroupId group, int index);
  [[nodiscard]] int group_size(common::GroupId group) const;
  [[nodiscard]] std::vector<common::NodeId> members(common::GroupId group) const;

  /// State hash of every replica of `group` (consistency checking).
  [[nodiscard]] std::vector<std::uint64_t> state_hashes(common::GroupId group);

  /// Blocks until every replica of `group` completed `count` requests.
  [[nodiscard]] bool wait_drained(common::GroupId group, std::uint64_t count,
                                  std::chrono::milliseconds timeout =
                                      std::chrono::seconds(120));

  /// Crashes the index-th replica node of `group` (fail-stop).
  void crash_replica(common::GroupId group, int index);

  [[nodiscard]] transport::SimNetwork& network() { return *net_; }
  [[nodiscard]] std::shared_ptr<Directory> directory() { return directory_; }

  void stop();

 private:
  struct GroupHandle {
    common::GroupId id;
    std::vector<common::NodeId> nodes;
    std::vector<std::unique_ptr<gcs::GroupService>> services;
    std::vector<std::unique_ptr<Replica>> replicas;
  };
  struct ClientHandle {
    std::unique_ptr<gcs::GroupService> service;
    std::unique_ptr<Client> client;
  };

  ClusterConfig config_;
  std::unique_ptr<transport::SimNetwork> net_;
  std::shared_ptr<Directory> directory_ = std::make_shared<Directory>();
  std::vector<std::unique_ptr<GroupHandle>> groups_;
  std::vector<std::unique_ptr<ClientHandle>> clients_;
  std::uint32_t next_group_ = 1;
  bool stopped_ = false;
};

}  // namespace adets::runtime
