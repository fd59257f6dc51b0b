// The benchmark's four workloads: what each sends and how its replies
// are checked.  Why each exists is recorded with its spec in
// workloads.cpp and in BENCHMARK.json.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/serialization.hpp"
#include "runtime/object.hpp"
#include "sched/api.hpp"

namespace perfbench {

/// One generated request: what is sent and what the output check needs.
struct Op {
  std::string method;
  adets::common::Bytes args;
  std::uint32_t key = 0;  // kv: key index
  std::string value;      // kv put: the value written
  std::uint64_t item = 0; // bounded buffer: the item produced
};

/// A request as the output check sees it; `reply` is null without one.
struct Outcome {
  const Op* op = nullptr;
  const adets::common::Bytes* reply = nullptr;
};

struct CheckResult {
  std::string name;
  bool ok = true;
  std::string detail;  // first failure, for the log
};

struct WorkloadSpec {
  std::string name;
  adets::sched::SchedulerKind kind = adets::sched::SchedulerKind::kSat;
  /// Open loop: requests per second, issued in groups of next()'s size
  /// on a fixed schedule.  0 selects the closed loop below.
  double rate_per_s = 0;
  /// Closed loop: logical clients, each issuing its next request when
  /// the previous reply arrives.
  int closed_clients = 0;
  /// Fail-stop crash of replica 0 (the GCS sequencer) this far into the
  /// measured window; 0 = no crash.
  double crash_at_fraction = 0;
  /// Requests issued back-to-back during set-up, after the preload.
  int warmup = 0;
};

class Workload {
 public:
  explicit Workload(WorkloadSpec spec) : spec_(std::move(spec)) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  [[nodiscard]] const WorkloadSpec& spec() const { return spec_; }

  [[nodiscard]] virtual adets::runtime::ObjectFactory objects() const = 0;
  /// Requests that bring the replicated state to its starting point.
  [[nodiscard]] virtual std::vector<Op> preload() const { return {}; }
  /// The next unit of work from `rng`: one request, or several that must
  /// be issued together.  `serial` is unique within a run.  Thread-safe.
  [[nodiscard]] virtual std::vector<Op> next(adets::common::Rng& rng,
                                             std::uint64_t serial) const = 0;
  /// Output checks over every request of the run, set-up included.
  [[nodiscard]] virtual std::vector<CheckResult> check(
      const std::vector<Outcome>& outcomes) const = 0;

 private:
  WorkloadSpec spec_;
};

/// nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name);
std::vector<std::string> workload_names();

}  // namespace perfbench
