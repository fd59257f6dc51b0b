#include "runtime/context.hpp"

#include "sched/api.hpp"

namespace adets::runtime {

void SyncContext::lock(common::MutexId mutex) {
  host_.context_scheduler().lock(mutex);
}

void SyncContext::unlock(common::MutexId mutex) {
  host_.context_scheduler().unlock(mutex);
}

bool SyncContext::wait(common::MutexId mutex, common::CondVarId condvar,
                       common::Duration paper_timeout) {
  return host_.context_scheduler().wait(mutex, condvar, paper_timeout).notified;
}

void SyncContext::notify_one(common::MutexId mutex, common::CondVarId condvar) {
  host_.context_scheduler().notify_one(mutex, condvar);
}

void SyncContext::notify_all(common::MutexId mutex, common::CondVarId condvar) {
  host_.context_scheduler().notify_all(mutex, condvar);
}

void SyncContext::yield() { host_.context_scheduler().yield(); }

common::Bytes SyncContext::invoke(common::GroupId target, const std::string& method,
                                  const common::Bytes& args) {
  return host_.nested_invoke(*this, target, method, args);
}

void SyncContext::invoke_oneway(common::GroupId target, const std::string& method,
                                const common::Bytes& args) {
  host_.nested_invoke_oneway(*this, target, method, args);
}

}  // namespace adets::runtime
