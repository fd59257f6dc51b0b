// Negative control of the dynamic lock-order check: two instances of
// one class locked a->b in one thread and, after it is joined, b->a in
// another.  The run cannot deadlock and exits 0, but a ThreadSanitizer
// build must report the cycle as a lock-order-inversion.  adets-sa's
// lock graph keys by Class::member and cannot tell the instances apart.
#include <thread>

#include "common/mutex.hpp"

namespace {

struct Acct {
  adets::common::Mutex mu{"control::acct"};

  void transfer(Acct& to) {
    const adets::common::MutexLock mine(mu);
    const adets::common::MutexLock theirs(to.mu);
  }
};

}  // namespace

int main() {
  Acct a;
  Acct b;
  std::thread([&] { a.transfer(b); }).join();
  std::thread([&] { b.transfer(a); }).join();
  return 0;
}
