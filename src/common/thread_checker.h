#ifndef AMDJ_COMMON_THREAD_CHECKER_H_
#define AMDJ_COMMON_THREAD_CHECKER_H_

#include <atomic>
#include <thread>

namespace amdj {

/// Runtime guard for thread-confined (single-writer) components — the
/// complement of the compile-time lock annotations in common/annotations.h
/// for state that is protected by *confinement* rather than by a mutex
/// (HybridQueue's split/swap-in path).
/// Clang's thread-safety analysis cannot express "only ever touched by one
/// thread", so these contracts are enforced here instead: the checker
/// binds to the first calling thread and reports whether later calls come
/// from that same thread. Callers wrap it in AMDJ_CHECK so a violation
/// aborts with a message instead of corrupting unsynchronized state.
///
/// Cost: one relaxed atomic load and compare per check (the binding CAS
/// happens once) — negligible next to any operation worth guarding.
class ThreadChecker {
 public:
  ThreadChecker() = default;

  /// Moving hands the component to a new owner: the moved-into checker is
  /// unbound and re-binds to the next calling thread.
  ThreadChecker(ThreadChecker&&) noexcept {}
  ThreadChecker& operator=(ThreadChecker&&) noexcept {
    owner_.store(std::thread::id(), std::memory_order_relaxed);
    return *this;
  }

  ThreadChecker(const ThreadChecker&) = delete;
  ThreadChecker& operator=(const ThreadChecker&) = delete;

  /// True iff the calling thread is the confinement owner. The first call
  /// (or the first after Detach) binds the calling thread as owner.
  bool CalledOnValidThread() const {
    const std::thread::id self = std::this_thread::get_id();
    std::thread::id bound = owner_.load(std::memory_order_relaxed);
    if (bound == std::thread::id()) {
      // Two threads racing to bind is already a confinement violation;
      // the CAS makes the loser report it instead of both "winning".
      if (owner_.compare_exchange_strong(bound, self,
                                         std::memory_order_relaxed)) {
        return true;
      }
    }
    return bound == self;
  }

  /// Unbinds, allowing a deliberate ownership handoff (e.g. a structure
  /// built on one thread and then given to a worker).
  void Detach() {
    owner_.store(std::thread::id(), std::memory_order_relaxed);
  }

 private:
  mutable std::atomic<std::thread::id> owner_{std::thread::id()};
};

}  // namespace amdj

#endif  // AMDJ_COMMON_THREAD_CHECKER_H_
