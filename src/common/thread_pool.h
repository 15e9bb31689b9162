#ifndef AMDJ_COMMON_THREAD_POOL_H_
#define AMDJ_COMMON_THREAD_POOL_H_

#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/annotations.h"
#include "common/metrics.h"
#include "common/mutex.h"

namespace amdj {

/// Fixed-size pool of named worker threads executing submitted tasks in
/// FIFO order. Runs the JoinService's concurrent queries; generic enough
/// for any fan-out.
///
/// Lifecycle: workers start in the constructor and idle on a condition
/// variable when the task queue is empty (no spinning). The destructor
/// performs an idle shutdown: it stops accepting new tasks, wakes every
/// worker, lets the already-queued tasks drain, and joins. Submitting
/// after (or during) destruction is a programming error.
///
/// Thread-safety: Submit may be called concurrently from any thread. The
/// queue and the shutdown flag are guarded by `mutex_` — annotated, so the
/// discipline is compiler-checked (common/annotations.h).
class ThreadPool {
 public:
  /// Starts `num_threads` workers (at least 1). Workers are named
  /// "<name_prefix>-<i>" where the platform supports thread naming.
  explicit ThreadPool(size_t num_threads,
                      const std::string& name_prefix = "amdj-pool");
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues `fn` for execution on some worker and returns a future for
  /// its result. Exceptions escaping `fn` are captured into the future
  /// (the project API is exception-free, so in practice this only carries
  /// completion).
  template <typename F>
  auto Submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> result = task->get_future();
    Enqueue([task] { (*task)(); });
    return result;
  }

  /// Number of worker threads.
  size_t size() const { return workers_.size(); }

  /// Tasks submitted but not yet started (for tests/introspection).
  size_t queued() const AMDJ_EXCLUDES(mutex_);

 private:
  void Enqueue(std::function<void()> fn) AMDJ_EXCLUDES(mutex_);
  void WorkerLoop(size_t index) AMDJ_EXCLUDES(mutex_);

  const std::string name_prefix_;
  /// Utilization metrics, keyed by pool name (resolved once here; pools
  /// sharing a name_prefix share the series). Raw pointers into the global
  /// registry — stable for the process lifetime.
  Counter* tasks_total_metric_;
  Gauge* queued_tasks_metric_;
  Gauge* busy_workers_metric_;
  mutable Mutex mutex_;
  CondVar wake_;
  std::deque<std::function<void()>> tasks_ AMDJ_GUARDED_BY(mutex_);
  /// Written only by the constructor, joined by the destructor — the
  /// in-between is read-only (size()), so no capability is needed.
  std::vector<std::thread> workers_;
  bool shutting_down_ AMDJ_GUARDED_BY(mutex_) = false;
};

}  // namespace amdj

#endif  // AMDJ_COMMON_THREAD_POOL_H_
