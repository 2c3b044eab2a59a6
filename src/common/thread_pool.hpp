// ESSEX: elastic FIFO worker pool.
//
// The paper's parallel ESSE treats ensemble members as independent
// "singleton" jobs drained from a pool (§4.1). In-process we model the
// same thing with a work queue + worker threads. The pool knows nothing
// about cancellation: a member attempt's fate (cancelled before start,
// cancelled mid-run) is decided by mtc::ThreadExecutionBackend, which
// wraps each attempt in a closure that checks its own token.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace essex {

/// Elastic thread pool with FIFO dispatch. The worker count can be
/// resized at runtime (ForecastService elasticity): growing spawns
/// workers that immediately join the running queue, and shrinking retires
/// workers after their current task — in-flight work is never interrupted
/// by a resize. Each new worker starts on the next CPU of the mask it
/// inherited (round robin across every pool in the process), then keeps
/// that whole mask: placement only, never a pin.
class ThreadPool {
 public:
  /// Spawn `n_threads` workers (>= 1).
  explicit ThreadPool(std::size_t n_threads);
  ~ThreadPool();

  /// Grow or shrink the live worker count (>= 1). Growth is immediate;
  /// excess workers retire cooperatively once they finish their current
  /// task. Safe to call concurrently with submits.
  void resize(std::size_t n_threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task; returns a future for its completion (carrying the
  /// task's exception, if it threw). Every queued task runs: the
  /// destructor drains the queue before joining.
  std::future<void> submit(std::function<void()> task);

  /// Block until every queued task has finished.
  void wait_idle();

  /// Live (non-retired) worker threads.
  std::size_t thread_count() const;

  /// Number of tasks queued but not yet started.
  std::size_t queued() const;

 private:
  struct Item {
    std::function<void()> fn;
    std::promise<void> done;
  };

  void worker_loop(std::size_t index);

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable idle_cv_;
  std::deque<Item> queue_;
  std::size_t active_ = 0;
  bool shutting_down_ = false;
  /// All threads ever spawned; retired slots are joined and left
  /// default-constructed by resize()'s reap, so the vector only grows by
  /// the net resize delta, not per churn event.
  std::vector<std::thread> workers_;
  std::size_t desired_ = 0;             ///< target live worker count
  std::size_t live_ = 0;                ///< workers not yet retired
  std::vector<std::size_t> exited_;     ///< retired indices awaiting join
};

}  // namespace essex
