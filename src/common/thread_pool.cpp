#include "common/thread_pool.hpp"

#include "common/error.hpp"

namespace essex {

ThreadPool::ThreadPool(std::size_t n_threads) {
  ESSEX_REQUIRE(n_threads >= 1, "thread pool needs at least one worker");
  workers_.reserve(n_threads);
  desired_ = live_ = n_threads;
  for (std::size_t i = 0; i < n_threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    shutting_down_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
}

void ThreadPool::resize(std::size_t n_threads) {
  ESSEX_REQUIRE(n_threads >= 1, "thread pool needs at least one worker");
  // Reap workers that retired during earlier shrinks. They pushed their
  // index right before returning, so these joins complete immediately.
  std::vector<std::thread> reaped;
  {
    std::lock_guard<std::mutex> lk(mu_);
    ESSEX_REQUIRE(!shutting_down_, "cannot resize a destroyed pool");
    for (std::size_t idx : exited_) reaped.push_back(std::move(workers_[idx]));
    exited_.clear();
  }
  for (auto& t : reaped) {
    if (t.joinable()) t.join();
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    desired_ = n_threads;
    while (live_ < desired_) {
      // Reuse a reaped slot when one is free, else append.
      std::size_t idx = workers_.size();
      for (std::size_t i = 0; i < workers_.size(); ++i) {
        if (!workers_[i].joinable()) {
          idx = i;
          break;
        }
      }
      auto th = std::thread([this, idx] { worker_loop(idx); });
      if (idx == workers_.size()) {
        workers_.push_back(std::move(th));
      } else {
        workers_[idx] = std::move(th);
      }
      ++live_;
    }
  }
  // Shrinking: wake idle workers so the excess retire promptly.
  cv_.notify_all();
}

std::size_t ThreadPool::thread_count() const {
  std::lock_guard<std::mutex> lk(mu_);
  return live_;
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  ESSEX_REQUIRE(task != nullptr, "cannot submit an empty task");
  Item item;
  item.fn = std::move(task);
  std::future<void> fut = item.done.get_future();
  {
    std::lock_guard<std::mutex> lk(mu_);
    ESSEX_REQUIRE(!shutting_down_, "cannot submit to a destroyed pool");
    queue_.push_back(std::move(item));
  }
  cv_.notify_one();
  return fut;
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lk(mu_);
  idle_cv_.wait(lk, [this] { return queue_.empty() && active_ == 0; });
}

std::size_t ThreadPool::queued() const {
  std::lock_guard<std::mutex> lk(mu_);
  return queue_.size();
}

void ThreadPool::worker_loop(std::size_t index) {
  for (;;) {
    Item item;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [this] {
        return shutting_down_ || !queue_.empty() || live_ > desired_;
      });
      if (shutting_down_ && queue_.empty()) return;
      if (!shutting_down_ && live_ > desired_) {
        // Retire cooperatively: finish nothing mid-flight, just leave.
        --live_;
        exited_.push_back(index);
        return;
      }
      if (queue_.empty()) continue;
      item = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    try {
      item.fn();
      item.done.set_value();
    } catch (...) {
      item.done.set_exception(std::current_exception());
    }
    {
      std::lock_guard<std::mutex> lk(mu_);
      --active_;
      if (queue_.empty() && active_ == 0) idle_cv_.notify_all();
    }
  }
}

}  // namespace essex
