#include "dd/task_pool.hpp"

#include <chrono>

namespace ddsim::dd {

TaskPool::TaskPool(std::size_t workers) {
  const std::size_t n = workers == 0 ? 1 : workers;
  queues_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
  threads_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    threads_.emplace_back([this, i] { workerMain(i); });
  }
}

TaskPool::~TaskPool() {
  {
    const std::lock_guard<std::mutex> lock(idleMutex_);
    stop_.store(true, std::memory_order_relaxed);
    idleCv_.notify_all();
  }
  for (auto& t : threads_) {
    t.join();
  }
}

void TaskPool::submit(TaskGroup& group, std::function<void()> fn) {
  group.pending_.fetch_add(1, std::memory_order_acq_rel);
  const std::size_t home =
      nextQueue_.fetch_add(1, std::memory_order_relaxed) % queues_.size();
  {
    auto& q = *queues_[home];
    const std::lock_guard<std::mutex> lock(q.mutex);
    q.tasks.push_back(Task{std::move(fn), &group});
  }
  queued_.fetch_add(1, std::memory_order_release);
  {
    // Notify under the idle mutex so a worker between its predicate check
    // and its wait() cannot miss the wakeup.
    const std::lock_guard<std::mutex> lock(idleMutex_);
    idleCv_.notify_one();
  }
}

void TaskPool::wait(TaskGroup& group) {
  while (group.pending_.load(std::memory_order_acquire) != 0) {
    // Helping from index 0 is fine: stealing order only affects fairness.
    if (tryRunOne(0)) {
      continue;
    }
    // Nothing runnable — the group's remaining tasks are executing on other
    // threads. Sleep until the group drains (short timeout guards against
    // the benign race where the last task finished between the load above
    // and the wait below on a group whose notify we already consumed).
    std::unique_lock<std::mutex> lock(group.mutex_);
    group.cv_.wait_for(lock, std::chrono::microseconds(100), [&] {
      return group.pending_.load(std::memory_order_acquire) == 0;
    });
  }
  std::exception_ptr first;
  {
    const std::lock_guard<std::mutex> lock(group.mutex_);
    first = group.exception_;
    group.exception_ = nullptr;
  }
  if (first) {
    std::rethrow_exception(first);
  }
}

void TaskPool::workerMain(std::size_t index) {
  for (;;) {
    if (tryRunOne(index)) {
      continue;
    }
    std::unique_lock<std::mutex> lock(idleMutex_);
    idleCv_.wait(lock, [this] {
      return stop_.load(std::memory_order_relaxed) ||
             queued_.load(std::memory_order_acquire) > 0;
    });
    if (stop_.load(std::memory_order_relaxed) &&
        queued_.load(std::memory_order_acquire) == 0) {
      return;
    }
  }
}

bool TaskPool::tryRunOne(std::size_t homeIndex) {
  const std::size_t n = queues_.size();
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t idx = (homeIndex + k) % n;
    Task task;
    {
      auto& q = *queues_[idx];
      const std::lock_guard<std::mutex> lock(q.mutex);
      if (q.tasks.empty()) {
        continue;
      }
      if (k == 0) {
        // Own queue: LIFO for locality.
        task = std::move(q.tasks.back());
        q.tasks.pop_back();
      } else {
        // Steal: FIFO — take the oldest (usually largest) task.
        task = std::move(q.tasks.front());
        q.tasks.pop_front();
      }
    }
    queued_.fetch_sub(1, std::memory_order_acq_rel);
    execute(task);
    return true;
  }
  return false;
}

void TaskPool::execute(Task& task) {
  try {
    task.fn();
  } catch (...) {
    const std::lock_guard<std::mutex> lock(task.group->mutex_);
    if (!task.group->exception_) {
      task.group->exception_ = std::current_exception();
    }
  }
  // Decrement under the group mutex: the group lives on the waiter's stack,
  // and wait() takes this mutex before returning, so a waiter that sees
  // pending == 0 cannot destroy the group while this thread still uses it.
  const std::lock_guard<std::mutex> lock(task.group->mutex_);
  if (task.group->pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    task.group->cv_.notify_all();
  }
}

}  // namespace ddsim::dd
