// Minimal fork-join worker pool for fault-level parallelism.
//
// The parallel redundancy-removal engine runs many independent ATPG
// classifications per pass, with a barrier (the deterministic commit)
// between passes. The pool keeps its worker threads alive across
// passes — a removal run can execute thousands of passes and must not
// pay a thread spawn per pass — and hands out work through shared
// self-scheduling tickets (TicketQueue): each worker repeatedly grabs
// the next unclaimed index, so a worker stuck on one hard SAT query
// never strands the easy queries behind it. That is the one-queue
// degenerate form of work stealing, and for this workload (tasks are
// SAT solves, orders of magnitude above the cost of one atomic
// fetch_add) it is indistinguishable from per-worker deques.
//
// The pool is deliberately *not* a generic futures executor: the only
// primitive is run(body) — execute body(worker_index) once on every
// worker, caller included, and return when all are done. Determinism is
// the callers' business; the engine built on top commits results in
// canonical order regardless of which worker produced them.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace kms {

/// `requested` with 0 resolved to the hardware concurrency (floor 1).
unsigned resolve_jobs(unsigned requested);

/// Shared self-scheduling work counter: `next()` hands out 0,1,2,...
/// exactly once each across any number of workers.
class TicketQueue {
 public:
  explicit TicketQueue(std::size_t size) : size_(size) {}

  /// Claim the next unclaimed index; returns size() when drained.
  std::size_t next() {
    const std::size_t t = next_.fetch_add(1, std::memory_order_relaxed);
    return t < size_ ? t : size_;
  }

  std::size_t size() const { return size_; }

 private:
  const std::size_t size_;
  std::atomic<std::size_t> next_{0};
};

class ThreadPool {
 public:
  /// A pool of `workers` total lanes. Lane 0 is the calling thread
  /// (run() executes the body on it directly), so `workers - 1` threads
  /// are spawned. workers == 1 spawns nothing and run() degenerates to
  /// a plain call — a one-lane run pays zero threading cost.
  explicit ThreadPool(unsigned workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned size() const { return static_cast<unsigned>(threads_.size()) + 1; }

  /// Execute `body(worker)` once per lane (0 .. size()-1), the caller
  /// running lane 0, and block until every lane returns. Exceptions
  /// thrown by worker lanes are rethrown on the caller (first one wins);
  /// the barrier still completes so the pool stays reusable.
  void run(const std::function<void(unsigned)>& body);

 private:
  void worker_loop(unsigned lane);

  std::vector<std::thread> threads_;
  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  const std::function<void(unsigned)>* body_ = nullptr;
  std::uint64_t generation_ = 0;
  unsigned running_ = 0;
  bool shutdown_ = false;
  std::exception_ptr first_error_;
};

}  // namespace kms
