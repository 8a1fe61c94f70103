#pragma once
/// \file task_pool.hpp
/// Persistent work-stealing executor — the process-wide scale lever.
///
/// The routing flow is embarrassingly parallel at three nested levels
/// (members of a group, groups of a layout, cases of a benchmark run), but
/// per-call `std::async` spawning pays a thread start/join per batch and
/// cannot share workers across levels. `TaskPool` fixes both:
///
///  * a fixed set of worker threads lives as long as the pool (constructed
///    once, reused by every `route`/`route_board`/`Suite::run` call);
///  * each worker owns a Chase–Lev deque (steal_deque.hpp): tasks spawned
///    *by* a worker go to its own deque LIFO, idle workers steal FIFO from
///    the others, so uneven task costs — member extension times spread over
///    an order of magnitude — balance without a central queue;
///  * `TaskGroup::wait()` called *on* a worker does not block the thread:
///    the waiter keeps executing pool tasks until its group drains, so
///    nested fan-out (a Suite case task running a Router that fans out its
///    members) cannot deadlock, whatever the pool size;
///  * a pool with 0 workers is valid and fully serial: every task runs
///    inline on the waiting thread — thread count 1 needs no threads.
///
/// Use `TaskPool::shared()` (lazy singleton sized to the hardware) for
/// default-configured callers, or construct explicit instances to pin a
/// worker count (the `--scaling` sweep, tests). `resolve_threads` is the
/// single source of truth for the user-facing "0 = hardware" convention.

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "exec/steal_deque.hpp"

namespace lmr::exec {

class TaskGroup;

/// Resolve a user-facing thread-count option: 0 means hardware concurrency,
/// never less than 1. Every layer (Router, Suite, bench mains) must resolve
/// through here so "0" means the same thing everywhere.
[[nodiscard]] std::size_t resolve_threads(std::size_t requested);

/// The executor. Submission happens through `TaskGroup`; the pool itself
/// only knows how to store, steal and run anonymous tasks.
class TaskPool {
 public:
  /// Pool with exactly `workers` worker threads (0 is valid: tasks then run
  /// inline on whichever thread waits on their group). A caller that
  /// participates via `TaskGroup::wait`/`parallel_for_dynamic` adds one to
  /// the effective parallelism, hence `parallelism() == workers + 1`.
  explicit TaskPool(std::size_t workers);
  ~TaskPool();

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  /// Process-wide lazily-created pool with `resolve_threads(0) - 1` workers
  /// (the submitting thread is the extra participant). First call creates
  /// it; it lives until process exit.
  static TaskPool& shared();

  [[nodiscard]] std::size_t worker_count() const { return deques_.size(); }

  /// Workers plus the calling participant — what a claimer-style fan-out
  /// can actually run concurrently through this pool.
  [[nodiscard]] std::size_t parallelism() const { return deques_.size() + 1; }

  /// True when the calling thread is one of this pool's workers.
  [[nodiscard]] bool on_worker_thread() const;

  /// Execute one pending task if any is immediately claimable (own deque
  /// for a worker, else injection queue, else steal). Returns false when
  /// nothing was run. Safe from any thread; the helping backbone of
  /// `TaskGroup::wait`.
  bool try_run_one();

 private:
  friend class TaskGroup;

  struct Task {
    std::function<void()> fn;
    TaskGroup* group;
  };

  void submit(Task* t);
  Task* take(std::size_t self_or_npos);
  static void execute(Task* t);
  void worker_loop(std::size_t index);

  static constexpr std::size_t kNotAWorker = static_cast<std::size_t>(-1);

  std::vector<std::unique_ptr<StealDeque<Task>>> deques_;
  std::vector<std::thread> workers_;
  std::deque<Task*> injection_;  ///< external submissions; guarded by mu_
  /// Mirror of injection_.size(), so empty-queue polls skip the lock.
  std::atomic<std::size_t> injection_size_{0};
  mutable std::mutex mu_;
  std::condition_variable cv_;
  /// Submission epoch / parked-worker count: the lock-free half of the
  /// sleep/wake protocol (see submit()); mu_ is only taken to park or to
  /// notify an actual sleeper.
  std::atomic<std::uint64_t> signal_{0};
  std::atomic<std::uint32_t> sleepers_{0};
  bool stop_ = false;  ///< guarded by mu_
};

/// A batch of tasks on one pool, with exception capture: `wait()` returns
/// when every task submitted through `run()` has finished and rethrows the
/// first captured exception (later ones are dropped; the remaining tasks
/// still run to completion, matching the drain-then-rethrow semantics the
/// router's `std::async` claimers had). A group is reusable after `wait()`.
class TaskGroup {
 public:
  explicit TaskGroup(TaskPool& pool) : pool_(pool) {}

  /// Drains remaining tasks; any unretrieved exception is discarded (a
  /// throwing destructor would terminate).
  ~TaskGroup() { drain(); }

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Submit one task. From a worker thread this pushes onto its own deque
  /// (stealable by idle workers); from any other thread it goes through the
  /// pool's injection queue.
  void run(std::function<void()> fn);

  /// Chained / continuation submission: run `stages` strictly in order as
  /// successive tasks of this group — stage k+1 is submitted only after
  /// stage k returned normally, so a stage may freely read everything its
  /// predecessors wrote. A throwing stage is captured like any other task
  /// failure and short-circuits the chain: the not-yet-submitted tail never
  /// runs (other chains and tasks of the group still drain before `wait()`
  /// rethrows). Submitted from a worker, each continuation lands on that
  /// worker's own deque (LIFO: it usually runs next, cache-warm) while
  /// staying stealable by idle workers — the building block of the router's
  /// staged extend → write-back → per-net-DRC pipeline.
  void run_chain(std::vector<std::function<void()>> stages);

  /// Block until every task has finished, then rethrow the first captured
  /// exception if any. On a pool worker "block" means *help*: the waiter
  /// executes pool tasks (its own fan-out first, then stolen work) instead
  /// of sleeping, which is what makes nested submission deadlock-free.
  void wait();

  [[nodiscard]] TaskPool& pool() const { return pool_; }

 private:
  friend class TaskPool;

  void run_stage(std::shared_ptr<std::vector<std::function<void()>>> stages,
                 std::size_t k);
  void drain();
  void finish_one(std::exception_ptr error);

  TaskPool& pool_;
  std::atomic<std::size_t> pending_{0};
  std::mutex mu_;
  std::condition_variable cv_;
  std::exception_ptr error_;  ///< first failure; guarded by mu_
};

/// The single source of truth for the user-facing thread-count convention
/// shared by Router, Suite and the bench mains: `threads == 0` borrows the
/// lazy shared singleton (hardware-sized), `threads == 1` means fully
/// serial (no executor at all), `threads > 1` owns a private pinned pool
/// of `threads - 1` workers — the calling thread is the last participant.
/// Acquisition is lazy, so a handle that is never used for a parallel
/// fan-out never spawns a thread.
class PoolHandle {
 public:
  explicit PoolHandle(std::size_t threads) : threads_(threads) {}

  /// The executor for this thread count, created/borrowed on first call
  /// (thread-safe); nullptr when the configuration is serial.
  [[nodiscard]] TaskPool* acquire();

  [[nodiscard]] std::size_t threads() const { return threads_; }

 private:
  std::size_t threads_;
  std::once_flag once_;
  TaskPool* borrowed_ = nullptr;
  std::unique_ptr<TaskPool> owned_;
};

/// Dynamically-scheduled parallel loop: run `fn(0) .. fn(n-1)` with at most
/// `max_parallelism` concurrent claimers, the calling thread being one of
/// them. Each claimer grabs the next unprocessed index from a shared
/// counter, so wildly uneven per-index costs (the routing workload: member
/// extension times spread over an order of magnitude) never idle behind a
/// static partition. Results must be written by index by `fn` itself —
/// that is what keeps the outcome independent of scheduling order.
///
/// `max_parallelism <= 1`, `n <= 1`, or a 0-worker pool degenerate to an
/// inline serial loop on the caller. Exceptions from `fn` propagate to the
/// caller (first one wins) after every claimer has drained.
template <typename Fn>
void parallel_for_dynamic(TaskPool& pool, std::size_t n, std::size_t max_parallelism,
                          Fn&& fn) {
  if (n == 0) return;
  const std::size_t claimers = std::min({max_parallelism, n, pool.parallelism()});
  if (claimers <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  const auto claim = [&next, &fn, n] {
    for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed); i < n;
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      fn(i);
    }
  };
  TaskGroup group(pool);
  for (std::size_t c = 1; c < claimers; ++c) group.run(claim);
  claim();  // the caller is a claimer too; ~TaskGroup drains if this throws
  group.wait();
}

}  // namespace lmr::exec
