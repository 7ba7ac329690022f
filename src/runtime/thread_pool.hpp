// Shared parallel runtime for the hot inference paths.
//
// A fixed pool of worker threads plus a chunked parallel_for. The pool is
// deliberately simple — no work stealing, no futures — because every hot
// loop in the library (GEMM rows, im2col patches, batched forward passes,
// corrector region samples) is a balanced index range that chunks well.
//
// Determinism contract: parallel_for only partitions an index range; the
// work done for index i is identical at any thread count, and callers only
// write to disjoint per-index (or per-chunk) destinations. Nothing in the
// runtime reorders floating-point accumulation, so results are bit-identical
// whether DCN_THREADS is 1 or 64.
//
// Sizing: the global pool reads the DCN_THREADS environment variable once
// (default: std::thread::hardware_concurrency()). Tests and benches may
// resize it at a safe point via set_thread_count().
//
// Placement: on Linux each worker is pinned to its own CPU of the process's
// affinity mask (wrapping when there are more workers than CPUs), so the
// workers never pile onto one CPU between loops.
//
// Work-sized dispatch: callers state what one index costs, never a grain.
// The pool cuts chunks of at least kMinChunkWork units and runs a range that
// fits in one chunk inline on the caller, at any thread count, so loops too
// small to pay for waking a worker never leave the calling thread.
//
// This is the process's ONLY compute pool. In particular the serving layer
// (src/serve/) adds just one dispatcher thread of its own and pushes every
// micro-batch through here via Dcn::predict — any thread may call
// parallel_for (the caller participates in its own job), so the dispatcher
// needs no special standing.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace dcn::runtime {

/// Smallest amount of work worth handing to another thread, in work units:
/// one FLOP or one float moved. A chunk holds at least this much, so a range
/// whose total work is at most kMinChunkWork always runs inline. Sized by
/// the `pool_dispatch` row of bench_latency_microbench (BENCH_runtime.json):
/// on a 4-vCPU VM one empty 4-chunk dispatch at 4 threads costs 20-23 us
/// more CPU and 5-6 us more wall time than running it inline, 7-8 us of CPU
/// per woken helper. 2^19 units take 50-270 us at the 2-10 GFLOP/s the
/// batch-1 to batch-8 kernels reach there, so a wake-up stays within 5-15%
/// of the chunk it buys. It keeps a batch-1 or batch-2 MNIST convnet
/// forward (~0.3M units per row) inline; 2^20 also did, but cut a batch-8
/// forward into two chunks instead of four and doubled its wall time.
inline constexpr std::size_t kMinChunkWork = std::size_t{1} << 19;

/// Utilization gauges for the pool (obs::MetricsRegistry exports them as the
/// dcn_pool_* families). All sampled from relaxed atomics: approximately
/// consistent mid-flight, exact at quiescence. Per-worker idle time is
/// derived as uptime - busy, so a cold worker reads as fully idle.
struct PoolStatsSnapshot {
  std::size_t workers = 0;
  std::uint64_t parallel_fors = 0;  // parallel dispatches (chunked path)
  std::uint64_t inline_runs = 0;    // serial fast-path executions
  std::uint64_t chunks = 0;         // chunks claimed across all jobs
  std::uint64_t uptime_ns = 0;      // since the pool was built
  std::vector<std::uint64_t> worker_tasks;    // helper tasks run per worker
  std::vector<std::uint64_t> worker_busy_ns;  // time inside tasks per worker
};

class ThreadPool {
 public:
  /// Spawn `threads` workers; 0 and 1 both mean "run everything inline".
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads (0 when the pool is inline-only).
  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  /// Degree of parallelism parallel_for can exploit (>= 1; the calling
  /// thread always participates).
  [[nodiscard]] std::size_t concurrency() const { return size() + 1; }

  /// Apply fn(chunk_begin, chunk_end) over [begin, end), where each index
  /// costs `work_per_index` work units (see kMinChunkWork; 0 counts as 1).
  /// Chunks carry at least kMinChunkWork units and number at most twice
  /// concurrency(); a range that fits in one chunk runs inline. The calling
  /// thread participates; chunks are claimed from an atomic cursor so
  /// balance is automatic. Blocks until the whole range is done. Exceptions
  /// from fn are rethrown on the caller (first one wins). Nested calls from
  /// inside a worker run inline — parallelism is applied at the outermost
  /// level only.
  void parallel_for(std::size_t begin, std::size_t end,
                    std::size_t work_per_index,
                    const std::function<void(std::size_t, std::size_t)>& fn);

  /// Utilization snapshot (see PoolStatsSnapshot).
  [[nodiscard]] PoolStatsSnapshot stats() const;

 private:
  void worker_loop(std::size_t index);

  struct WorkerStat {
    std::atomic<std::uint64_t> tasks{0};
    std::atomic<std::uint64_t> busy_ns{0};
  };

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;

  // Gauges: relaxed atomics only, bumped off the lock.
  std::unique_ptr<WorkerStat[]> worker_stats_;
  std::atomic<std::uint64_t> stat_parallel_fors_{0};
  std::atomic<std::uint64_t> stat_inline_runs_{0};
  std::atomic<std::uint64_t> stat_chunks_{0};
  std::chrono::steady_clock::time_point start_time_;
};

/// The process-wide pool, lazily constructed from DCN_THREADS.
ThreadPool& pool();

/// Worker count the global pool was (or will be) built with.
std::size_t thread_count();

/// Rebuild the global pool with `threads` workers (1 = serial). Not safe
/// while a parallel_for is in flight; intended for tests and benches.
void set_thread_count(std::size_t threads);

/// Name the calling thread (shown in /proc/<pid>/task/*/comm, top -H and
/// debuggers) so per-thread CPU can be split by role. Linux ignores names
/// over 15 characters; a no-op where the platform has no thread names.
void set_thread_name(const char* name);

/// Utilization snapshot of the global pool (gauges reset when the pool is
/// rebuilt via set_thread_count).
PoolStatsSnapshot pool_stats();

/// Convenience wrapper over pool().parallel_for.
inline void parallel_for(std::size_t begin, std::size_t end,
                         std::size_t work_per_index,
                         const std::function<void(std::size_t, std::size_t)>& fn) {
  pool().parallel_for(begin, end, work_per_index, fn);
}

}  // namespace dcn::runtime
