#include "runtime/thread_pool.hpp"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>

namespace dcn::runtime {

namespace {

// True on threads that belong to some ThreadPool; nested parallel_for calls
// from such threads run inline instead of re-entering the queue (which could
// otherwise deadlock: every worker waiting on chunks only workers can run).
thread_local bool tls_in_worker = false;

// Pin worker i to the (i+1)-th CPU the process may run on (wrapping), so
// the workers never share a CPU with each other and the first CPU stays
// free for the threads that call parallel_for. Without pins, a host that
// does not rebalance threads across CPUs (a cpuset with sched_load_balance
// off) leaves a rarely woken worker wherever its last wake-up put it, often
// the caller's CPU. On such a 4-vCPU VM, once loops below kMinChunkWork
// stopped waking the workers, servebench's traced replay after benign
// traffic found all three workers on the caller's CPU and the 256^3 GEMM
// at 16-25 GFLOP/s instead of 55-60.
void pin_workers(std::vector<std::thread>& workers) {
#if defined(__linux__)
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  if (cpus.size() < 2) return;
  for (std::size_t i = 0; i < workers.size(); ++i) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus[(i + 1) % cpus.size()], &one);
    pthread_setaffinity_np(workers[i].native_handle(), sizeof(one), &one);
  }
#else
  (void)workers;
#endif
}

}  // namespace

ThreadPool::ThreadPool(std::size_t threads)
    : start_time_(std::chrono::steady_clock::now()) {
  const std::size_t workers = threads <= 1 ? 0 : threads - 1;
  if (workers > 0) worker_stats_ = std::make_unique<WorkerStat[]>(workers);
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
  pin_workers(workers_);
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop(std::size_t index) {
  tls_in_worker = true;
  set_thread_name(("dcn-pool-" + std::to_string(index)).c_str());
  WorkerStat& stat = worker_stats_[index];
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    const auto t0 = std::chrono::steady_clock::now();
    task();
    const auto busy = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    stat.busy_ns.fetch_add(static_cast<std::uint64_t>(busy),
                           std::memory_order_relaxed);
    stat.tasks.fetch_add(1, std::memory_order_relaxed);
  }
}

PoolStatsSnapshot ThreadPool::stats() const {
  PoolStatsSnapshot s;
  s.workers = workers_.size();
  s.parallel_fors = stat_parallel_fors_.load(std::memory_order_relaxed);
  s.inline_runs = stat_inline_runs_.load(std::memory_order_relaxed);
  s.chunks = stat_chunks_.load(std::memory_order_relaxed);
  s.uptime_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start_time_)
          .count());
  s.worker_tasks.reserve(s.workers);
  s.worker_busy_ns.reserve(s.workers);
  for (std::size_t i = 0; i < s.workers; ++i) {
    s.worker_tasks.push_back(
        worker_stats_[i].tasks.load(std::memory_order_relaxed));
    s.worker_busy_ns.push_back(
        worker_stats_[i].busy_ns.load(std::memory_order_relaxed));
  }
  return s;
}

void ThreadPool::parallel_for(
    std::size_t begin, std::size_t end, std::size_t work_per_index,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (begin >= end) return;
  const std::size_t count = end - begin;
  // Enough indices per chunk to carry kMinChunkWork, and no more than two
  // chunks per thread: extra chunks on a large range only add claims.
  const std::size_t work = std::max<std::size_t>(1, work_per_index);
  const std::size_t grain =
      std::max((kMinChunkWork + work - 1) / work,
               (count + 2 * concurrency() - 1) / (2 * concurrency()));
  const std::size_t nchunks = (count + grain - 1) / grain;
  // Serial fast path: no workers, a single chunk, or a nested call from
  // inside a worker (parallelism stays at the outermost loop).
  if (workers_.empty() || nchunks == 1 || tls_in_worker) {
    stat_inline_runs_.fetch_add(1, std::memory_order_relaxed);
    fn(begin, end);
    return;
  }
  stat_parallel_fors_.fetch_add(1, std::memory_order_relaxed);
  stat_chunks_.fetch_add(nchunks, std::memory_order_relaxed);

  // Shared chunk cursor: caller and workers claim chunks until exhausted.
  struct Job {
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::size_t begin, grain, end, nchunks;
    const std::function<void(std::size_t, std::size_t)>* fn;
    std::mutex mutex;
    std::condition_variable cv;
    std::exception_ptr error;
  };
  auto job = std::make_shared<Job>();
  job->begin = begin;
  job->grain = grain;
  job->end = end;
  job->nchunks = nchunks;
  job->fn = &fn;

  auto drain = [](const std::shared_ptr<Job>& j) {
    for (;;) {
      const std::size_t c = j->next.fetch_add(1);
      if (c >= j->nchunks) break;
      const std::size_t lo = j->begin + c * j->grain;
      const std::size_t hi = std::min(j->end, lo + j->grain);
      try {
        (*j->fn)(lo, hi);
      } catch (...) {
        std::lock_guard<std::mutex> lock(j->mutex);
        if (!j->error) j->error = std::current_exception();
      }
      if (j->done.fetch_add(1) + 1 == j->nchunks) {
        std::lock_guard<std::mutex> lock(j->mutex);
        j->cv.notify_all();
      }
    }
  };

  // One helper task per worker is enough: each loops the cursor dry. Wake
  // one sleeper per queued task, so idle workers beyond that keep sleeping.
  const std::size_t helpers = std::min(workers_.size(), nchunks - 1);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t i = 0; i < helpers; ++i) {
      tasks_.emplace([job, drain] { drain(job); });
    }
  }
  for (std::size_t i = 0; i < helpers; ++i) cv_.notify_one();

  drain(job);
  {
    std::unique_lock<std::mutex> lock(job->mutex);
    job->cv.wait(lock, [&] { return job->done.load() == job->nchunks; });
    if (job->error) std::rethrow_exception(job->error);
  }
}

namespace {

std::size_t env_thread_count() {
  if (const char* env = std::getenv("DCN_THREADS")) {
    char* endp = nullptr;
    const long v = std::strtol(env, &endp, 10);
    if (endp != env && v > 0) return static_cast<std::size_t>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

std::unique_ptr<ThreadPool> g_pool;        // guarded by g_pool_mutex
std::size_t g_threads = 0;                 // 0 = not yet configured
std::mutex g_pool_mutex;

}  // namespace

ThreadPool& pool() {
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  if (!g_pool) {
    if (g_threads == 0) g_threads = env_thread_count();
    g_pool = std::make_unique<ThreadPool>(g_threads);
  }
  return *g_pool;
}

std::size_t thread_count() {
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  if (g_threads == 0) g_threads = env_thread_count();
  return g_threads;
}

PoolStatsSnapshot pool_stats() { return pool().stats(); }

void set_thread_name(const char* name) {
#if defined(__linux__)
  pthread_setname_np(pthread_self(), name);
#else
  (void)name;
#endif
}

void set_thread_count(std::size_t threads) {
  if (threads == 0) {
    throw std::invalid_argument("set_thread_count: threads must be > 0");
  }
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  g_threads = threads;
  g_pool.reset();  // next pool() call rebuilds at the new size
}

}  // namespace dcn::runtime
