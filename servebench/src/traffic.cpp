#include "traffic.hpp"

#include <pthread.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "serve/net/client.hpp"
#include "stats.hpp"
#include "tensor/random.hpp"

namespace servebench {

using dcn::serve::net::DcnClient;
using dcn::serve::net::ErrorCode;
using dcn::serve::net::MsgType;

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kWorkloads{
      {.name = "benign_trickle",
       .open_loop = true,
       .rate_rps = 250.0,
       .connections = 1,
       .in_flight = 1,
       .shards = 1,
       .adversarial_share = 0.0,
       .replay_batch = 1},
      // Half benign_trickle's rate. A benign request that shares a batch
      // with a flagged one, or arrives while a vote runs, waits for the
      // vote; at 250 req/s and above, host contention stretched the votes
      // until that held for about half the benign requests in some runs and
      // their median left the timer-flush mode (README.md, "Bounds").
      {.name = "attack_mix",
       .open_loop = true,
       .rate_rps = 125.0,
       .connections = 1,
       .in_flight = 1,
       .shards = 1,
       .adversarial_share = 0.30,
       .replay_batch = 2},
      // Not in BENCHMARK.json: at capacity its throughput and latency track
      // the host's spare CPU, which swung 4x between runs on a shared VM.
      {.name = "saturation",
       .open_loop = false,
       .rate_rps = 0.0,
       .connections = 4,
       .in_flight = 8,
       .shards = 2,
       .adversarial_share = 0.10,
       .replay_batch = 8},
  };
  return kWorkloads;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

dcn::serve::net::RouterConfig router_config() {
  dcn::serve::net::RouterConfig config;
  config.server = {.max_batch = 8, .max_delay_us = 2000};
  config.admission.queue_watermark = 256;
  return config;
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

namespace {

/// Cyclic dealer over [0, n): reshuffles each time a pass is used up.
class Deck {
 public:
  explicit Deck(std::size_t n) : cards_(n), next_(n) {
    for (std::size_t i = 0; i < n; ++i) cards_[i] = static_cast<std::uint32_t>(i);
  }
  std::uint32_t deal(dcn::Rng& rng) {
    if (cards_.empty()) throw std::runtime_error("make_requests: empty pool");
    if (next_ == cards_.size()) {
      for (std::size_t i = cards_.size(); i > 1; --i) {
        std::swap(cards_[i - 1], cards_[rng.uniform_index(i)]);
      }
      next_ = 0;
    }
    return cards_[next_++];
  }

 private:
  std::vector<std::uint32_t> cards_;
  std::size_t next_;
};

}  // namespace

std::vector<Request> make_requests(const Workload& workload,
                                   const Pools& pools, std::uint64_t seed,
                                   std::size_t connection, std::size_t count) {
  // Disjoint, well-mixed streams per (seed, connection).
  dcn::Rng rng(seed * 0x9E3779B97F4A7C15ULL + connection + 1);
  // Every block of kMixBlock requests carries the exact share (rounded
  // cumulatively), so each second of traffic offers the same mix and the
  // per-slice CPU figures compare like with like.
  auto adversarial_before = [&](std::size_t i) {
    return static_cast<std::size_t>(
        std::llround(workload.adversarial_share * static_cast<double>(i)));
  };
  std::vector<Request> out(count);
  for (std::size_t lo = 0; lo < count; lo += kMixBlock) {
    const std::size_t hi = std::min(count, lo + kMixBlock);
    const std::size_t n_adv = adversarial_before(hi) - adversarial_before(lo);
    for (std::size_t i = lo; i < lo + n_adv; ++i) out[i].adversarial = true;
    for (std::size_t i = hi - lo; i > 1; --i) {
      std::swap(out[lo + i - 1], out[lo + rng.uniform_index(i)]);
    }
  }
  // Images are dealt from seeded shuffles of each pool, a full pass before
  // any image repeats, so every run sends each image a near-equal number of
  // times and carries the pool's own share of detector-flagged images.
  Deck benign(pools.benign.size()), adversarial(pools.adversarial.size());
  for (Request& r : out) {
    r.index = (r.adversarial ? adversarial : benign).deal(rng);
  }
  return out;
}

const dcn::Tensor& input_of(const Pools& pools, const Request& r) {
  return r.adversarial ? pools.adversarial[r.index] : pools.benign[r.index];
}

std::size_t truth_of(const Pools& pools, const Request& r) {
  return r.adversarial ? pools.adversarial_labels[r.index]
                       : pools.benign_labels[r.index];
}

namespace {

using Clock = std::chrono::steady_clock;

// Closed-loop streams cycle once exhausted; this is far above what one
// connection completes in a run. Sample storage starts at a typical run's
// count and grows past it.
constexpr std::size_t kClosedLoopStream = 1 << 17;
constexpr std::size_t kClosedLoopReserve = 1 << 15;
// How long after the window the generator waits for missing responses.
constexpr double kResponseDeadlineS = 30.0;

double clock_s(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// State shared between the main thread and the generator threads.
struct Shared {
  Clock::time_point start;
  std::atomic<bool> stop{false};     // closed loop: send nothing new
  std::atomic<bool> release{false};  // generator threads may exit
  std::atomic<std::size_t> drained{0};
  std::mutex clocks_mutex;
  std::vector<clockid_t> clocks;  // CPU clocks of the generator threads

  [[nodiscard]] double now_s() const {
    return std::chrono::duration<double>(Clock::now() - start).count();
  }
  void register_thread() {
    clockid_t clock{};
    pthread_getcpuclockid(pthread_self(), &clock);
    std::lock_guard<std::mutex> lock(clocks_mutex);
    clocks.push_back(clock);
  }
  double generator_cpu_s() {
    std::lock_guard<std::mutex> lock(clocks_mutex);
    double sum = clock_s(CLOCK_THREAD_CPUTIME_ID);  // the main thread
    for (clockid_t c : clocks) sum += clock_s(c);
    return sum;
  }
  // Threads stay alive until the main thread has read their CPU clocks.
  void wait_release() const {
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
};

void record(Sample& s, const DcnClient::Response& r, double now) {
  s.done_s = now;
  if (r.type == MsgType::kPredictVerboseResponse) {
    s.status = Status::kOk;
    s.response = r.verbose;
  } else if (r.type == MsgType::kErrorResponse &&
             r.error.code == ErrorCode::kOverloaded) {
    s.status = Status::kShed;
  } else {
    s.status = Status::kFailed;
  }
}

void fail_pending(std::vector<Sample>& samples, std::size_t from) {
  for (std::size_t i = from; i < samples.size(); ++i) {
    if (samples[i].status == Status::kPending) {
      samples[i].status = Status::kFailed;
    }
  }
}

}  // namespace

TrafficResult drive(Deployment& deployment, const Workload& workload,
                    const Pools& pools, std::uint64_t seed, double warmup_s,
                    double seconds) {
  TrafficResult result;
  result.window_start_s = warmup_s;
  result.window_end_s = warmup_s + seconds;
  result.connections.resize(workload.connections);

  std::vector<DcnClient> clients;
  for (std::size_t c = 0; c < workload.connections; ++c) {
    clients.push_back(DcnClient::connect(deployment.port()));
  }

  Shared shared;
  std::vector<std::thread> threads;
  // On an early exit (an exception below), unblock and join the generator
  // threads before the state they use goes away; the normal path has
  // joined them already.
  struct Joiner {
    Shared& shared;
    std::vector<std::thread>& threads;
    std::vector<DcnClient>& clients;
    ~Joiner() {
      if (std::none_of(threads.begin(), threads.end(),
                       [](const std::thread& t) { return t.joinable(); })) {
        return;
      }
      shared.stop = true;
      for (DcnClient& c : clients) ::shutdown(c.fd(), SHUT_RDWR);
      shared.release = true;
      for (std::thread& t : threads) {
        if (t.joinable()) t.join();
      }
    }
  } joiner{shared, threads, clients};
  std::size_t expected_threads = 0;
  shared.start = Clock::now();

  if (workload.open_loop) {
    // One connection: a sender on the Poisson schedule, a receiver that
    // matches responses to requests in order (the server answers each
    // connection FIFO).
    const std::vector<double> at =
        poisson_schedule(seed, workload.rate_rps, result.window_end_s);
    const std::vector<Request> requests =
        make_requests(workload, pools, seed, 0, at.size());
    std::vector<Sample>& samples = result.connections[0];
    samples.resize(at.size());
    for (std::size_t i = 0; i < at.size(); ++i) {
      samples[i].request = requests[i];
      samples[i].intended_s = at[i];
    }
    DcnClient& client = clients[0];
    expected_threads = 2;
    threads.emplace_back([&] {
      shared.register_thread();
      for (Sample& s : samples) {
        std::this_thread::sleep_until(
            shared.start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(s.intended_s)));
        s.sent_s = shared.now_s();
        try {
          client.send_predict(input_of(pools, s.request), /*verbose=*/true);
        } catch (const std::exception&) {
          break;  // the receiver's deadline marks the rest failed
        }
      }
      shared.wait_release();
    });
    threads.emplace_back([&] {
      shared.register_thread();
      std::size_t i = 0;
      try {
        for (; i < samples.size(); ++i) {
          const DcnClient::Response r = client.recv();
          record(samples[i], r, shared.now_s());
        }
      } catch (const std::exception&) {
        fail_pending(samples, i);
      }
      ++shared.drained;
      shared.wait_release();
    });
  } else {
    expected_threads = workload.connections;
    for (std::size_t c = 0; c < workload.connections; ++c) {
      threads.emplace_back([&, c] {
        shared.register_thread();
        const std::vector<Request> requests =
            make_requests(workload, pools, seed, c, kClosedLoopStream);
        std::vector<Sample>& samples = result.connections[c];
        samples.reserve(kClosedLoopReserve);
        DcnClient& client = clients[c];
        std::deque<std::size_t> in_flight;
        std::size_t next = 0;
        auto send_one = [&](double intended) {
          Sample s;
          s.request = requests[next++ % requests.size()];
          s.intended_s = intended;
          s.sent_s = shared.now_s();
          samples.push_back(s);
          in_flight.push_back(samples.size() - 1);
          client.send_predict(input_of(pools, s.request), /*verbose=*/true);
        };
        try {
          for (std::size_t k = 0; k < workload.in_flight; ++k) {
            send_one(shared.now_s());
          }
          while (!in_flight.empty()) {
            const DcnClient::Response r = client.recv();
            const double now = shared.now_s();
            record(samples[in_flight.front()], r, now);
            in_flight.pop_front();
            if (!shared.stop.load()) send_one(now);
          }
        } catch (const std::exception&) {
          fail_pending(samples, 0);
        }
        ++shared.drained;
        shared.wait_release();
      });
    }
  }

  // Measured window: CPU and library counters are read at its edges.
  auto at_offset = [&](double s) {
    return shared.start + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(s));
  };
  while (true) {
    {
      std::lock_guard<std::mutex> lock(shared.clocks_mutex);
      if (shared.clocks.size() == expected_threads) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_until(at_offset(result.window_start_s));
  const double cpu0 = process_cpu_s();
  const double gen0 = shared.generator_cpu_s();
  result.server_cpu_marks_s.push_back(cpu0 - gen0);
  result.pool_before = dcn::runtime::pool_stats();
  result.kernels_before = dcn::runtime::kernel_stats().snapshot();
  const auto slices = static_cast<std::size_t>(std::max(1.0, std::round(seconds)));
  double cpu1 = cpu0, gen1 = gen0;
  for (std::size_t k = 1; k <= slices; ++k) {
    std::this_thread::sleep_until(at_offset(
        result.window_start_s + seconds * static_cast<double>(k) /
                                    static_cast<double>(slices)));
    cpu1 = process_cpu_s();
    gen1 = shared.generator_cpu_s();
    result.server_cpu_marks_s.push_back(cpu1 - gen1);
  }
  result.process_cpu_s = cpu1 - cpu0;
  result.generator_cpu_s = gen1 - gen0;
  result.pool_after = dcn::runtime::pool_stats();
  result.kernels_after = dcn::runtime::kernel_stats().snapshot();
  shared.stop = true;

  // Drain: wait for every response, or cut the sockets at the deadline so
  // blocked receivers fail their pending requests.
  const auto deadline = at_offset(result.window_end_s + kResponseDeadlineS);
  const std::size_t receivers = workload.connections;
  while (shared.drained.load() < receivers && Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  if (shared.drained.load() < receivers) {
    result.timed_out = true;
    for (DcnClient& c : clients) ::shutdown(c.fd(), SHUT_RDWR);
    while (shared.drained.load() < receivers) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  shared.release = true;
  for (std::thread& t : threads) t.join();

  auto& router = deployment.router();
  result.net = deployment.server().stats();
  result.admission = router.admission_stats();
  dcn::serve::ServerMetrics merged;
  for (std::size_t i = 0; i < router.shard_count(); ++i) {
    merged.merge(router.shard(i).metrics());
    result.shard_completed.push_back(router.shard(i).metrics().completed_count());
  }
  result.server = merged.snapshot();
  return result;
}

}  // namespace servebench
