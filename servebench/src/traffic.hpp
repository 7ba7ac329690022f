// Workloads and the load generator.
//
// One generator process drives the socket tier through DcnClient with at
// most four threads and four connections. Open-loop workloads send on a
// seeded Poisson schedule regardless of replies (one sender and one
// receiver thread on one connection) and time each request from its
// *intended* send time, so a generator stall or a queue shows up in the
// latency instead of thinning the load. The closed-loop workload keeps a
// fixed number of requests in flight per connection and times each from
// its send.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/kernel_stats.hpp"
#include "runtime/thread_pool.hpp"
#include "serve/net/net_server.hpp"
#include "setup.hpp"

namespace servebench {

struct Workload {
  std::string name;
  bool open_loop = true;
  double rate_rps = 0.0;          // open loop: Poisson arrival rate
  std::size_t connections = 1;
  std::size_t in_flight = 1;      // closed loop: requests kept in flight
  std::size_t shards = 1;
  double adversarial_share = 0.0;
  std::size_t replay_batch = 1;   // batch size of the traced layer replay
};

/// The benchmark's workloads. BENCHMARK.json gates the first two;
/// `saturation` runs on demand (README.md records why each exists and why
/// saturation is not gated).
const std::vector<Workload>& workloads();
/// nullptr when `name` is not a workload.
const Workload* find_workload(const std::string& name);

/// Router settings shared by every workload: the default batcher (8 /
/// 2000 us) and a queue watermark above the 32 requests the closed loop
/// keeps in flight, so nothing sheds.
dcn::serve::net::RouterConfig router_config();

/// One generated request: which pool and which image in it.
struct Request {
  bool adversarial = false;
  std::uint32_t index = 0;
};

/// Requests per block of the adversarial interleave (see make_requests).
inline constexpr std::size_t kMixBlock = 20;

/// The request stream of one connection: `count` requests whose
/// adversarial positions are an exact share of every block of kMixBlock
/// consecutive requests, placed in the block by a seeded shuffle, each
/// dealt an image from a seeded cyclic shuffle of its pool. Deterministic
/// in (seed, connection).
std::vector<Request> make_requests(const Workload& workload,
                                   const Pools& pools, std::uint64_t seed,
                                   std::size_t connection, std::size_t count);

const dcn::Tensor& input_of(const Pools& pools, const Request& r);
std::size_t truth_of(const Pools& pools, const Request& r);

/// CPU seconds (user + system, all threads) the process has used so far.
double process_cpu_s();

enum class Status : std::uint8_t { kPending, kOk, kShed, kFailed };

/// One request as the generator saw it. Times are seconds since the start
/// of the run.
struct Sample {
  Request request;
  double intended_s = 0.0;
  double sent_s = 0.0;
  double done_s = 0.0;
  Status status = Status::kPending;
  dcn::serve::net::ServeNetResult response;
};

struct TrafficResult {
  std::vector<std::vector<Sample>> connections;
  double window_start_s = 0.0;
  double window_end_s = 0.0;
  double process_cpu_s = 0.0;    // getrusage delta over the window
  double generator_cpu_s = 0.0;  // generator + main thread CPU delta
  // Server CPU seconds (process minus generator) read at the window's
  // start and at the end of each of its one-second slices.
  std::vector<double> server_cpu_marks_s;
  bool timed_out = false;        // responses still missing at the deadline
  dcn::serve::net::NetServer::Stats net;
  dcn::serve::net::ShardRouter::AdmissionStats admission;
  dcn::serve::ServerMetrics::Snapshot server;  // merged over shards
  std::vector<std::uint64_t> shard_completed;
  dcn::runtime::PoolStatsSnapshot pool_before, pool_after;
  dcn::runtime::KernelStatsSnapshot kernels_before, kernels_after;
};

/// Drive `deployment` for `warmup_s` + `seconds`; the measured window is
/// the last `seconds`. Returns once every response arrived or the
/// response deadline passed.
TrafficResult drive(Deployment& deployment, const Workload& workload,
                    const Pools& pools, std::uint64_t seed, double warmup_s,
                    double seconds);

}  // namespace servebench
