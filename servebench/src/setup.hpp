// Set-up of the serving benchmark: train the seeded MNIST workbench, the
// detector and the Tier-0 head, build the CW-L2 adversarial pool, and boot
// ShardRouter + NetServer in-process over full DCN replicas.
//
// Training seeds are fixed (they define the system under test); --seed only
// drives the generated traffic. Set-up is deterministic, so repeating it in
// one run must reproduce the same state bit for bit (state_digest).
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/dcn.hpp"
#include "serve/net/net_server.hpp"

namespace servebench {

/// Serialized trained state, loaded into each replica by value.
struct TrainedState {
  std::string weights;
  std::string detector;
  std::string tier0;
};

/// Request inputs the traffic generator draws from, with ground truth: the
/// true label for benign images, the source's label for adversarial ones.
struct Pools {
  std::vector<dcn::Tensor> benign;
  std::vector<std::size_t> benign_labels;
  std::vector<dcn::Tensor> adversarial;
  std::vector<std::size_t> adversarial_labels;
};

struct SetupPhases {
  double workbench_s = 0.0;
  double detector_s = 0.0;
  double tier0_s = 0.0;
  double adv_pool_s = 0.0;
  double boot_s = 0.0;
};

struct Trained {
  TrainedState state;
  Pools pools;
  SetupPhases phases;  // boot_s is filled by the caller that boots
  double clean_accuracy = 0.0;
};

/// Run every training phase of set-up, timing each.
Trained train_system();

/// FNV-1a digest over the trained state and both pools.
std::uint64_t state_digest(const Trained& trained);

/// One full DCN replica (the ShardRouter contract: shards share nothing
/// mutable, and every corrector starts at RNG stream position 0).
struct Replica {
  Replica();
  dcn::nn::Sequential model;
  dcn::core::Detector detector;
  dcn::core::LogitCorrector tier0;
  std::unique_ptr<dcn::core::Corrector> corrector;
  std::unique_ptr<dcn::core::Dcn> dcn;
};
std::unique_ptr<Replica> make_replica(const TrainedState& state);

/// Replicas + ShardRouter + NetServer on an ephemeral loopback port.
class Deployment {
 public:
  Deployment(const TrainedState& state, std::size_t shards,
             const dcn::serve::net::RouterConfig& config);
  ~Deployment();
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  [[nodiscard]] dcn::serve::net::ShardRouter& router() { return *router_; }
  [[nodiscard]] dcn::serve::net::NetServer& server() { return *server_; }
  [[nodiscard]] std::uint16_t port() const { return server_->port(); }

  /// Block until a Health request on a fresh connection is answered.
  void wait_ready();

 private:
  std::vector<std::unique_ptr<Replica>> replicas_;
  std::unique_ptr<dcn::serve::net::ShardRouter> router_;
  std::unique_ptr<dcn::serve::net::NetServer> server_;
};

}  // namespace servebench
