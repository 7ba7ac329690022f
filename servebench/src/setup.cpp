#include "setup.hpp"

#include <sstream>

#include "attacks/cw_l2.hpp"
#include "core/detector_training.hpp"
#include "eval/sweep_grid.hpp"
#include "eval/timer.hpp"
#include "models/model_zoo.hpp"
#include "nn/serialize.hpp"
#include "serve/net/client.hpp"

namespace servebench {

using namespace dcn;

namespace {

constexpr std::size_t kClasses = 10;
// Sizes of the trained system, smaller than the paper-table benches' so that
// three set-ups fit one run. The detector and Tier-0 head each run their own
// CW-L2 pass over the same kAttackSources (the library's protocol).
constexpr std::size_t kTrainCount = 1000;
constexpr std::size_t kTestCount = 600;
constexpr std::size_t kEpochs = 4;
constexpr std::size_t kAttackSources = 2;
constexpr std::size_t kPoolSources = 6;    // adversarial pool, one target each
constexpr std::size_t kBenignOffset = 64;  // held-out benign images start here

// The light CW-L2 configuration the library's benches train with.
attacks::CwL2Config cw_config() {
  return {.kappa = eval::kTableCwKappa,
          .initial_c = 1e-1F,
          .binary_search_steps = 3,
          .max_iterations = 80,
          .learning_rate = 5e-2F,
          .abort_early = true};
}

void fnv(std::uint64_t& h, const void* data, std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
}

void fnv_tensors(std::uint64_t& h, const std::vector<Tensor>& tensors,
                 const std::vector<std::size_t>& labels) {
  for (const Tensor& t : tensors) {
    fnv(h, t.data().data(), t.size() * sizeof(float));
  }
  fnv(h, labels.data(), labels.size() * sizeof(std::size_t));
}

}  // namespace

Trained train_system() {
  Trained out;
  eval::Timer timer;
  models::WorkbenchConfig config{.train_count = kTrainCount,
                                 .test_count = kTestCount,
                                 .data_seed = 42,
                                 .init_seed = 1234,
                                 .recipe = {.epochs = kEpochs,
                                            .batch_size = 32,
                                            .learning_rate = 1e-3F,
                                            .temperature = 1.0F,
                                            .shuffle_seed = 7}};
  models::Workbench wb = models::make_mnist_workbench(config);
  out.clean_accuracy = wb.clean_accuracy;
  out.phases.workbench_s = timer.seconds();

  const data::Dataset sources = wb.test_set.take(kAttackSources);
  const data::Dataset benign_pool = wb.train_set.take(300);
  attacks::CwL2 cw(cw_config());

  timer.reset();
  core::Detector detector(kClasses);
  core::train_detector(detector, wb.model, cw, sources, &benign_pool);
  out.phases.detector_s = timer.seconds();

  timer.reset();
  core::LogitCorrector tier0(kClasses);
  tier0.train(core::build_correction_dataset(wb.model, cw, sources, kClasses,
                                             nullptr, &benign_pool));
  out.phases.tier0_s = timer.seconds();

  timer.reset();
  Pools& pools = out.pools;
  for (std::size_t i = kAttackSources;
       i < kBenignOffset && pools.adversarial.size() < kPoolSources; ++i) {
    const Tensor x = wb.test_set.example(i);
    const std::size_t truth = wb.test_set.labels[i];
    if (wb.model.classify(x) != truth) continue;
    const attacks::AttackResult r =
        cw.run_targeted(wb.model, x, (truth + 1) % kClasses);
    if (!r.success) continue;
    pools.adversarial.push_back(r.adversarial);
    pools.adversarial_labels.push_back(truth);
  }
  out.phases.adv_pool_s = timer.seconds();
  for (std::size_t i = kBenignOffset; i < wb.test_set.size(); ++i) {
    pools.benign.push_back(wb.test_set.example(i));
    pools.benign_labels.push_back(wb.test_set.labels[i]);
  }

  std::ostringstream weights, detector_state, tier0_state;
  nn::save_weights(wb.model, weights);
  detector.save(detector_state);
  tier0.save(tier0_state);
  out.state = {weights.str(), detector_state.str(), tier0_state.str()};
  return out;
}

std::uint64_t state_digest(const Trained& trained) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const std::string* s : {&trained.state.weights,
                               &trained.state.detector,
                               &trained.state.tier0}) {
    fnv(h, s->data(), s->size());
  }
  fnv_tensors(h, trained.pools.benign, trained.pools.benign_labels);
  fnv_tensors(h, trained.pools.adversarial, trained.pools.adversarial_labels);
  return h;
}

Replica::Replica() : detector(kClasses), tier0(kClasses) {}

std::unique_ptr<Replica> make_replica(const TrainedState& state) {
  auto replica = std::make_unique<Replica>();
  Rng init_rng(1234);  // the workbench init seed: same architecture
  replica->model = models::mnist_convnet(init_rng);
  std::istringstream weights(state.weights);
  nn::load_weights(replica->model, weights);
  std::istringstream detector_state(state.detector);
  replica->detector.load(detector_state);
  std::istringstream tier0_state(state.tier0);
  replica->tier0.load(tier0_state);
  replica->corrector = std::make_unique<core::Corrector>(
      replica->model,
      core::CorrectorConfig{.radius = 0.3F,
                            .samples = 50,
                            .mode = core::CorrectorMode::kEarlyExit});
  replica->dcn = std::make_unique<core::Dcn>(
      replica->model, replica->detector, *replica->corrector);
  replica->dcn->set_logit_corrector(&replica->tier0);
  replica->dcn->set_tier0_policy(core::Tier0Policy::kConfirm);
  return replica;
}

Deployment::Deployment(const TrainedState& state, std::size_t shards,
                       const serve::net::RouterConfig& config) {
  std::vector<core::Dcn*> dcns;
  for (std::size_t i = 0; i < shards; ++i) {
    replicas_.push_back(make_replica(state));
    dcns.push_back(replicas_.back()->dcn.get());
  }
  router_ = std::make_unique<serve::net::ShardRouter>(dcns, config);
  server_ = std::make_unique<serve::net::NetServer>(
      *router_, serve::net::NetServerConfig{.port = 0});
}

Deployment::~Deployment() {
  server_->stop();
  server_.reset();
  router_.reset();
}

void Deployment::wait_ready() {
  serve::net::DcnClient probe = serve::net::DcnClient::connect(port());
  probe.health();
}

}  // namespace servebench
