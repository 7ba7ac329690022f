// dcn_serve — the standalone DCN serving daemon (runbook:
// docs/OPERATIONS.md "Serving runbook"; wire protocol: docs/PROTOCOL.md).
//
// Serve mode (default): synthesize + train the MNIST workbench, train the
// detector and Tier-0 logit corrector, replicate the stack into N shards,
// and serve the DCN wire protocol on 127.0.0.1:<port> until SIGINT/SIGTERM.
// Prints "listening on port <N>" once ready (the smoke test and operators
// key off that line) and a metrics summary on clean shutdown.
//
// Probe mode (--probe PORT): act as a client against a running daemon —
// health check, one Predict, one PredictVerbose (checking the echoed trace
// context), one TraceQuery for that trace id (checking the DecisionRecord
// came back), one metrics scrape — and exit 0 iff every round-trip answers
// sanely. This is the loopback smoke test's client half
// (tools/serve_smoke.sh) and the "Tracing a request" runbook's probe step
// (docs/OPERATIONS.md).
//
// Scrape mode (--scrape PORT): fetch one raw Prometheus/OpenMetrics
// exposition over the Metrics frame and print it verbatim to stdout, so
// shell tooling (tools/promcheck.sh in the smoke test) can validate the
// exposition a real agent would ingest.

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/dcn.hpp"
#include "core/detector_training.hpp"
#include "core/logit_corrector.hpp"
#include "attacks/cw_l2.hpp"
#include "eval/timer.hpp"
#include "models/model_zoo.hpp"
#include "nn/serialize.hpp"
#include "obs/trace.hpp"
#include "serve/net/client.hpp"
#include "serve/net/net_server.hpp"

namespace {

std::atomic<int> g_signal{0};

void on_signal(int sig) { g_signal.store(sig); }

struct Options {
  std::uint16_t port = 0;
  std::size_t shards = 1;
  std::size_t max_batch = 8;
  std::uint64_t max_delay_us = 2000;
  std::size_t queue_watermark = 64;
  double ewma_threshold = 2.0;  // > 1 disables the corrector-burst trigger
  double ewma_alpha = 0.05;
  std::uint64_t ewma_warmup = 32;
  std::uint32_t retry_after_ms = 50;
  double baseline_rate = 0.0;  // expected detector-positive rate (drift base)
  std::size_t train = 600;
  std::size_t test = 120;
  std::size_t detector_sources = 8;
  std::uint32_t trace_sample = 16;  // keep 1 span in N (0 disables tracing)
  long probe = -1;                  // >= 0: probe mode against this port
  long scrape = -1;                 // >= 0: print one metrics scrape and exit
};

void usage() {
  std::printf(
      "usage: dcn_serve [options]\n"
      "  --port N             listen port (0 = ephemeral; default 0)\n"
      "  --shards N           model replicas behind the router (default 1)\n"
      "  --max-batch N        micro-batch flush-on-full size (default 8)\n"
      "  --max-delay-us N     micro-batch flush-on-timer bound (default 2000)\n"
      "  --queue-watermark N  shed above this total queued count (default 64)\n"
      "  --ewma-threshold X   shed above this corrector-activation EWMA\n"
      "                       (default 2.0 = disabled; enable with <= 1.0)\n"
      "  --ewma-alpha X       EWMA decay per completed request (default 0.05)\n"
      "  --ewma-warmup N      completions before the EWMA trigger arms\n"
      "  --retry-after-ms N   base Overloaded retry hint (default 50)\n"
      "  --baseline-rate X    expected detector-positive rate; the\n"
      "                       dcn_attack_positive_rate_drift gauge reports\n"
      "                       the admission EWMA minus this (default 0)\n"
      "  --train N / --test N workbench example counts (default 600/120)\n"
      "  --detector-sources N CW attack sources for detector+tier0 training\n"
      "  --trace-sample N     keep 1 span in N, ring buffered (default 16;\n"
      "                       0 disables tracing)\n"
      "  --probe PORT         client probe against a running daemon\n"
      "  --scrape PORT        print one raw metrics scrape to stdout and\n"
      "                       exit (feed it to tools/promcheck.sh)\n");
}

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "dcn_serve: %s needs a value\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    const char* v = nullptr;
    if (arg == "--help" || arg == "-h") {
      usage();
      std::exit(0);
    } else if (arg == "--port") {
      if ((v = next("--port")) == nullptr) return false;
      opt.port = static_cast<std::uint16_t>(std::stoul(v));
    } else if (arg == "--shards") {
      if ((v = next("--shards")) == nullptr) return false;
      opt.shards = std::stoul(v);
    } else if (arg == "--max-batch") {
      if ((v = next("--max-batch")) == nullptr) return false;
      opt.max_batch = std::stoul(v);
    } else if (arg == "--max-delay-us") {
      if ((v = next("--max-delay-us")) == nullptr) return false;
      opt.max_delay_us = std::stoull(v);
    } else if (arg == "--queue-watermark") {
      if ((v = next("--queue-watermark")) == nullptr) return false;
      opt.queue_watermark = std::stoul(v);
    } else if (arg == "--ewma-threshold") {
      if ((v = next("--ewma-threshold")) == nullptr) return false;
      opt.ewma_threshold = std::stod(v);
    } else if (arg == "--ewma-alpha") {
      if ((v = next("--ewma-alpha")) == nullptr) return false;
      opt.ewma_alpha = std::stod(v);
    } else if (arg == "--ewma-warmup") {
      if ((v = next("--ewma-warmup")) == nullptr) return false;
      opt.ewma_warmup = std::stoull(v);
    } else if (arg == "--retry-after-ms") {
      if ((v = next("--retry-after-ms")) == nullptr) return false;
      opt.retry_after_ms = static_cast<std::uint32_t>(std::stoul(v));
    } else if (arg == "--baseline-rate") {
      if ((v = next("--baseline-rate")) == nullptr) return false;
      opt.baseline_rate = std::stod(v);
    } else if (arg == "--train") {
      if ((v = next("--train")) == nullptr) return false;
      opt.train = std::stoul(v);
    } else if (arg == "--test") {
      if ((v = next("--test")) == nullptr) return false;
      opt.test = std::stoul(v);
    } else if (arg == "--detector-sources") {
      if ((v = next("--detector-sources")) == nullptr) return false;
      opt.detector_sources = std::stoul(v);
    } else if (arg == "--trace-sample") {
      if ((v = next("--trace-sample")) == nullptr) return false;
      opt.trace_sample = static_cast<std::uint32_t>(std::stoul(v));
    } else if (arg == "--probe") {
      if ((v = next("--probe")) == nullptr) return false;
      opt.probe = std::stol(v);
    } else if (arg == "--scrape") {
      if ((v = next("--scrape")) == nullptr) return false;
      opt.scrape = std::stol(v);
    } else {
      std::fprintf(stderr, "dcn_serve: unknown flag %s\n", arg.c_str());
      usage();
      return false;
    }
  }
  return true;
}

int run_probe(std::uint16_t port) {
  using namespace dcn;
  try {
    auto client = serve::net::DcnClient::connect(
        port, std::chrono::milliseconds(10000));

    const serve::net::HealthInfo health = client.health();
    if (health.state != 1) {
      std::fprintf(stderr, "probe: server not serving (state=%u)\n",
                   health.state);
      return 1;
    }
    std::printf("probe: health ok (version=%u shards=%u queue_depth=%u)\n",
                health.version, health.shards, health.queue_depth);

    const Tensor zeros(Shape{1, 28, 28});
    const std::size_t label = client.predict(zeros);
    const serve::net::ServeNetResult verbose = client.predict_verbose(zeros);
    if (verbose.result.label != label) {
      std::fprintf(stderr, "probe: verbose label %zu != predict label %zu\n",
                   verbose.result.label, label);
      return 1;
    }
    const obs::TraceContext sent = client.last_trace();
    if (verbose.trace.trace_hi != sent.trace_hi ||
        verbose.trace.trace_lo != sent.trace_lo) {
      std::fprintf(stderr,
                   "probe: verbose response did not echo the sent trace id\n");
      return 1;
    }
    std::printf(
        "probe: predict ok (label=%zu flagged=%d shard=%u batch=%zu "
        "total_us=%.0f trace=%s)\n",
        label, verbose.result.flagged_adversarial ? 1 : 0, verbose.shard,
        verbose.result.batch_size, verbose.result.total_us,
        obs::trace_id_hex(sent.trace_hi, sent.trace_lo).c_str());

    // Ask the daemon for this request's provenance: the DecisionRecord must
    // be retained and queryable by the trace id the probe minted.
    const std::string provenance =
        client.trace_query(sent.trace_hi, sent.trace_lo);
    const std::string sent_hex = obs::trace_id_hex(sent.trace_hi,
                                                   sent.trace_lo);
    if (provenance.find("\"decisionRecords\"") == std::string::npos ||
        provenance.find(sent_hex) == std::string::npos) {
      std::fprintf(stderr,
                   "probe: trace query missing the request's "
                   "decision record\n");
      return 1;
    }
    std::printf("probe: trace query ok (%zu bytes)\n", provenance.size());

    const std::string scrape = client.metrics();
    if (scrape.find("dcn_server_requests_submitted_total") ==
            std::string::npos ||
        scrape.find("# TYPE dcn_server_end_to_end_us histogram") ==
            std::string::npos ||
        scrape.find("dcn_attack_positive_rate") == std::string::npos) {
      std::fprintf(stderr, "probe: metrics scrape missing expected families\n");
      return 1;
    }
    std::printf("probe: metrics scrape ok (%zu bytes)\n", scrape.size());
    std::printf("probe: OK\n");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "probe: FAILED: %s\n", e.what());
    return 1;
  }
}

int run_scrape(std::uint16_t port) {
  using namespace dcn;
  try {
    auto client = serve::net::DcnClient::connect(
        port, std::chrono::milliseconds(10000));
    const std::string scrape = client.metrics();
    std::fwrite(scrape.data(), 1, scrape.size(), stdout);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "scrape: FAILED: %s\n", e.what());
    return 1;
  }
}

/// One shard's complete replica stack. The model is weight-copied from the
/// trained workbench model, the detector and Tier-0 head are state-copied,
/// and the corrector is fresh — every shard starts at RNG stream position 0,
/// so a request's answer does not depend on which shard serves it beyond
/// the shard's own traffic history (see DESIGN.md "Shard determinism").
struct ShardStack {
  dcn::nn::Sequential model;
  dcn::core::Detector detector;
  dcn::core::LogitCorrector tier0;
  std::unique_ptr<dcn::core::Corrector> corrector;
  std::unique_ptr<dcn::core::Dcn> dcn;

  ShardStack() : detector(10), tier0(10) {}
};

}  // namespace

int main(int argc, char** argv) {
  using namespace dcn;
  Options opt;
  if (!parse_args(argc, argv, opt)) return 2;
  if (opt.probe >= 0) {
    return run_probe(static_cast<std::uint16_t>(opt.probe));
  }
  if (opt.scrape >= 0) {
    return run_scrape(static_cast<std::uint16_t>(opt.scrape));
  }
  if (opt.shards == 0) opt.shards = 1;

  std::printf("dcn_serve: training workbench (train=%zu test=%zu)...\n",
              opt.train, opt.test);
  std::fflush(stdout);
  eval::Timer setup_timer;
  models::WorkbenchConfig wb_cfg;
  wb_cfg.train_count = opt.train;
  wb_cfg.test_count = opt.test;
  models::Workbench wb = models::make_mnist_workbench(wb_cfg);
  std::printf("dcn_serve: workbench ready (clean-accuracy=%.1f%%, %.1fs)\n",
              wb.clean_accuracy * 100.0, setup_timer.seconds());
  std::fflush(stdout);

  // Train the detector + Tier-0 head once on the workbench model, then
  // serialize for replication into the shards.
  attacks::CwL2Config cw_cfg;
  cw_cfg.binary_search_steps = 3;
  cw_cfg.max_iterations = 80;
  cw_cfg.learning_rate = 5e-2F;
  cw_cfg.abort_early = true;
  attacks::CwL2 cw(cw_cfg);
  core::Detector detector(10);
  core::train_detector(detector, wb.model, cw,
                       wb.test_set.take(opt.detector_sources));
  core::LogitCorrector tier0(10);
  {
    const data::Dataset dataset = core::build_correction_dataset(
        wb.model, cw, wb.test_set.take(opt.detector_sources), 10);
    tier0.train(dataset);
  }
  std::printf("dcn_serve: detector + tier0 trained (%.1fs total)\n",
              setup_timer.seconds());
  std::fflush(stdout);

  std::stringstream weights;
  nn::save_weights(wb.model, weights);
  std::stringstream detector_state;
  detector.save(detector_state);
  std::stringstream tier0_state;
  tier0.save(tier0_state);

  std::vector<std::unique_ptr<ShardStack>> stacks;
  std::vector<core::Dcn*> shard_ptrs;
  for (std::size_t i = 0; i < opt.shards; ++i) {
    auto stack = std::make_unique<ShardStack>();
    Rng init_rng(wb_cfg.init_seed);
    stack->model = models::mnist_convnet(init_rng);
    weights.clear();
    weights.seekg(0);
    nn::load_weights(stack->model, weights);
    detector_state.clear();
    detector_state.seekg(0);
    stack->detector.load(detector_state);
    tier0_state.clear();
    tier0_state.seekg(0);
    stack->tier0.load(tier0_state);
    core::CorrectorConfig corr_cfg;
    corr_cfg.radius = 0.3F;
    corr_cfg.mode = core::CorrectorMode::kEarlyExit;
    stack->corrector = std::make_unique<core::Corrector>(stack->model, corr_cfg);
    stack->dcn = std::make_unique<core::Dcn>(stack->model, stack->detector,
                                             *stack->corrector);
    stack->dcn->set_logit_corrector(&stack->tier0);
    stack->dcn->set_tier0_policy(core::Tier0Policy::kConfirm);
    shard_ptrs.push_back(stack->dcn.get());
    stacks.push_back(std::move(stack));
  }

  // Always-on sampled tracing with ring-buffer retention: long-running
  // daemons keep the newest window, exported live via the Trace frame.
  if (opt.trace_sample > 0) {
    obs::set_trace_buffer_policy(obs::TraceBufferPolicy::kRing);
    obs::set_trace_sampling(opt.trace_sample);
    obs::set_tracing_enabled(true);
  }

  serve::net::RouterConfig router_cfg;
  router_cfg.server.max_batch = opt.max_batch;
  router_cfg.server.max_delay_us = opt.max_delay_us;
  router_cfg.admission.queue_watermark = opt.queue_watermark;
  router_cfg.admission.corrector_ewma_threshold = opt.ewma_threshold;
  router_cfg.admission.ewma_alpha = opt.ewma_alpha;
  router_cfg.admission.ewma_warmup = opt.ewma_warmup;
  router_cfg.admission.retry_after_ms = opt.retry_after_ms;
  router_cfg.admission.baseline_positive_rate = opt.baseline_rate;
  serve::net::ShardRouter router(shard_ptrs, router_cfg);

  serve::net::NetServerConfig net_cfg;
  net_cfg.port = opt.port;
  serve::net::NetServer server(router, net_cfg);

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  std::printf(
      "dcn_serve: listening on port %u (shards=%zu max_batch=%zu "
      "watermark=%zu ewma_threshold=%.2f)\n",
      server.port(), opt.shards, opt.max_batch,
      opt.queue_watermark, opt.ewma_threshold);
  std::fflush(stdout);

  while (g_signal.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::printf("dcn_serve: signal %d, draining...\n", g_signal.load());
  std::fflush(stdout);
  server.stop();

  const serve::net::NetServer::Stats stats = server.stats();
  const serve::net::ShardRouter::AdmissionStats adm = router.admission_stats();
  std::printf(
      "dcn_serve: served %llu frames (%llu responses, %llu protocol errors), "
      "admitted %llu, shed %llu\n",
      static_cast<unsigned long long>(stats.frames_received),
      static_cast<unsigned long long>(stats.responses_sent),
      static_cast<unsigned long long>(stats.protocol_errors),
      static_cast<unsigned long long>(adm.admitted),
      static_cast<unsigned long long>(adm.shed_queue_depth +
                                      adm.shed_corrector_burst));
  std::printf("dcn_serve: clean shutdown\n");
  return 0;
}
