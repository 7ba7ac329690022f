// google-benchmark microbenchmarks for the per-call costs underlying
// Tables 3 and 6: one DNN forward pass, the detector MLP, the DCN corrector
// (m=50), full RC (m=1000), and one CW-L2 gradient iteration. These are the
// unit prices from which the tables' totals compose.
//
// Before the google-benchmark suite runs, main() measures the parallel
// runtime directly — matmul GFLOP/s and corrector samples/sec at thread
// counts {1, 2, max}, plus the seed's sequential single-example corrector
// loop as the speedup baseline — and writes BENCH_runtime.json. Its first
// row, `pool_dispatch`, is the handoff cost runtime::kMinChunkWork is sized
// against; the `served_forward` row is the per-layer ledger of the forward
// pass at the batch sizes serving runs, and `train_step` the same for one
// training step (train-mode forward and backward) at 1 and 32 rows.
#include <benchmark/benchmark.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <cctype>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "attacks/gradient.hpp"
#include "common.hpp"
#include "eval/bench_json.hpp"
#include "nn/layer.hpp"
#include "runtime/kernel_stats.hpp"
#include "runtime/thread_pool.hpp"
#include "tensor/conv.hpp"
#include "tensor/ops.hpp"
#include "tensor/simd/simd.hpp"

namespace {

using namespace dcn;

struct Env {
  models::Workbench wb;
  core::Detector detector;
  core::Corrector corrector;
  defenses::RegionClassifier rc;
  Tensor example;
  Tensor logits;

  Env()
      : wb(bench::make_workbench(true, 1000, 50)),
        detector(bench::make_detector(wb, 6, 200)),
        corrector(wb.model, {.radius = 0.3F, .samples = 50}),
        rc(wb.model,
           {.radius = 0.3F, .samples = 1000, .seed = 99, .clip_to_box = true}),
        example(wb.test_set.example(0)),
        logits(wb.model.logits(example)) {}

  static Env& instance() {
    static Env* e = new Env;
    return *e;
  }
};

void BM_DnnForward(benchmark::State& state) {
  Env& e = Env::instance();
  for (auto _ : state) {
    benchmark::DoNotOptimize(e.wb.model.classify(e.example));
  }
}
BENCHMARK(BM_DnnForward);

void BM_DnnForwardBackward(benchmark::State& state) {
  Env& e = Env::instance();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        attacks::loss_input_gradient(e.wb.model, e.example, 0));
  }
}
BENCHMARK(BM_DnnForwardBackward);

void BM_DetectorVerdict(benchmark::State& state) {
  Env& e = Env::instance();
  for (auto _ : state) {
    benchmark::DoNotOptimize(e.detector.is_adversarial(e.logits));
  }
}
BENCHMARK(BM_DetectorVerdict);

void BM_DcnBenignPath(benchmark::State& state) {
  Env& e = Env::instance();
  core::Dcn dcn(e.wb.model, e.detector, e.corrector);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dcn.classify(e.example));
  }
}
BENCHMARK(BM_DcnBenignPath);

void BM_CorrectorM50(benchmark::State& state) {
  Env& e = Env::instance();
  for (auto _ : state) {
    benchmark::DoNotOptimize(e.corrector.correct(e.example));
  }
}
BENCHMARK(BM_CorrectorM50);

void BM_RegionClassifierM1000(benchmark::State& state) {
  Env& e = Env::instance();
  for (auto _ : state) {
    benchmark::DoNotOptimize(e.rc.classify(e.example));
  }
}
BENCHMARK(BM_RegionClassifierM1000);

void BM_LogitJacobian(benchmark::State& state) {
  Env& e = Env::instance();
  for (auto _ : state) {
    benchmark::DoNotOptimize(attacks::logit_jacobian(e.wb.model, e.example));
  }
}
BENCHMARK(BM_LogitJacobian);

// ---- BENCH_runtime.json: the perf trajectory of the parallel runtime ------

/// Best-of-15 wall-clock seconds for one call of f. Minimum, not mean: on a
/// shared core the interesting number is the undisturbed run, and scheduler
/// noise only ever adds time.
template <typename F>
double timed(F&& f) {
  double best = 0.0;
  for (int rep = 0; rep < 15; ++rep) {
    eval::Timer t;
    f();
    const double s = t.seconds();
    if (rep == 0 || s < best) best = s;
  }
  return best;
}

/// CPU seconds on `clock`: CLOCK_PROCESS_CPUTIME_ID counts the caller and
/// every pool worker, CLOCK_THREAD_CPUTIME_ID the caller alone.
double cpu_s(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// First quartile, median and third quartile of `v` (nearest rank).
std::array<double, 3> quartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const auto at = [&](double q) {
    return v[static_cast<std::size_t>(q * static_cast<double>(v.size() - 1) +
                                      0.5)];
  };
  return {at(0.25), at(0.5), at(0.75)};
}

/// The cost of handing work to the pool: one empty-bodied 4-chunk
/// parallel_for at 4 threads against the same call run inline, per call.
/// A short sleep follows every call so the workers are asleep when the next
/// one dispatches, as they are between requests at serving rates. CPU counts
/// every thread of the process, so it includes the woken workers; the sleep
/// costs both modes the same. Repetitions give the spread.
eval::JsonObject measure_pool_dispatch() {
  constexpr std::size_t kThreads = 4, kChunks = 4, kReps = 9, kCalls = 200;
  runtime::set_thread_count(kThreads);
  eval::JsonObject row;
  row.set("threads", kThreads)
      .set("chunks", kChunks)
      .set("reps", kReps)
      .set("calls_per_rep", kCalls)
      .set("min_chunk_work", runtime::kMinChunkWork);
  // kMinChunkWork per index puts every index in its own chunk; one unit per
  // index keeps the whole range under kMinChunkWork, so it runs inline.
  for (const auto& [mode, work] :
       {std::pair<const char*, std::size_t>{"pool", runtime::kMinChunkWork},
        std::pair<const char*, std::size_t>{"inline", 1}}) {
    std::vector<double> cpu_us, wall_us;
    const std::uint64_t d0 = runtime::pool_stats().parallel_fors;
    for (std::size_t rep = 0; rep < kReps; ++rep) {
      double wall_s = 0.0;
      const double cpu0 = cpu_s(CLOCK_PROCESS_CPUTIME_ID);
      for (std::size_t call = 0; call < kCalls; ++call) {
        eval::Timer t;
        runtime::parallel_for(0, kChunks, work,
                              [](std::size_t, std::size_t) {});
        wall_s += t.seconds();
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
      cpu_us.push_back((cpu_s(CLOCK_PROCESS_CPUTIME_ID) - cpu0) * 1e6 /
                       kCalls);
      wall_us.push_back(wall_s * 1e6 / kCalls);
    }
    const std::uint64_t dispatched = runtime::pool_stats().parallel_fors - d0;
    const auto cpu = quartiles(cpu_us);
    const auto wall = quartiles(wall_us);
    const std::string m(mode);
    row.set(m + "_cpu_us", cpu[1])
        .set(m + "_cpu_us_q1", cpu[0])
        .set(m + "_cpu_us_q3", cpu[2])
        .set(m + "_wall_us", wall[1])
        .set(m + "_wall_us_q1", wall[0])
        .set(m + "_wall_us_q3", wall[2])
        .set(m + "_dispatches", static_cast<std::size_t>(dispatched));
    std::printf(
        "[runtime] pool_dispatch %-6s t=%zu chunks=%zu: cpu %.2f us "
        "[q1 %.2f, q3 %.2f]  wall %.2f us [q1 %.2f, q3 %.2f]  "
        "(%zu reps x %zu calls, %llu dispatched)\n",
        mode, kThreads, kChunks, cpu[1], cpu[0], cpu[2], wall[1], wall[0],
        wall[2], kReps, kCalls, static_cast<unsigned long long>(dispatched));
  }
  std::printf("[runtime] kMinChunkWork = %zu work units\n",
              runtime::kMinChunkWork);
  return row;
}

/// Repetitions behind every cpu_us_quartiles row.
constexpr std::size_t kLedgerReps = 9;

/// Quartiles of the per-call thread CPU microseconds of f: kLedgerReps
/// repetitions of `calls` calls each.
template <typename F>
std::array<double, 3> cpu_us_quartiles(F&& f, std::size_t calls) {
  std::vector<double> us;
  for (std::size_t rep = 0; rep < kLedgerReps; ++rep) {
    const double t0 = cpu_s(CLOCK_THREAD_CPUTIME_ID);
    for (std::size_t call = 0; call < calls; ++call) f();
    us.push_back((cpu_s(CLOCK_THREAD_CPUTIME_ID) - t0) * 1e6 /
                 static_cast<double>(calls));
  }
  return quartiles(std::move(us));
}

/// Sets `key` (the median) and `key_q1` / `key_q3` on row.
void set_quartiles(eval::JsonObject& row, const std::string& key,
                   const std::array<double, 3>& q) {
  row.set(key, q[1]).set(key + "_q1", q[0]).set(key + "_q3", q[2]);
}

/// Minor page faults and CPU per convolution call of a fresh (untrained)
/// mnist_convnet at 14 rows on one thread, measured before anything else
/// has shaped the allocator's state. At 14 rows the first convolution's
/// patch matrix (340 KB) and output (227 KB) sit above glibc's initial mmap
/// threshold; on the main thread the pages are returned and faulted back in
/// on every call — the churn an activation arena would remove.
eval::JsonObject measure_conv_page_faults() {
  constexpr std::size_t kRows = 14, kCalls = 100;
  runtime::set_thread_count(1);
  Rng rng(11);
  nn::Sequential model = models::mnist_convnet(rng);
  Tensor h = Tensor::uniform(Shape{kRows, 1, 28, 28}, rng);
  eval::JsonObject row;
  row.set("rows", kRows).set("threads", std::size_t{1}).set("calls", kCalls);
  for (std::size_t i = 0; i < model.layer_count(); ++i) {
    nn::Layer& layer = model.layer(i);
    if (layer.name() == "Conv2D") {
      rusage r0{}, r1{};
      getrusage(RUSAGE_SELF, &r0);
      const double t0 = cpu_s(CLOCK_THREAD_CPUTIME_ID);
      for (std::size_t call = 0; call < kCalls; ++call) {
        benchmark::DoNotOptimize(layer.forward(h, false));
      }
      const double us =
          (cpu_s(CLOCK_THREAD_CPUTIME_ID) - t0) * 1e6 / kCalls;
      getrusage(RUSAGE_SELF, &r1);
      const double faults =
          static_cast<double>(r1.ru_minflt - r0.ru_minflt) / kCalls;
      const std::string key = "L" + std::to_string(i) + "_conv2d_b14";
      row.set(key + "_minor_faults_per_call", faults)
          .set(key + "_cpu_us", us);
      std::printf("[runtime] conv_page_faults L%zu conv2d b14 t=1: %.1f "
                  "minor faults per call, %.1f us CPU\n", i, faults, us);
    }
    h = layer.forward(h, false);
  }
  runtime::set_thread_count(std::max(1U, std::thread::hardware_concurrency()));
  return row;
}

/// The served forward, layer by layer, on one thread: the CPU cost of each
/// mnist_convnet layer's inference forward at 1 and 2 rows (the sub-batches
/// Sequential::logits_batch cuts for serving) and 14 (the largest vote
/// chunk); the Dense matmul_a_bt at one row in GFLOP/s beside a 256^3
/// matmul_a_bt (the in-run peak); and the cost of one 784-pixel region
/// sample.
eval::JsonObject measure_served_forward(nn::Sequential& model,
                                        const Tensor& example) {
  runtime::set_thread_count(1);
  eval::JsonObject row;
  row.set("threads", std::size_t{1}).set("reps", kLedgerReps);
  for (const std::size_t m : {1UL, 2UL, 14UL}) {
    Tensor h(Shape{m, 1, 28, 28});
    for (std::size_t r = 0; r < m; ++r) {
      std::copy(example.data().begin(), example.data().end(),
                h.data().begin() +
                    static_cast<std::ptrdiff_t>(r * example.size()));
    }
    const std::size_t calls = m == 14 ? 40 : 200;
    double total_us = 0.0;
    for (std::size_t i = 0; i < model.layer_count(); ++i) {
      nn::Layer& layer = model.layer(i);
      std::string kind = layer.name();
      for (char& c : kind) c = static_cast<char>(std::tolower(c));
      const std::string key =
          "L" + std::to_string(i) + "_" + kind + "_us_b" + std::to_string(m);
      const auto q = cpu_us_quartiles(
          [&] { benchmark::DoNotOptimize(layer.forward(h, false)); }, calls);
      set_quartiles(row, key, q);
      total_us += q[1];
      h = layer.forward(h, false);
    }
    row.set("layers_us_b" + std::to_string(m), total_us);
    std::printf("[runtime] served_forward b%zu: %.1f us CPU summed over "
                "layers\n", m, total_us);
  }
  {
    Rng rng(7);
    const Tensor x = Tensor::uniform(Shape{1, 300}, rng, -1.0F, 1.0F);
    const Tensor w = Tensor::uniform(Shape{64, 300}, rng, -1.0F, 1.0F);
    const auto q = cpu_us_quartiles(
        [&] { benchmark::DoNotOptimize(ops::matmul_a_bt(x, w)); }, 500);
    const double dense_gflops = 2.0 * 64 * 300 / q[1] / 1e3;
    constexpr std::size_t kPeak = 256;
    const Tensor a = Tensor::uniform(Shape{kPeak, kPeak}, rng, -1.0F, 1.0F);
    const Tensor b = Tensor::uniform(Shape{kPeak, kPeak}, rng, -1.0F, 1.0F);
    const auto qp = cpu_us_quartiles(
        [&] { benchmark::DoNotOptimize(ops::matmul_a_bt(a, b)); }, 5);
    const double peak_gflops = 2.0 * kPeak * kPeak * kPeak / qp[1] / 1e3;
    set_quartiles(row, "dense_b1_us", q);
    row.set("dense_b1_gflops", dense_gflops)
        .set("peak_gflops", peak_gflops)
        .set("dense_b1_share_of_peak", dense_gflops / peak_gflops);
    std::printf("[runtime] served_forward dense 1x64x300: %.2f us "
                "[q1 %.2f, q3 %.2f] = %.2f GFLOP/s vs %.2f GFLOP/s peak "
                "(256^3 matmul_a_bt)\n",
                q[1], q[0], q[2], dense_gflops, peak_gflops);
  }
  {
    constexpr std::size_t kSamples = 14;
    Rng rng(4242);
    const auto q = cpu_us_quartiles(
        [&] {
          benchmark::DoNotOptimize(core::sample_region_batch(
              example, kSamples, 0.3F, rng, /*clip_to_box=*/true));
        },
        100);
    const std::array<double, 3> per_sample{q[0] / kSamples, q[1] / kSamples,
                                           q[2] / kSamples};
    set_quartiles(row, "region_sample_us", per_sample);
    std::printf("[runtime] served_forward region sample (784 px): %.3f us "
                "[q1 %.3f, q3 %.3f]\n",
                per_sample[1], per_sample[0], per_sample[2]);
  }
  runtime::set_thread_count(std::max(1U, std::thread::hardware_concurrency()));
  return row;
}

/// The training step, layer by layer, on one thread: the CPU cost of each
/// mnist_convnet layer's train-mode forward and backward at 1 row (one
/// CW-L2 iteration) and 32 rows (the training batch), beside the same
/// layer's inference forward in the same run. The backward is fed a fixed
/// uniform gradient at the logits; the parameter gradients it accumulates
/// are cleared afterwards.
eval::JsonObject measure_train_step(nn::Sequential& model,
                                    const Tensor& example) {
  runtime::set_thread_count(1);
  eval::JsonObject row;
  row.set("threads", std::size_t{1}).set("reps", kLedgerReps);
  for (const std::size_t m : {1UL, 32UL}) {
    Tensor h(Shape{m, 1, 28, 28});
    for (std::size_t r = 0; r < m; ++r) {
      std::copy(example.data().begin(), example.data().end(),
                h.data().begin() +
                    static_cast<std::ptrdiff_t>(r * example.size()));
    }
    const std::size_t calls = m == 32 ? 10 : 200;
    const std::string b = "_us_b" + std::to_string(m);
    std::vector<std::string> keys;
    std::vector<double> layer_fwd_us, layer_train_fwd_us;
    double fwd_us = 0.0, train_fwd_us = 0.0, bwd_us = 0.0;
    for (std::size_t i = 0; i < model.layer_count(); ++i) {
      nn::Layer& layer = model.layer(i);
      std::string kind = layer.name();
      for (char& c : kind) c = static_cast<char>(std::tolower(c));
      keys.push_back("L" + std::to_string(i) + "_" + kind);
      const auto qf = cpu_us_quartiles(
          [&] { benchmark::DoNotOptimize(layer.forward(h, false)); }, calls);
      const auto qt = cpu_us_quartiles(
          [&] { benchmark::DoNotOptimize(layer.forward(h, true)); }, calls);
      set_quartiles(row, keys.back() + "_fwd" + b, qf);
      set_quartiles(row, keys.back() + "_train_fwd" + b, qt);
      layer_fwd_us.push_back(qf[1]);
      layer_train_fwd_us.push_back(qt[1]);
      fwd_us += qf[1];
      train_fwd_us += qt[1];
      h = layer.forward(h, true);
    }
    Rng rng(13);
    Tensor g = Tensor::uniform(h.shape(), rng, -1.0F, 1.0F);
    for (std::size_t i = model.layer_count(); i-- > 0;) {
      nn::Layer& layer = model.layer(i);
      const auto qb = cpu_us_quartiles(
          [&] { benchmark::DoNotOptimize(layer.backward(g)); }, calls);
      set_quartiles(row, keys[i] + "_bwd" + b, qb);
      bwd_us += qb[1];
      if (keys[i].ends_with("conv2d")) {
        std::printf("[runtime] train_step %s b%zu: forward %.1f us, train "
                    "forward %.1f us, backward %.1f us [q1 %.1f, q3 %.1f]\n",
                    keys[i].c_str(), m, layer_fwd_us[i],
                    layer_train_fwd_us[i], qb[1], qb[0], qb[2]);
      }
      g = layer.backward(g);
    }
    row.set("layers_fwd" + b, fwd_us)
        .set("layers_train_fwd" + b, train_fwd_us)
        .set("layers_bwd" + b, bwd_us);
    std::printf("[runtime] train_step b%zu: %.1f us inference forward, %.1f "
                "us train forward, %.1f us backward (CPU summed over "
                "layers)\n",
                m, fwd_us, train_fwd_us, bwd_us);
  }
  model.zero_grad();
  runtime::set_thread_count(std::max(1U, std::thread::hardware_concurrency()));
  return row;
}

// Frozen copies of the seed's kernels (pre-runtime rewrite). The live code
// paths keep getting faster, so the speedup the runtime layer buys can only
// be measured against an implementation that stands still; these reproduce
// the seed's loops verbatim and drive the MNIST convnet through them using
// the trained model's own parameters.
namespace seed_ref {

Tensor matmul_a_bt(const Tensor& a, const Tensor& b) {
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  Tensor c(Shape{m, n});
  const float* pa = a.data().data();
  const float* pb = b.data().data();
  float* pc = c.data().data();
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = pa + i * k;
    for (std::size_t j = 0; j < n; ++j) {
      const float* brow = pb + j * k;
      double acc = 0.0;
      for (std::size_t p = 0; p < k; ++p) {
        acc += static_cast<double>(arow[p]) * brow[p];
      }
      pc[i * n + j] = static_cast<float>(acc);
    }
  }
  return c;
}

Tensor im2col_seed(const Tensor& image, const conv::Conv2DSpec& spec) {
  const std::size_t oh = spec.out_height(), ow = spec.out_width();
  const std::size_t patch = spec.in_channels * spec.kernel * spec.kernel;
  Tensor cols(Shape{oh * ow, patch});
  const float* src = image.data().data();
  float* dst = cols.data().data();
  const std::size_t hw = spec.in_height * spec.in_width;
  for (std::size_t oy = 0; oy < oh; ++oy) {
    for (std::size_t ox = 0; ox < ow; ++ox) {
      float* prow = dst + (oy * ow + ox) * patch;
      std::size_t idx = 0;
      for (std::size_t c = 0; c < spec.in_channels; ++c) {
        for (std::size_t ky = 0; ky < spec.kernel; ++ky) {
          const std::ptrdiff_t iy =
              static_cast<std::ptrdiff_t>(oy * spec.stride + ky) -
              static_cast<std::ptrdiff_t>(spec.padding);
          for (std::size_t kx = 0; kx < spec.kernel; ++kx, ++idx) {
            const std::ptrdiff_t ix =
                static_cast<std::ptrdiff_t>(ox * spec.stride + kx) -
                static_cast<std::ptrdiff_t>(spec.padding);
            if (iy < 0 || ix < 0 ||
                iy >= static_cast<std::ptrdiff_t>(spec.in_height) ||
                ix >= static_cast<std::ptrdiff_t>(spec.in_width)) {
              prow[idx] = 0.0F;
            } else {
              prow[idx] = src[c * hw +
                              static_cast<std::size_t>(iy) * spec.in_width +
                              static_cast<std::size_t>(ix)];
            }
          }
        }
      }
    }
  }
  return cols;
}

Tensor conv_forward(const Tensor& image, const Tensor& weights,
                    const Tensor& bias, const conv::Conv2DSpec& spec) {
  const std::size_t oh = spec.out_height(), ow = spec.out_width();
  const std::size_t out_c = weights.dim(0);
  const Tensor cols = im2col_seed(image, spec);
  const Tensor prod = matmul_a_bt(cols, weights);
  Tensor out(Shape{out_c, oh, ow});
  for (std::size_t p = 0; p < oh * ow; ++p) {
    for (std::size_t c = 0; c < out_c; ++c) {
      out[c * oh * ow + p] = prod(p, c) + bias[c];
    }
  }
  return out;
}

Tensor dense_forward(const Tensor& x, const Tensor& weights,
                     const Tensor& bias) {
  Tensor out = matmul_a_bt(x, weights);
  for (std::size_t j = 0; j < out.dim(1); ++j) out(0, j) += bias[j];
  return out;
}

Tensor relu(const Tensor& x) {
  return x.map([](float v) { return v > 0.0F ? v : 0.0F; });
}

/// The seed's forward pass for models::mnist_convnet, parameters borrowed
/// from the trained model. Max pooling is pure data movement and unchanged
/// since the seed, so it is reused directly.
std::size_t classify_mnist(const std::vector<nn::Param>& ps, const Tensor& x) {
  const conv::Conv2DSpec c1{.in_channels = 1,
                            .in_height = 28,
                            .in_width = 28,
                            .kernel = 3,
                            .stride = 1,
                            .padding = 0};
  const conv::Conv2DSpec c2{.in_channels = 6,
                            .in_height = 13,
                            .in_width = 13,
                            .kernel = 3,
                            .stride = 1,
                            .padding = 0};
  Tensor h = conv_forward(x, *ps[0].value, *ps[1].value, c1);
  h = conv::maxpool2d_forward(relu(h), 2).output;
  h = conv_forward(h, *ps[2].value, *ps[3].value, c2);
  h = conv::maxpool2d_forward(relu(h), 2).output;
  h = h.reshape(Shape{1, h.size()});
  h = relu(dense_forward(h, *ps[4].value, *ps[5].value));
  h = dense_forward(h, *ps[6].value, *ps[7].value);
  return h.row(0).argmax();
}

}  // namespace seed_ref

/// The seed's corrector inner loop — m sequential single-example forward
/// passes with one shared RNG — run through `classify`, which picks the
/// kernels. The frozen seed kernels give the speedup baseline; the live
/// `model.classify` variant isolates how much of the win is batching alone.
std::size_t corrector_sequential_loop(
    const Tensor& x, std::size_t m, float radius,
    const std::function<std::size_t(const Tensor&)>& classify) {
  Rng rng(4242);
  Tensor sample(x.shape());
  std::vector<std::size_t> votes(10, 0);
  for (std::size_t s = 0; s < m; ++s) {
    for (std::size_t i = 0; i < x.size(); ++i) {
      const float v =
          x[i] + static_cast<float>(rng.uniform(-radius, radius));
      sample[i] = std::clamp(v, data::kPixelMin, data::kPixelMax);
    }
    ++votes[classify(sample)];
  }
  return static_cast<std::size_t>(
      std::max_element(votes.begin(), votes.end()) - votes.begin());
}

void write_runtime_json() {
  eval::JsonObject conv_faults = measure_conv_page_faults();
  Env& e = Env::instance();
  const std::size_t hw = std::max(1U, std::thread::hardware_concurrency());
  std::vector<std::size_t> thread_counts{1, 2, hw};
  std::sort(thread_counts.begin(), thread_counts.end());
  thread_counts.erase(std::unique(thread_counts.begin(), thread_counts.end()),
                      thread_counts.end());

  eval::JsonObject json;
  json.set("bench", "runtime")
      .set("hardware_concurrency", hw)
      .set("default_threads", runtime::thread_count())
      .set("simd_dispatch", std::string(simd::active_path_name()))
      .set("simd_avx2_compiled", simd::avx2_compiled())
      .set("simd_avx2_cpu", simd::avx2_runtime_supported());

  json.set("pool_dispatch", measure_pool_dispatch());
  json.set("conv_page_faults", conv_faults);
  json.set("served_forward", measure_served_forward(e.wb.model, e.example));
  json.set("train_step", measure_train_step(e.wb.model, e.example));

  // Matmul GFLOP/s: a square GEMM large enough to dwarf dispatch overhead,
  // measured per dispatch path so the microkernel win is a number in the
  // JSON, not an anecdote. The active-path figures keep their historical
  // `gflops_t<k>` keys; explicit paths get `gflops_<path>_t<k>`.
  {
    const std::size_t n = 384;
    Rng rng(5);
    const Tensor a = Tensor::uniform(Shape{n, n}, rng, -1.0F, 1.0F);
    const Tensor b = Tensor::uniform(Shape{n, n}, rng, -1.0F, 1.0F);
    const double flops = 2.0 * static_cast<double>(n) * n * n;
    eval::JsonObject mm;
    mm.set("m", n).set("k", n).set("n", n);
    for (std::size_t t : thread_counts) {
      runtime::set_thread_count(t);
      const double s = timed([&] { (void)ops::matmul(a, b); });
      mm.set("gflops_t" + std::to_string(t), flops / s / 1e9);
      std::printf("[runtime] matmul %zux%zu t=%zu: %.2f GFLOP/s\n", n, n, t,
                  flops / s / 1e9);
    }
    const simd::GemmPath active = simd::active_path();
    for (const auto path : simd::available_paths()) {
      simd::force_path(path);
      for (std::size_t t : thread_counts) {
        runtime::set_thread_count(t);
        const double s = timed([&] { (void)ops::matmul(a, b); });
        const std::string key = std::string("gflops_") +
                                simd::path_name(path) + "_t" +
                                std::to_string(t);
        mm.set(key, flops / s / 1e9);
        std::printf("[runtime] matmul %zux%zu path=%s t=%zu: %.2f GFLOP/s\n",
                    n, n, simd::path_name(path), t, flops / s / 1e9);
      }
    }
    simd::force_path(active);
    json.set("matmul", mm);
  }

  // Conv GFLOP/s per dispatch path: the batched convnet stem shape (a
  // realistic patch GEMM, not a square one).
  {
    const conv::Conv2DSpec spec{.in_channels = 6,
                                .in_height = 13,
                                .in_width = 13,
                                .kernel = 3,
                                .stride = 1,
                                .padding = 0};
    const std::size_t images = 64;
    const std::size_t out_c = 16;
    const std::size_t patch = spec.in_channels * spec.kernel * spec.kernel;
    Rng rng(6);
    const Tensor batch = Tensor::uniform(
        Shape{images, spec.in_channels, spec.in_height, spec.in_width}, rng);
    const Tensor weights =
        Tensor::uniform(Shape{out_c, patch}, rng, -0.5F, 0.5F);
    const Tensor cbias = Tensor::uniform(Shape{out_c}, rng, -0.1F, 0.1F);
    const double flops = 2.0 * static_cast<double>(images) *
                         spec.out_height() * spec.out_width() * out_c * patch;
    eval::JsonObject cv;
    cv.set("images", images)
        .set("out_channels", out_c)
        .set("patch", patch);
    const simd::GemmPath active = simd::active_path();
    for (const auto path : simd::available_paths()) {
      simd::force_path(path);
      for (std::size_t t : thread_counts) {
        runtime::set_thread_count(t);
        const double s = timed(
            [&] { (void)conv::conv2d_forward_batch(batch, weights, cbias,
                                                   spec); });
        cv.set(std::string("gflops_") + simd::path_name(path) + "_t" +
                   std::to_string(t),
               flops / s / 1e9);
        std::printf("[runtime] conv batch=%zu path=%s t=%zu: %.2f GFLOP/s\n",
                    images, simd::path_name(path), t, flops / s / 1e9);
      }
    }
    simd::force_path(active);
    json.set("conv", cv);
  }

  // Corrector: the seed's sequential loop (frozen seed kernels) vs the same
  // loop on today's kernels vs the batched parallel path.
  {
    const std::size_t m = e.corrector.config().samples;
    const auto params = e.wb.model.params();
    const std::size_t live = e.wb.model.classify(e.example);
    const std::size_t frozen = seed_ref::classify_mnist(params, e.example);
    if (live != frozen) {
      std::printf("[runtime] WARNING: frozen seed forward disagrees with the "
                  "live model (%zu vs %zu)\n", frozen, live);
    }
    eval::JsonObject corr;
    corr.set("samples", m).set("radius", 0.3);
    runtime::set_thread_count(1);
    const double base_s = timed([&] {
      benchmark::DoNotOptimize(corrector_sequential_loop(
          e.example, m, 0.3F,
          [&](const Tensor& s) { return seed_ref::classify_mnist(params, s); }));
    });
    const double live_loop_s = timed([&] {
      benchmark::DoNotOptimize(corrector_sequential_loop(
          e.example, m, 0.3F,
          [&](const Tensor& s) { return e.wb.model.classify(s); }));
    });
    corr.set("seed_single_example_loop_s", base_s)
        .set("seed_samples_per_sec", static_cast<double>(m) / base_s)
        .set("current_kernels_loop_s", live_loop_s)
        .set("kernel_only_speedup", base_s / live_loop_s);
    std::printf("[runtime] corrector seed baseline (frozen kernels): %.4fs "
                "(%.0f samples/s)\n",
                base_s, static_cast<double>(m) / base_s);
    std::printf("[runtime] corrector sequential loop, current kernels: %.4fs "
                "(%.2fx vs seed)\n",
                live_loop_s, base_s / live_loop_s);
    for (std::size_t t : thread_counts) {
      runtime::set_thread_count(t);
      const double s =
          timed([&] { benchmark::DoNotOptimize(e.corrector.correct(e.example)); });
      corr.set("batched_t" + std::to_string(t) + "_s", s)
          .set("samples_per_sec_t" + std::to_string(t),
               static_cast<double>(m) / s)
          .set("speedup_t" + std::to_string(t) + "_vs_seed", base_s / s);
      std::printf(
          "[runtime] corrector batched t=%zu: %.4fs (%.0f samples/s, %.2fx "
          "vs seed)\n",
          t, s, static_cast<double>(m) / s, base_s / s);
    }
    json.set("corrector", corr);
  }

  // RC m=1000 (the paper's heavy path) on the batched pipeline.
  {
    eval::JsonObject rcj;
    rcj.set("samples", std::size_t{1000});
    for (std::size_t t : thread_counts) {
      runtime::set_thread_count(t);
      const double s =
          timed([&] { benchmark::DoNotOptimize(e.rc.classify(e.example)); });
      rcj.set("batched_t" + std::to_string(t) + "_s", s);
      std::printf("[runtime] RC m=1000 batched t=%zu: %.4fs\n", t, s);
    }
    json.set("region_classifier", rcj);
  }

  // Corrector fast path (DESIGN.md "Corrector fast path"): the full m=50
  // vote vs deterministic early exit vs the tiered Tier-0-hinted path, on a
  // pool of CW-L2 adversarial examples — the inputs a deployed DCN actually
  // pays the corrector for. All variants run through the joint vote_many
  // engine the Dcn predict path uses (the full mode degenerates to the
  // seed-exact sequential loop); the fast variants use the microbench-tuned
  // schedule 6+6+12+12+14 with stop_delta 0.3. Latency is the best-of-5
  // sweep over the pool; samples-per-flag, tier hit rate, and recovery come
  // from the (identical across reps) deterministic resolutions.
  {
    runtime::set_thread_count(std::max<std::size_t>(1, hw));
    core::LogitCorrector tier0 = bench::make_logit_corrector(
        e.wb, 20, 300, {.epochs = 240, .gate_margin = 1.5F});
    attacks::CwL2 cw(bench::light_cw_config());
    std::vector<Tensor> pool;
    std::vector<Tensor> pool_logits;
    std::vector<std::size_t> truths;
    for (std::size_t idx : bench::correct_indices(e.wb, 70, 20)) {
      if (pool.size() >= 62) break;
      const Tensor x = e.wb.test_set.example(idx);
      const std::size_t truth = e.wb.test_set.labels[idx];
      const attacks::AttackResult r =
          cw.run_targeted(e.wb.model, x, (truth + 1) % 10);
      if (!r.success) continue;
      pool.push_back(r.adversarial);
      pool_logits.push_back(e.wb.model.logits(r.adversarial));
      truths.push_back(truth);
    }
    std::printf("[runtime] fast path pool: %zu adversarial examples\n",
                pool.size());
    std::vector<const Tensor*> pool_ptrs;
    for (const Tensor& x : pool) pool_ptrs.push_back(&x);

    eval::JsonObject fp;
    fp.set("pool", pool.size()).set("samples_budget", std::size_t{50});
    double mean_full = 0.0, mean_early = 0.0, mean_tiered = 0.0;
    double rec_full = 0.0, rec_early = 0.0, rec_tiered = 0.0;
    const auto sweep = [&](core::CorrectorMode mode, bool tiered,
                           const char* name, double& mean_s_out,
                           double& recovery_out) {
      core::CorrectorConfig cc{.radius = 0.3F,
                               .samples = 50,
                               .mode = mode,
                               .schedule = {6, 6, 12, 12, 14},
                               .stop_delta = 0.3};
      double best_s = 0.0;
      std::size_t samples_used = 0, tier0_hits = 0, recovered = 0;
      for (int rep = 0; rep < 5; ++rep) {
        core::Corrector corrector(e.wb.model, cc);
        std::size_t rep_samples = 0, rep_hits = 0, rep_recovered = 0;
        eval::Timer t;
        // Tier-0 proposal cost (a 10-d residual MLP forward per flag) is
        // part of the tiered latency, so propose inside the timed region.
        std::vector<long> hints(pool.size(), -1);
        if (tiered) {
          for (std::size_t i = 0; i < pool.size(); ++i) {
            hints[i] = tier0.propose(pool_logits[i]).hint();
          }
        }
        const std::vector<core::VoteOutcome> outcomes =
            corrector.vote_many(pool_ptrs, hints);
        const double s = t.seconds();
        for (std::size_t i = 0; i < outcomes.size(); ++i) {
          rep_samples += outcomes[i].samples_used;
          if (outcomes[i].hint_confirmed) ++rep_hits;
          if (outcomes[i].winner() == truths[i]) ++rep_recovered;
        }
        if (rep == 0 || s < best_s) best_s = s;
        samples_used = rep_samples;
        tier0_hits = rep_hits;
        recovered = rep_recovered;
      }
      const double n = static_cast<double>(pool.size());
      const double mean_s = pool.empty() ? 0.0 : best_s / n;
      const double samples_per_flag =
          pool.empty() ? 0.0 : static_cast<double>(samples_used) / n;
      const double hit_rate =
          pool.empty() ? 0.0 : static_cast<double>(tier0_hits) / n;
      const double recovery =
          pool.empty() ? 0.0 : static_cast<double>(recovered) / n;
      eval::JsonObject variant;
      variant.set("mean_latency_s", mean_s)
          .set("samples_per_flag", samples_per_flag)
          .set("tier0_hit_rate", hit_rate)
          .set("recovery_rate", recovery);
      fp.set(name, variant);
      std::printf(
          "[runtime] fast path %-10s mean=%.5fs samples/flag=%.1f "
          "tier0=%.0f%% recovery=%.0f%%\n",
          name, mean_s, samples_per_flag, hit_rate * 100.0, recovery * 100.0);
      mean_s_out = mean_s;
      recovery_out = recovery;
    };
    sweep(core::CorrectorMode::kFull, false, "full", mean_full, rec_full);
    sweep(core::CorrectorMode::kEarlyExit, false, "early_exit", mean_early,
          rec_early);
    sweep(core::CorrectorMode::kEarlyExit, true, "tiered", mean_tiered,
          rec_tiered);
    if (mean_early > 0.0) fp.set("speedup_early_exit", mean_full / mean_early);
    if (mean_tiered > 0.0) fp.set("speedup_tiered", mean_full / mean_tiered);
    fp.set("recovery_delta_early_exit", rec_early - rec_full)
        .set("recovery_delta_tiered", rec_tiered - rec_full);
    json.set("corrector_fast_path", fp);
  }

  runtime::set_thread_count(std::max<std::size_t>(1, hw));
  // Kernel counters + dispatch decision for the measurements above (the
  // simd_dispatch / *_simd_calls fields land inside runtime_attribution).
  bench::attach_runtime_attribution(json);
  eval::write_json_file("BENCH_runtime.json", json);
  std::printf("[runtime] wrote BENCH_runtime.json\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  write_runtime_json();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
