#include "layers.hpp"

#include <algorithm>
#include <cctype>
#include <future>

#include "nn/conv2d.hpp"
#include "serve/net/client.hpp"
#include "serve/server.hpp"
#include "stats.hpp"
#include "tensor/conv.hpp"
#include "tensor/ops.hpp"
#include "tensor/random.hpp"

namespace servebench {

using namespace dcn;

namespace {

// Requests replayed per workload, and repetitions of the kernel probes.
constexpr std::size_t kReplayRequests = 512;
constexpr std::size_t kGemmReps = 2000;
constexpr std::size_t kConvReps = 400;
constexpr std::size_t kPeakReps = 10;
constexpr std::size_t kPeakDim = 256;

std::string layer_span(nn::Sequential& model, std::size_t i) {
  std::string kind = model.layer(i).name();
  for (char& c : kind) c = static_cast<char>(std::tolower(c));
  return "nn.L" + std::to_string(i) + "_" + kind;
}

std::vector<double> durations_us(const std::vector<Span>& spans,
                                 const std::string& name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (s.name == name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    }
  }
  return out;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

Tensor stack_range(const std::vector<const Tensor*>& inputs, std::size_t begin,
                   std::size_t end) {
  std::vector<Tensor> rows;
  for (std::size_t i = begin; i < end; ++i) rows.push_back(*inputs[i]);
  return Tensor::stack(rows);
}

/// Batches of `b` consecutive replay inputs (the tail batch may be short).
template <typename F>
void for_batches(const std::vector<const Tensor*>& inputs, std::size_t b,
                 F&& f) {
  for (std::size_t begin = 0; begin < inputs.size(); begin += b) {
    const std::size_t end = std::min(inputs.size(), begin + b);
    f(begin, stack_range(inputs, begin, end));
  }
}

std::vector<nn::Conv2D*> conv_layers(nn::Sequential& model) {
  std::vector<nn::Conv2D*> out;
  for (std::size_t i = 0; i < model.layer_count(); ++i) {
    if (auto* c = dynamic_cast<nn::Conv2D*>(&model.layer(i))) out.push_back(c);
  }
  return out;
}

}  // namespace

LayerReplay replay_layers(const Trained& trained, const Workload& workload,
                          std::uint64_t seed) {
  LayerReplay out;
  auto& m = out.metrics;
  SpanRecorder& rec = out.spans;
  using Scope = SpanRecorder::Scope;

  const std::vector<Request> requests =
      make_requests(workload, trained.pools, seed, 0, kReplayRequests);
  std::vector<const Tensor*> inputs;
  for (const Request& r : requests) {
    inputs.push_back(&input_of(trained.pools, r));
  }
  const double rows = static_cast<double>(inputs.size());

  // ---- The DCN decision rebuilt from its parts, at the workload's batch --
  auto parts = make_replica(trained.state);
  auto reference = make_replica(trained.state);
  nn::Sequential& model = parts->model;
  std::vector<std::string> layer_names;
  for (std::size_t i = 0; i < model.layer_count(); ++i) {
    layer_names.push_back(layer_span(model, i));
  }
  std::size_t flagged = 0, samples = 0, confirms = 0;
  for_batches(inputs, workload.replay_batch, [&](std::size_t id,
                                                 const Tensor& batch) {
    const std::size_t n = batch.dim(0);
    std::vector<std::size_t> labels(n);
    std::vector<bool> flags(n, false);
    {
      Scope root(rec, "core.dcn", id);
      Tensor logits = batch;
      {
        Scope forward(rec, "nn.forward", id);
        for (std::size_t i = 0; i < model.layer_count(); ++i) {
          Scope layer(rec, layer_names[i], id);
          logits = model.layer(i).forward(logits, /*train=*/false);
        }
      }
      std::vector<Tensor> vote_inputs;
      std::vector<std::size_t> vote_rows;
      std::vector<long> hints;
      for (std::size_t i = 0; i < n; ++i) {
        const Tensor row = logits.row(i);
        labels[i] = row.argmax();
        double margin = 0.0;
        {
          Scope detector(rec, "core.detector", id + i);
          margin = parts->detector.margin(row);
        }
        if (margin <= 0.0) continue;
        flags[i] = true;
        long hint = -1;
        {
          Scope tier0(rec, "core.tier0", id + i);
          hint = parts->tier0.propose(row).hint();
        }
        vote_inputs.push_back(batch.row(i));
        vote_rows.push_back(i);
        hints.push_back(hint);
      }
      if (!vote_rows.empty()) {
        Scope vote(rec, "core.vote", id);
        std::vector<const Tensor*> ptrs;
        for (const Tensor& x : vote_inputs) ptrs.push_back(&x);
        const std::vector<core::VoteOutcome> outcomes =
            parts->corrector->vote_many(ptrs, hints);
        for (std::size_t j = 0; j < outcomes.size(); ++j) {
          labels[vote_rows[j]] = outcomes[j].winner();
          samples += outcomes[j].samples_used;
          confirms += outcomes[j].hint_confirmed ? 1 : 0;
        }
      }
      flagged += vote_rows.size();
    }
    const std::vector<core::Dcn::Decision> want =
        reference->dcn->predict_verbose(batch);
    for (std::size_t i = 0; i < n; ++i) {
      if (want[i].label != labels[i] ||
          want[i].flagged_adversarial != flags[i]) {
        out.decomposition_matches = false;
      }
    }
  });

  std::map<std::string, SpanTotals> totals = totals_by_name(rec.spans());
  double nn_self = 0.0, all_self = 0.0;
  for (const std::string& name : layer_names) nn_self += totals[name].self_ns;
  for (const auto& [name, t] : totals) all_self += t.self_ns;
  const double f = static_cast<double>(flagged);
  m["self.nn_us_per_req"] = nn_self / 1e3 / rows;
  m["self.detector_us_per_req"] = totals["core.detector"].self_ns / 1e3 / rows;
  m["self.tier0_us_per_req"] = totals["core.tier0"].self_ns / 1e3 / rows;
  m["self.vote_us_per_req"] = totals["core.vote"].self_ns / 1e3 / rows;
  m["self.other_us_per_req"] =
      (totals["core.dcn"].self_ns + totals["nn.forward"].self_ns) / 1e3 / rows;
  m["self.vote_share"] = ratio(totals["core.vote"].self_ns, all_self);
  m["core.detector_us"] = ratio(totals["core.detector"].total_ns / 1e3,
                                static_cast<double>(totals["core.detector"].count));
  m["core.tier0_us"] = ratio(totals["core.tier0"].total_ns / 1e3,
                             static_cast<double>(totals["core.tier0"].count));
  m["core.vote_us_per_flag"] = ratio(totals["core.vote"].total_ns / 1e3, f);
  m["core.samples_per_flag"] = ratio(static_cast<double>(samples), f);
  m["core.tier0_hit_ratio"] = ratio(static_cast<double>(confirms), f);
  m["core.detector_positive_ratio"] = f / rows;

  // ---- Whole-call entry points at fixed batch sizes ----------------------
  for (std::size_t b : {1, 8, 14}) {
    const std::string name = "nn.logits_batch_b" + std::to_string(b);
    for_batches(inputs, b, [&](std::size_t id, const Tensor& batch) {
      Scope s(rec, name, id);
      (void)model.logits_batch(batch);
    });
    m["nn.forward_us_b" + std::to_string(b)] = median(durations_us(rec.spans(), name));
  }
  for (std::size_t b : {1, 8}) {
    const std::string suffix = ".b" + std::to_string(b);
    for_batches(inputs, b, [&](std::size_t id, const Tensor& batch) {
      Scope chain(rec, "nn.layers" + suffix, id);
      Tensor x = batch;
      for (std::size_t i = 0; i < model.layer_count(); ++i) {
        Scope layer(rec, layer_names[i] + suffix, id);
        x = model.layer(i).forward(x, /*train=*/false);
      }
    });
    for (const std::string& name : layer_names) {
      m[name + ".us_b" + std::to_string(b)] =
          median(durations_us(rec.spans(), name + suffix));
    }
    auto replica = make_replica(trained.state);
    const std::string predict = "core.predict_b" + std::to_string(b);
    for_batches(inputs, b, [&](std::size_t id, const Tensor& batch) {
      Scope s(rec, predict, id);
      (void)replica->dcn->predict_verbose(batch);
    });
    m["core.predict_us_b" + std::to_string(b)] =
        median(durations_us(rec.spans(), predict));
  }

  // ---- Kernels: GEMM at the widest dense layer's shape, both convs -------
  Rng rng(7);
  nn::Param dense_w{};
  for (std::size_t i = 0; i < model.layer_count(); ++i) {
    const std::vector<nn::Param> p = model.layer(i).params();
    if (model.layer(i).name() == "Dense" &&
        (dense_w.value == nullptr || p[0].value->size() > dense_w.value->size())) {
      dense_w = p[0];
    }
  }
  const std::vector<nn::Conv2D*> convs = conv_layers(model);
  for (std::size_t b : {1, 8}) {
    const std::string gemm = "tensor.gemm_b" + std::to_string(b);
    const Tensor a = Tensor::uniform(Shape({b, dense_w.value->dim(1)}), rng);
    for (std::size_t r = 0; r < kGemmReps; ++r) {
      Scope s(rec, gemm, r);
      (void)ops::matmul_a_bt(a, *dense_w.value);
    }
    const double gemm_flops =
        2.0 * static_cast<double>(b * dense_w.value->dim(1) * dense_w.value->dim(0));
    m["tensor.gemm_gflops_b" + std::to_string(b)] =
        gemm_flops / (median(durations_us(rec.spans(), gemm)) * 1e3);

    const std::string conv = "tensor.conv_b" + std::to_string(b);
    std::vector<Tensor> conv_in;
    double conv_flops = 0.0;
    for (nn::Conv2D* c : convs) {
      const conv::Conv2DSpec& sp = c->spec();
      conv_in.push_back(Tensor::uniform(
          Shape({b, sp.in_channels, sp.in_height, sp.in_width}), rng));
      conv_flops += 2.0 * static_cast<double>(
                              b * c->out_channels() * sp.in_channels *
                              sp.kernel * sp.kernel * sp.out_height() *
                              sp.out_width());
    }
    for (std::size_t r = 0; r < kConvReps; ++r) {
      Scope s(rec, conv, r);
      for (std::size_t k = 0; k < convs.size(); ++k) {
        const std::vector<nn::Param> p = convs[k]->params();
        (void)conv::conv2d_forward_batch(conv_in[k], *p[0].value, *p[1].value,
                                         convs[k]->spec());
      }
    }
    m["tensor.conv_gflops_b" + std::to_string(b)] =
        conv_flops / (median(durations_us(rec.spans(), conv)) * 1e3);
  }
  {
    const Tensor a = Tensor::uniform(Shape({kPeakDim, kPeakDim}), rng);
    const Tensor bt = Tensor::uniform(Shape({kPeakDim, kPeakDim}), rng);
    for (std::size_t r = 0; r < kPeakReps; ++r) {
      Scope s(rec, "tensor.gemm_peak", r);
      (void)ops::matmul_a_bt(a, bt);
    }
    const std::vector<double> t = durations_us(rec.spans(), "tensor.gemm_peak");
    const double d = static_cast<double>(kPeakDim);
    m["tensor.gemm_peak_gflops"] =
        2.0 * d * d * d / (*std::min_element(t.begin(), t.end()) * 1e3);
  }

  // ---- Protocol codecs ---------------------------------------------------
  {
    std::vector<serve::net::Bytes> payloads;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      Scope s(rec, "net.encode", i);
      (void)serve::net::encode_predict_request(*inputs[i], /*verbose=*/true,
                                               obs::mint_trace_context());
    }
    serve::ServeResult result;
    result.batch_size = workload.replay_batch;
    result.compute_us = 100.0;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      result.label = i % 10;
      result.sequence = i;
      payloads.push_back(serve::net::encode_verbose_response(
          result, 0, obs::mint_trace_context()));
    }
    for (std::size_t i = 0; i < payloads.size(); ++i) {
      Scope s(rec, "net.decode", i);
      (void)serve::net::decode_verbose_response(payloads[i]);
    }
    m["net.encode_us"] = median(durations_us(rec.spans(), "net.encode"));
    m["net.decode_us"] = median(durations_us(rec.spans(), "net.decode"));
  }

  // ---- DcnServer::submit, then the full socket path, in bursts -----------
  const std::size_t burst = workload.replay_batch;
  {
    auto replica = make_replica(trained.state);
    serve::DcnServer server(*replica->dcn, router_config().server);
    for (std::size_t begin = 0; begin < inputs.size(); begin += burst) {
      const std::size_t end = std::min(inputs.size(), begin + burst);
      Scope s(rec, "serve.request", begin);
      std::vector<std::future<serve::ServeResult>> futures;
      for (std::size_t i = begin; i < end; ++i) {
        futures.push_back(server.submit(*inputs[i]));
      }
      for (auto& fut : futures) (void)fut.get();
    }
  }
  {
    Deployment deployment(trained.state, 1, router_config());
    serve::net::DcnClient client =
        serve::net::DcnClient::connect(deployment.port());
    for (std::size_t begin = 0; begin < inputs.size(); begin += burst) {
      const std::size_t end = std::min(inputs.size(), begin + burst);
      Scope s(rec, "net.request", begin);
      for (std::size_t i = begin; i < end; ++i) {
        client.send_predict(*inputs[i], /*verbose=*/true);
      }
      for (std::size_t i = begin; i < end; ++i) (void)client.recv();
    }
  }
  m["serve.request_us"] = median(durations_us(rec.spans(), "serve.request"));
  m["net.request_us"] = median(durations_us(rec.spans(), "net.request"));
  return out;
}

}  // namespace servebench
