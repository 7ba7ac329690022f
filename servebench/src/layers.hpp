// The traced layer replay: the workload's generated requests replayed
// through each layer's public entry point under the benchmark's own spans.
//
//   core.dcn                 the DCN decision, rebuilt from its parts:
//     nn.forward               Sequential::layer(i).forward chain
//       nn.L<i>_<kind>           one span per layer
//     core.detector            Detector::margin, per row
//     core.tier0               LogitCorrector::propose, per flagged row
//     core.vote                Corrector::vote_many over the flagged rows
//   nn.logits_batch_b<N>     Sequential::logits_batch at batch 1 / 8 / 14
//   nn.layers_b<N>           layer chain at batch 1 / 8 (per-layer times)
//   core.predict_b<N>        Dcn::predict_verbose at batch 1 / 8
//   tensor.gemm_b<N>, tensor.conv_b<N>, tensor.gemm_peak
//   net.encode, net.decode   protocol codecs
//   serve.request            DcnServer::submit until the future resolves
//   net.request              DcnClient over a loopback NetServer
//
// The rebuilt decision must equal Dcn::predict_verbose on the same batches
// (both on fresh replicas), which checks that the tree times what serving
// runs.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "setup.hpp"
#include "spans.hpp"
#include "traffic.hpp"

namespace servebench {

struct LayerReplay {
  std::map<std::string, double> metrics;  // per-layer metric name -> value
  SpanRecorder spans;
  bool decomposition_matches = true;
};

/// Replay the first requests of the workload's stream for `seed`.
LayerReplay replay_layers(const Trained& trained, const Workload& workload,
                          std::uint64_t seed);

}  // namespace servebench
