// Answer check: every served label must equal an in-process replay.
//
// Each shard's DcnServer numbers its requests in arrival order (the
// `sequence` of a verbose response), and serving is batching-invariant by
// contract: a shard's answers equal Dcn::predict_verbose over the same
// request sequence on a fresh replica, whatever the micro-batch cuts. So
// the check groups the served answers by shard, orders them by sequence,
// requires the sequences to be exactly 0..n-1 (nothing admitted went
// missing), and replays each shard's sequence through a fresh replica.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/dcn.hpp"

namespace servebench {

/// One answered request as the client saw it.
struct Answer {
  std::uint32_t shard = 0;
  std::uint64_t sequence = 0;
  std::size_t label = 0;
  std::size_t dnn_label = 0;
  bool flagged = false;
  const dcn::Tensor* input = nullptr;
};

/// Run a [N, d...] batch through a fresh replica of shard `shard`; called
/// in sequence order per shard, so the replica's corrector stream advances
/// as the shard's did. Different shards replay concurrently, one thread
/// each, so calls for different shards must not share a replica.
using ReplayFn = std::function<std::vector<dcn::core::Dcn::Decision>(
    std::uint32_t shard, const dcn::Tensor& batch)>;

struct CheckResult {
  bool correct = true;
  std::size_t checked = 0;
  std::size_t mismatches = 0;
  std::vector<std::string> problems;  // first few, for the log
};

/// Replay batch size; any value gives the same answers (batching
/// invariance), and a large one keeps the replay cheap.
inline constexpr std::size_t kReplayBatch = 64;

CheckResult check_answers(std::vector<Answer> answers,
                          const ReplayFn& replay);

}  // namespace servebench
