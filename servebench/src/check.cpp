#include "check.hpp"

#include <algorithm>
#include <map>
#include <thread>

namespace servebench {

namespace {

constexpr std::size_t kMaxProblems = 5;

void report(CheckResult& result, const std::string& problem) {
  result.correct = false;
  if (result.problems.size() < kMaxProblems) {
    result.problems.push_back(problem);
  }
}

CheckResult check_shard(std::uint32_t shard, std::vector<Answer>& list,
                        const ReplayFn& replay) {
  CheckResult result;
  std::sort(list.begin(), list.end(), [](const Answer& a, const Answer& b) {
    return a.sequence < b.sequence;
  });
  for (std::size_t i = 0; i < list.size(); ++i) {
    if (list[i].sequence != i) {
      report(result, "shard " + std::to_string(shard) +
                         ": served sequence has a gap or duplicate at " +
                         std::to_string(i));
      return result;
    }
  }
  for (std::size_t begin = 0; begin < list.size(); begin += kReplayBatch) {
    const std::size_t end = std::min(list.size(), begin + kReplayBatch);
    std::vector<dcn::Tensor> rows;
    for (std::size_t i = begin; i < end; ++i) rows.push_back(*list[i].input);
    const std::vector<dcn::core::Dcn::Decision> want =
        replay(shard, dcn::Tensor::stack(rows));
    for (std::size_t i = begin; i < end; ++i) {
      const Answer& got = list[i];
      const dcn::core::Dcn::Decision& d = want[i - begin];
      ++result.checked;
      if (got.label != d.label || got.dnn_label != d.dnn_label ||
          got.flagged != d.flagged_adversarial) {
        ++result.mismatches;
        report(result, "shard " + std::to_string(shard) + " sequence " +
                           std::to_string(got.sequence) + ": served label " +
                           std::to_string(got.label) + ", replay label " +
                           std::to_string(d.label));
      }
    }
  }
  return result;
}

}  // namespace

CheckResult check_answers(std::vector<Answer> answers,
                          const ReplayFn& replay) {
  std::map<std::uint32_t, std::vector<Answer>> by_shard;
  for (const Answer& a : answers) by_shard[a.shard].push_back(a);

  std::vector<CheckResult> results(by_shard.size());
  std::vector<std::thread> threads;
  std::size_t k = 0;
  for (auto& [shard, list] : by_shard) {
    threads.emplace_back([&, shard = shard, k] {
      try {
        results[k] = check_shard(shard, list, replay);
      } catch (const std::exception& e) {
        report(results[k], "shard " + std::to_string(shard) +
                               ": replay failed: " + e.what());
      }
    });
    ++k;
  }
  for (std::thread& t : threads) t.join();

  CheckResult merged;
  for (const CheckResult& r : results) {
    merged.checked += r.checked;
    merged.mismatches += r.mismatches;
    if (!r.correct) merged.correct = false;
    for (const std::string& p : r.problems) {
      if (merged.problems.size() < kMaxProblems) merged.problems.push_back(p);
    }
  }
  return merged;
}

}  // namespace servebench
