// Tests of the benchmark's own logic: the percentile rule, the seeded
// Poisson schedule, self-time subtraction, the request streams, and the
// answer check (which must fail on a corrupted label).
#include <gtest/gtest.h>

#include <cmath>
#include <future>
#include <numeric>
#include <sstream>

#include "check.hpp"
#include "core/detector.hpp"
#include "core/logit_corrector.hpp"
#include "models/model_zoo.hpp"
#include "nn/serialize.hpp"
#include "serve/server.hpp"
#include "setup.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "traffic.hpp"

namespace servebench {
namespace {

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  std::reverse(v.begin(), v.end());  // order must not matter
  return v;
}

TEST(Percentile, NeedsTenSamplesBeyondTheRank) {
  // p99 of 1000 samples is rank 990 with exactly 10 beyond it.
  ASSERT_TRUE(percentile(ramp(1000), 0.99).has_value());
  EXPECT_EQ(*percentile(ramp(1000), 0.99), 990.0);
  // One sample fewer leaves 9 beyond: not reported.
  EXPECT_FALSE(percentile(ramp(999), 0.99).has_value());
  // p50 of 20 is rank 10 with 10 beyond; of 19, only 9 beyond.
  ASSERT_TRUE(percentile(ramp(20), 0.50).has_value());
  EXPECT_EQ(*percentile(ramp(20), 0.50), 10.0);
  EXPECT_FALSE(percentile(ramp(19), 0.50).has_value());
  EXPECT_FALSE(percentile({}, 0.50).has_value());
  EXPECT_THROW((void)percentile(ramp(100), 0.0), std::invalid_argument);
  EXPECT_THROW((void)percentile(ramp(100), 1.5), std::invalid_argument);
}

TEST(Percentile, MedianAveragesTheMiddlePairOfAnEvenCount) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

TEST(PoissonSchedule, SeededScheduleReproducesExactly) {
  const std::vector<double> a = poisson_schedule(17, 250.0, 80.0);
  const std::vector<double> b = poisson_schedule(17, 250.0, 80.0);
  EXPECT_EQ(a, b);  // bit for bit
  EXPECT_NE(poisson_schedule(18, 250.0, 80.0), a);
  // Exactly the nominal load, sorted, inside the horizon.
  ASSERT_EQ(a.size(), 20000U);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_GE(a.front(), 0.0);
  EXPECT_LT(a.back(), 80.0);
  // Poisson: gaps are exponential, so their mean is 1/rate and their
  // standard deviation equals their mean (within 3% over 20000 gaps).
  double sum = 0.0, sq = 0.0;
  for (std::size_t i = 1; i < a.size(); ++i) {
    const double g = a[i] - a[i - 1];
    sum += g;
    sq += g * g;
  }
  const double n = static_cast<double>(a.size() - 1);
  const double mean_gap = sum / n;
  const double sd_gap = std::sqrt(sq / n - mean_gap * mean_gap);
  EXPECT_NEAR(mean_gap, 1.0 / 250.0, 0.03 / 250.0);
  EXPECT_NEAR(sd_gap / mean_gap, 1.0, 0.03);
  EXPECT_THROW((void)poisson_schedule(1, 0.0, 10.0), std::invalid_argument);
  EXPECT_THROW((void)poisson_schedule(1, 250.0, 0.0), std::invalid_argument);
}

Span span(const char* name, std::int64_t start, std::int64_t end,
          int parent) {
  Span s;
  s.name = name;
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  return s;
}

TEST(SelfTime, SubtractsTheUnionOfChildrenClippedToTheParent) {
  const std::vector<Span> spans{
      span("root", 0, 100, kNoParent),
      span("a", 10, 30, 0),
      span("b", 25, 50, 0),   // overlaps a: the union 10..50 counts once
      span("c", 90, 120, 0),  // runs past root's end: clipped to 90..100
      span("a.kid", 12, 20, 1),
      span("other", 200, 260, kNoParent),
  };
  const std::vector<std::int64_t> self = self_times_ns(spans);
  EXPECT_EQ(self[0], 100 - 40 - 10);
  EXPECT_EQ(self[1], 20 - 8);
  EXPECT_EQ(self[2], 25);
  EXPECT_EQ(self[3], 30);
  EXPECT_EQ(self[4], 8);
  EXPECT_EQ(self[5], 60);

  const auto totals = totals_by_name(spans);
  EXPECT_EQ(totals.at("root").count, 1U);
  EXPECT_DOUBLE_EQ(totals.at("root").total_ns, 100.0);
  EXPECT_DOUBLE_EQ(totals.at("root").self_ns, 50.0);
}

TEST(SelfTime, RecorderNestsScopesAndKeepsRequestIds) {
  SpanRecorder rec;
  {
    SpanRecorder::Scope root(rec, "root", 7);
    { SpanRecorder::Scope child(rec, "child", 8); }
    { SpanRecorder::Scope child(rec, "child", 9); }
  }
  { SpanRecorder::Scope next(rec, "next", 10); }
  const std::vector<Span>& s = rec.spans();
  ASSERT_EQ(s.size(), 4U);
  EXPECT_EQ(s[0].parent, kNoParent);
  EXPECT_EQ(s[1].parent, 0);
  EXPECT_EQ(s[2].parent, 0);
  EXPECT_EQ(s[3].parent, kNoParent);
  EXPECT_EQ(s[2].request, 9U);
  for (const Span& x : s) EXPECT_LE(x.start_ns, x.end_ns);
  const std::vector<std::int64_t> self = self_times_ns(s);
  EXPECT_EQ(self[0], (s[0].end_ns - s[0].start_ns) -
                         (s[1].end_ns - s[1].start_ns) -
                         (s[2].end_ns - s[2].start_ns));
}

Pools tiny_pools() {
  Pools p;
  for (std::size_t i = 0; i < 5; ++i) {
    p.benign.push_back(dcn::Tensor::full(dcn::Shape({1, 28, 28}), 0.1F * i));
    p.benign_labels.push_back(i);
  }
  for (std::size_t i = 0; i < 3; ++i) {
    p.adversarial.push_back(
        dcn::Tensor::full(dcn::Shape({1, 28, 28}), 0.5F + 0.1F * i));
    p.adversarial_labels.push_back(9 - i);
  }
  return p;
}

TEST(Requests, ExactAdversarialShareAndSeededStreams) {
  const Pools pools = tiny_pools();
  const Workload& mix = *find_workload("attack_mix");
  const std::vector<Request> a = make_requests(mix, pools, 3, 0, 1000);
  std::size_t adversarial = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    adversarial += a[i].adversarial ? 1 : 0;
    EXPECT_LT(a[i].index, a[i].adversarial ? 3U : 5U);
    // Every block of kMixBlock = 20 requests carries the exact 30%.
    if ((i + 1) % kMixBlock == 0) EXPECT_EQ(adversarial, (i + 1) * 3 / 10);
  }
  EXPECT_EQ(adversarial, 300U);
  const std::vector<Request> b = make_requests(mix, pools, 3, 0, 1000);
  const std::vector<Request> other = make_requests(mix, pools, 3, 1, 1000);
  bool same = true, differs = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    same = same && a[i].adversarial == b[i].adversarial &&
           a[i].index == b[i].index;
    differs = differs || a[i].adversarial != other[i].adversarial ||
              a[i].index != other[i].index;
  }
  EXPECT_TRUE(same);
  EXPECT_TRUE(differs);
  EXPECT_EQ(find_workload("no_such_workload"), nullptr);
}

/// An untrained but complete system: enough to exercise serving and replay.
TrainedState untrained_state() {
  dcn::Rng rng(1234);
  dcn::nn::Sequential model = dcn::models::mnist_convnet(rng);
  dcn::core::Detector detector(10);
  dcn::core::LogitCorrector tier0(10);
  std::ostringstream w, d, t;
  dcn::nn::save_weights(model, w);
  detector.save(d);
  tier0.save(t);
  return {w.str(), d.str(), t.str()};
}

TEST(AnswerCheck, PassesOnServedAnswersAndFailsOnACorruptedLabel) {
  const TrainedState state = untrained_state();
  dcn::Rng rng(5);
  std::vector<dcn::Tensor> inputs;
  for (int i = 0; i < 21; ++i) {
    inputs.push_back(dcn::Tensor::uniform(dcn::Shape({1, 28, 28}), rng));
  }
  // Serve through a real DcnServer: micro-batches of its own choosing.
  std::vector<Answer> answers;
  {
    auto replica = make_replica(state);
    dcn::serve::DcnServer server(*replica->dcn, router_config().server);
    std::vector<std::future<dcn::serve::ServeResult>> futures;
    for (const dcn::Tensor& x : inputs) futures.push_back(server.submit(x));
    for (std::size_t i = 0; i < futures.size(); ++i) {
      const dcn::serve::ServeResult r = futures[i].get();
      answers.push_back({.shard = 0,
                         .sequence = r.sequence,
                         .label = r.label,
                         .dnn_label = r.dnn_label,
                         .flagged = r.flagged_adversarial,
                         .input = &inputs[i]});
    }
  }
  auto run = [&](const std::vector<Answer>& list) {
    std::unique_ptr<Replica> fresh = make_replica(state);
    return check_answers(list, [&](std::uint32_t, const dcn::Tensor& batch) {
      return fresh->dcn->predict_verbose(batch);
    });
  };

  const CheckResult clean = run(answers);
  EXPECT_TRUE(clean.correct);
  EXPECT_EQ(clean.checked, inputs.size());
  EXPECT_EQ(clean.mismatches, 0U);

  std::vector<Answer> corrupted = answers;
  corrupted[13].label = (corrupted[13].label + 1) % 10;
  const CheckResult bad = run(corrupted);
  EXPECT_FALSE(bad.correct);
  EXPECT_EQ(bad.mismatches, 1U);
  ASSERT_FALSE(bad.problems.empty());

  std::vector<Answer> missing = answers;
  missing.erase(missing.begin() + 4);
  EXPECT_FALSE(run(missing).correct);
}

}  // namespace
}  // namespace servebench
