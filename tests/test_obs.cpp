// Observability layer contract tests.
//
// Three promises are pinned here (src/obs/trace.hpp, src/obs/registry.hpp):
//   1. The Chrome trace export is well-formed JSON and every span carries
//      the trace-event fields Perfetto requires (name/cat/ph/ts/dur/pid/tid)
//      — the `trace-json-valid` ctest entry runs exactly that test.
//   2. Spans observe, never perturb: model outputs are bit-identical with
//      tracing on and off.
//   3. The unified registry exposes the kernel / pool / trace / server
//      families and sources can come and go over an object's lifetime.
// Plus the serving-metrics merge contract: histograms recorded concurrently
// on pool threads merge losslessly.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <set>
#include <string>
#include <vector>

#include "core/corrector.hpp"
#include "models/model_zoo.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "runtime/kernel_stats.hpp"
#include "runtime/thread_pool.hpp"
#include "serve/metrics.hpp"
#include "tensor/ops.hpp"
#include "tensor/random.hpp"

namespace {

using namespace dcn;

// ---- a minimal JSON reader (tests only) ------------------------------------
// Just enough of RFC 8259 to round-trip what the tracer and registry emit:
// objects, arrays, strings with escapes, numbers, booleans. Throws
// std::runtime_error on any syntax error, so "it parses" is a real assertion.

struct Json {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<Json> array;
  std::vector<std::pair<std::string, Json>> object;

  [[nodiscard]] const Json* find(const std::string& key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  Json parse() {
    Json v = value();
    ws();
    if (i_ != s_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const char* what) const {
    throw std::runtime_error("json parse error at byte " + std::to_string(i_) +
                             ": " + what);
  }
  void ws() {
    while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\n' ||
                              s_[i_] == '\t' || s_[i_] == '\r')) {
      ++i_;
    }
  }
  char peek() {
    if (i_ >= s_.size()) fail("unexpected end");
    return s_[i_];
  }
  void expect(char c) {
    if (peek() != c) fail("unexpected character");
    ++i_;
  }
  bool consume(const char* lit) {
    const std::size_t n = std::string(lit).size();
    if (s_.compare(i_, n, lit) != 0) return false;
    i_ += n;
    return true;
  }

  std::string string_lit() {
    expect('"');
    std::string out;
    while (peek() != '"') {
      char c = s_[i_++];
      if (c == '\\') {
        const char esc = peek();
        ++i_;
        switch (esc) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'n': out.push_back('\n'); break;
          case 't': out.push_back('\t'); break;
          case 'r': out.push_back('\r'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'u':
            if (i_ + 4 > s_.size()) fail("bad \\u escape");
            i_ += 4;  // keep the test reader simple: skip the code point
            out.push_back('?');
            break;
          default: fail("bad escape");
        }
      } else {
        out.push_back(c);
      }
    }
    ++i_;  // closing quote
    return out;
  }

  Json value() {
    ws();
    Json v;
    const char c = peek();
    if (c == '{') {
      v.type = Json::Type::kObject;
      ++i_;
      ws();
      if (peek() == '}') { ++i_; return v; }
      while (true) {
        ws();
        std::string key = string_lit();
        ws();
        expect(':');
        v.object.emplace_back(std::move(key), value());
        ws();
        if (peek() == ',') { ++i_; continue; }
        expect('}');
        return v;
      }
    }
    if (c == '[') {
      v.type = Json::Type::kArray;
      ++i_;
      ws();
      if (peek() == ']') { ++i_; return v; }
      while (true) {
        v.array.push_back(value());
        ws();
        if (peek() == ',') { ++i_; continue; }
        expect(']');
        return v;
      }
    }
    if (c == '"') {
      v.type = Json::Type::kString;
      v.str = string_lit();
      return v;
    }
    if (consume("true")) { v.type = Json::Type::kBool; v.boolean = true; return v; }
    if (consume("false")) { v.type = Json::Type::kBool; return v; }
    if (consume("null")) { return v; }
    // number
    const std::size_t start = i_;
    if (peek() == '-') ++i_;
    while (i_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[i_])) != 0 ||
            s_[i_] == '.' || s_[i_] == 'e' || s_[i_] == 'E' || s_[i_] == '+' ||
            s_[i_] == '-')) {
      ++i_;
    }
    if (i_ == start) fail("expected value");
    v.type = Json::Type::kNumber;
    v.number = std::stod(s_.substr(start, i_ - start));
    return v;
  }

  const std::string& s_;
  std::size_t i_ = 0;
};

/// RAII: leave tracing disabled and buffers empty no matter how a test exits.
struct TraceSandbox {
  TraceSandbox() {
    obs::set_tracing_enabled(false);
    obs::trace_clear();
  }
  ~TraceSandbox() {
    obs::set_tracing_enabled(false);
    obs::trace_clear();
  }
};

// ---- trace export ----------------------------------------------------------

// The `trace-json-valid` ctest entry runs this test by name: a tiny traced
// inference, exported and re-parsed, with every span checked for the full
// Chrome trace-event field set.
TEST(TraceExport, ChromeTraceJsonIsValidAndComplete) {
  if (!obs::kTraceCompiled) {
    GTEST_SKIP() << "tracer compiled out (-DDCN_TRACE=OFF)";
  }
  TraceSandbox sandbox;
  Rng rng(31);
  nn::Sequential model = models::mlp({8, 16, 4}, rng);
  core::Corrector corrector(model, {.radius = 0.1F, .samples = 4, .seed = 9});
  const Tensor x = Tensor::uniform(Shape{8}, rng, -0.5F, 0.5F);

  obs::set_tracing_enabled(true);
  {
    DCN_TRACE_SPAN_ARG("test.root", "test", "answer", 42);
    (void)corrector.correct(x);
  }
  obs::set_tracing_enabled(false);

  const std::string exported = obs::trace_export();
  Json root;
  ASSERT_NO_THROW(root = JsonParser(exported).parse()) << exported;
  ASSERT_EQ(root.type, Json::Type::kObject);

  const Json* unit = root.find("displayTimeUnit");
  ASSERT_NE(unit, nullptr);
  EXPECT_EQ(unit->str, "ms");

  const Json* events = root.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->type, Json::Type::kArray);
  ASSERT_FALSE(events->array.empty());

  std::set<std::string> names;
  for (const Json& ev : events->array) {
    ASSERT_EQ(ev.type, Json::Type::kObject);
    const Json* name = ev.find("name");
    ASSERT_NE(name, nullptr);
    EXPECT_EQ(name->type, Json::Type::kString);
    EXPECT_FALSE(name->str.empty());
    names.insert(name->str);
    const Json* cat = ev.find("cat");
    ASSERT_NE(cat, nullptr);
    EXPECT_EQ(cat->type, Json::Type::kString);
    const Json* ph = ev.find("ph");
    ASSERT_NE(ph, nullptr);
    EXPECT_EQ(ph->str, "X");  // complete events only
    for (const char* field : {"ts", "dur", "pid", "tid"}) {
      const Json* v = ev.find(field);
      ASSERT_NE(v, nullptr) << "span missing " << field;
      EXPECT_EQ(v->type, Json::Type::kNumber);
      EXPECT_GE(v->number, 0.0);
    }
  }
  // The corrector path must show up with its stage spans, and the manual
  // root span must carry its numeric arg through export.
  EXPECT_TRUE(names.count("corrector.sample_region") == 1);
  EXPECT_TRUE(names.count("corrector.classify_batch") == 1);
  EXPECT_TRUE(names.count("corrector.vote") == 1);
  EXPECT_TRUE(names.count("test.root") == 1);
  bool found_arg = false;
  for (const Json& ev : events->array) {
    if (ev.find("name")->str != "test.root") continue;
    const Json* args = ev.find("args");
    ASSERT_NE(args, nullptr);
    const Json* answer = args->find("answer");
    ASSERT_NE(answer, nullptr);
    EXPECT_DOUBLE_EQ(answer->number, 42.0);
    found_arg = true;
  }
  EXPECT_TRUE(found_arg);
}

TEST(TraceExport, DisabledTracingRecordsNothing) {
  TraceSandbox sandbox;
  { DCN_TRACE_SPAN("test.invisible", "test"); }
  const obs::TraceStats stats = obs::trace_stats();
  EXPECT_EQ(stats.recorded, 0u);
  // An empty export is still a valid document.
  Json root = JsonParser(obs::trace_export()).parse();
  ASSERT_NE(root.find("traceEvents"), nullptr);
  EXPECT_TRUE(root.find("traceEvents")->array.empty());
}

TEST(TraceExport, FullBufferDropsInsteadOfWrapping) {
  if (!obs::kTraceCompiled) {
    GTEST_SKIP() << "tracer compiled out (-DDCN_TRACE=OFF)";
  }
  TraceSandbox sandbox;
  obs::set_tracing_enabled(true);
  constexpr std::size_t kSpans = 20000;  // past the 16384 per-thread capacity
  for (std::size_t i = 0; i < kSpans; ++i) {
    DCN_TRACE_SPAN("test.flood", "test");
  }
  obs::set_tracing_enabled(false);
  const obs::TraceStats stats = obs::trace_stats();
  EXPECT_EQ(stats.recorded + stats.dropped, kSpans);
  EXPECT_GT(stats.dropped, 0u);
  // Dropping must not corrupt what was kept.
  Json root = JsonParser(obs::trace_export()).parse();
  EXPECT_EQ(root.find("traceEvents")->array.size(), stats.recorded);
}

TEST(TraceExport, PoolThreadSpansAreCollected) {
  if (!obs::kTraceCompiled) {
    GTEST_SKIP() << "tracer compiled out (-DDCN_TRACE=OFF)";
  }
  TraceSandbox sandbox;
  obs::set_tracing_enabled(true);
  std::vector<double> out(256, 0.0);
  runtime::parallel_for(0, out.size(), runtime::kMinChunkWork / 16,
                        [&](std::size_t begin, std::size_t end) {
                          DCN_TRACE_SPAN("test.chunk", "test");
                          for (std::size_t i = begin; i < end; ++i) {
                            out[i] = static_cast<double>(i);
                          }
                        });
  obs::set_tracing_enabled(false);
  const obs::TraceStats stats = obs::trace_stats();
  EXPECT_GE(stats.recorded, 1u);
  EXPECT_GE(stats.threads, 1u);
  // Every worker's buffer drains into one well-formed document.
  Json root = JsonParser(obs::trace_export()).parse();
  std::size_t chunk_spans = 0;
  for (const Json& ev : root.find("traceEvents")->array) {
    if (ev.find("name")->str == "test.chunk") ++chunk_spans;
  }
  EXPECT_GE(chunk_spans, 1u);
}

// ---- determinism: spans observe, never perturb -----------------------------

TEST(TraceDeterminism, BatchedInferenceBitIdenticalWithTracingOn) {
  TraceSandbox sandbox;
  Rng rng(77);
  nn::Sequential model = models::mlp({16, 32, 10}, rng);
  const Tensor batch = Tensor::uniform(Shape{8, 16}, rng, -0.5F, 0.5F);

  const Tensor quiet = model.logits_batch(batch);
  obs::set_tracing_enabled(true);
  const Tensor traced = model.logits_batch(batch);
  obs::set_tracing_enabled(false);

  ASSERT_EQ(quiet.size(), traced.size());
  for (std::size_t i = 0; i < quiet.size(); ++i) {
    // Bit-identical, not approximately equal: tracing must not reorder any
    // accumulation.
    EXPECT_EQ(quiet.data()[i], traced.data()[i]) << "element " << i;
  }
}

TEST(TraceDeterminism, CorrectorRngStreamUntouchedByTracing) {
  TraceSandbox sandbox;
  Rng rng(78);
  nn::Sequential model = models::mlp({8, 16, 4}, rng);
  std::vector<Tensor> inputs;
  for (int i = 0; i < 6; ++i) {
    inputs.push_back(Tensor::uniform(Shape{8}, rng, -0.5F, 0.5F));
  }
  const core::CorrectorConfig config{.radius = 0.2F, .samples = 8, .seed = 5};

  std::vector<std::size_t> quiet_labels;
  {
    core::Corrector corrector(model, config);
    for (const Tensor& x : inputs) quiet_labels.push_back(corrector.correct(x));
  }
  std::vector<std::size_t> traced_labels;
  {
    obs::set_tracing_enabled(true);
    core::Corrector corrector(model, config);
    for (const Tensor& x : inputs) traced_labels.push_back(corrector.correct(x));
    obs::set_tracing_enabled(false);
  }
  EXPECT_EQ(quiet_labels, traced_labels);
}

// ---- unified registry ------------------------------------------------------

TEST(Registry, PrometheusExposesLibraryFamilies) {
  // Touch each subsystem so its counters are live, then scrape.
  Rng rng(11);
  const Tensor a = Tensor::uniform(Shape{4, 6}, rng);
  const Tensor b = Tensor::uniform(Shape{6, 5}, rng);
  (void)ops::matmul(a, b);
  std::vector<double> out(64, 0.0);
  runtime::parallel_for(0, out.size(), runtime::kMinChunkWork / 8,
                        [&](std::size_t begin, std::size_t end) {
                          for (std::size_t i = begin; i < end; ++i) out[i] = 1.0;
                        });

  const std::string text = obs::registry().render_prometheus();
  for (const char* family :
       {"dcn_kernel_gemm_calls_total", "dcn_kernel_gemm_flops_total",
        "dcn_kernel_im2col_calls_total", "dcn_pool_workers",
        "dcn_pool_uptime_seconds", "dcn_trace_enabled",
        "dcn_trace_events_dropped_total"}) {
    EXPECT_NE(text.find(family), std::string::npos) << "missing " << family;
  }
  EXPECT_NE(text.find("# HELP dcn_kernel_gemm_calls_total"), std::string::npos);
  EXPECT_NE(text.find("# TYPE dcn_pool_workers gauge"), std::string::npos);
}

TEST(Registry, ServerMetricsSourceAddAndRemove) {
  // Mirror what DcnServer does over its lifetime: a ServerMetrics block
  // registers, shows up in the scrape as dcn_server_*, and disappears on
  // remove_source.
  serve::ServerMetrics metrics;
  metrics.on_submit(1);
  metrics.on_flush(1, false, true);
  metrics.on_result(false, false, 0, 10.0, 20.0);
  const std::size_t id = obs::registry().add_source(
      [&metrics](std::vector<obs::Metric>& out) { metrics.collect(out, 0); });

  const std::string with = obs::registry().render_prometheus();
  EXPECT_NE(with.find("dcn_server_requests_submitted_total 1"),
            std::string::npos);
  EXPECT_NE(with.find("dcn_server_batches_total 1"), std::string::npos);

  obs::registry().remove_source(id);
  const std::string without = obs::registry().render_prometheus();
  EXPECT_EQ(without.find("dcn_server_"), std::string::npos);
}

TEST(Registry, JsonExportParsesAndFoldsLabels) {
  const std::string dumped = obs::registry().to_json().dump();
  Json root;
  ASSERT_NO_THROW(root = JsonParser(dumped).parse()) << dumped;
  ASSERT_EQ(root.type, Json::Type::kObject);
  // Per-worker pool samples fold their label into the key.
  bool has_plain = false;
  bool has_labeled = false;
  for (const auto& [key, v] : root.object) {
    EXPECT_EQ(v.type, Json::Type::kNumber) << key;
    if (key == "dcn_pool_workers") has_plain = true;
    if (key.find("dcn_pool_worker_tasks_total{worker=") == 0) {
      has_labeled = true;
    }
  }
  EXPECT_TRUE(has_plain);
  if (runtime::pool_stats().workers > 0) {
    EXPECT_TRUE(has_labeled);
  }
}

TEST(Registry, RuntimeMetricsJsonShape) {
  const std::string dumped = obs::runtime_metrics_json().dump();
  Json root = JsonParser(dumped).parse();
  for (const char* block : {"kernel", "pool", "trace"}) {
    const Json* sub = root.find(block);
    ASSERT_NE(sub, nullptr) << block;
    EXPECT_EQ(sub->type, Json::Type::kObject);
  }
  EXPECT_EQ(root.find("trace")->find("compiled")->boolean,
            obs::kTraceCompiled);
}

// ---- kernel counters and pool gauges ---------------------------------------

TEST(KernelStats, GemmCountersAdvanceByKnownAmounts) {
  Rng rng(3);
  const Tensor a = Tensor::uniform(Shape{7, 9}, rng);
  const Tensor b = Tensor::uniform(Shape{9, 5}, rng);
  const runtime::KernelStatsSnapshot before = runtime::kernel_stats().snapshot();
  (void)ops::matmul(a, b);
  const runtime::KernelStatsSnapshot after = runtime::kernel_stats().snapshot();
  EXPECT_EQ(after.gemm_calls - before.gemm_calls, 1u);
  // flops = 2*m*n*k, bytes = 4*(mk + kn + mn) for a 7x9 * 9x5 product.
  EXPECT_EQ(after.gemm_flops - before.gemm_flops, 2u * 7u * 5u * 9u);
  EXPECT_EQ(after.gemm_bytes - before.gemm_bytes,
            4u * (7u * 9u + 9u * 5u + 7u * 5u));
  EXPECT_GE(after.gemm_ns, before.gemm_ns);
}

TEST(PoolStats, DispatchGaugesAdvance) {
  const runtime::PoolStatsSnapshot before = runtime::pool_stats();
  std::vector<double> out(512, 0.0);
  runtime::parallel_for(0, out.size(), runtime::kMinChunkWork / 32,
                        [&](std::size_t begin, std::size_t end) {
                          for (std::size_t i = begin; i < end; ++i) {
                            out[i] = static_cast<double>(i) * 0.5;
                          }
                        });
  const runtime::PoolStatsSnapshot after = runtime::pool_stats();
  EXPECT_GE((after.parallel_fors + after.inline_runs) -
                (before.parallel_fors + before.inline_runs),
            1u);
  EXPECT_GT(after.uptime_ns, 0u);
  EXPECT_EQ(after.worker_tasks.size(), after.workers);
  EXPECT_EQ(after.worker_busy_ns.size(), after.workers);
}

// ---- serving metrics: reset and merge --------------------------------------

TEST(LatencyHistogram, ResetZeroesEverything) {
  serve::LatencyHistogram h;
  h.record(100.0);
  h.record(2000.0);
  ASSERT_EQ(h.summarize().count, 2u);
  h.reset();
  const serve::LatencyHistogram::Summary s = h.summarize();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.max_us, 0.0);
  EXPECT_EQ(s.p99_us, 0.0);
}

TEST(LatencyHistogram, MergeOfConcurrentRecordingsIsLossless) {
  // Shards record concurrently on pool threads; the merged histogram must
  // equal a serial histogram fed the same observations. record() and merge()
  // are relaxed-atomic, so this also runs clean under TSan.
  constexpr std::size_t kShards = 4;
  constexpr std::size_t kObservations = 4096;
  std::vector<serve::LatencyHistogram> shards(kShards);
  const auto value = [](std::size_t i) {
    return static_cast<double>((i * 37) % 5000) + 1.0;
  };
  runtime::parallel_for(0, kObservations, runtime::kMinChunkWork / 64,
                        [&](std::size_t begin, std::size_t end) {
                          for (std::size_t i = begin; i < end; ++i) {
                            shards[i % kShards].record(value(i));
                          }
                        });

  serve::LatencyHistogram merged;
  for (const auto& shard : shards) merged.merge(shard);
  serve::LatencyHistogram serial;
  for (std::size_t i = 0; i < kObservations; ++i) serial.record(value(i));

  const auto m = merged.summarize();
  const auto s = serial.summarize();
  EXPECT_EQ(m.count, s.count);
  EXPECT_DOUBLE_EQ(m.mean_us, s.mean_us);
  EXPECT_DOUBLE_EQ(m.max_us, s.max_us);
  EXPECT_DOUBLE_EQ(m.p50_us, s.p50_us);
  EXPECT_DOUBLE_EQ(m.p95_us, s.p95_us);
  EXPECT_DOUBLE_EQ(m.p99_us, s.p99_us);
}

TEST(ServerMetrics, MergeAddsCountersAndMaxesPeaks) {
  serve::ServerMetrics a;
  a.on_submit(3);
  a.on_submit(1);
  a.on_flush(2, true, false);
  a.on_result(true, false, 40, 50.0, 500.0);
  a.on_result(false, false, 0, 10.0, 100.0);

  serve::ServerMetrics b;
  b.on_submit(7);
  b.on_reject();
  b.on_flush(1, false, true);
  b.on_result(true, true, 0, 20.0, 200.0);

  a.merge(b);
  const serve::ServerMetrics::Snapshot s = a.snapshot();
  EXPECT_EQ(s.submitted, 3u);
  EXPECT_EQ(s.rejected, 1u);
  EXPECT_EQ(s.completed, 3u);
  EXPECT_EQ(s.batches, 2u);
  EXPECT_EQ(s.flush_full, 1u);
  EXPECT_EQ(s.flush_timer, 1u);
  EXPECT_EQ(s.detector_positives, 2u);
  EXPECT_EQ(s.tier0_hits, 1u);
  EXPECT_EQ(s.tier1_votes, 1u);
  EXPECT_EQ(s.corrector_samples, 40u);
  EXPECT_DOUBLE_EQ(s.samples_per_flagged, 20.0);
  EXPECT_DOUBLE_EQ(s.tier0_hit_rate, 0.5);
  EXPECT_EQ(s.peak_queue_depth, 7u);  // max, not sum
  EXPECT_DOUBLE_EQ(s.mean_batch_size, 1.5);
  EXPECT_EQ(s.end_to_end.count, 3u);
  EXPECT_DOUBLE_EQ(s.end_to_end.max_us, 500.0);

  a.reset();
  const serve::ServerMetrics::Snapshot z = a.snapshot();
  EXPECT_EQ(z.submitted, 0u);
  EXPECT_EQ(z.batches, 0u);
  EXPECT_EQ(z.peak_queue_depth, 0u);
  EXPECT_EQ(z.end_to_end.count, 0u);
}

}  // namespace
