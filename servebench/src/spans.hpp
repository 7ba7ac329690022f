// The benchmark's own span recorder for the traced layer replay.
//
// Spans are recorded from the benchmark's files around calls into each
// layer's public entry point (spans inside src/ are separate work). Each
// span keeps its name, start, end, parent and request id in memory; the
// recorder is single-threaded (the replay runs on one thread) and nests
// through a scope stack. A layer's self time is its span's duration minus
// the part of that interval its child spans cover.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace servebench {

inline constexpr int kNoParent = -1;

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = kNoParent;    // index into the recorder's span list
  std::uint64_t request = 0; // id of the (first) request the span serves
};

class SpanRecorder {
 public:
  /// RAII scope: opens a span on construction (child of the innermost open
  /// scope) and closes it on destruction.
  class Scope {
   public:
    Scope(SpanRecorder& recorder, std::string name, std::uint64_t request);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder& recorder_;
    std::size_t index_;
  };

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  static std::int64_t now_ns();

  std::vector<Span> spans_;
  std::vector<std::size_t> open_;  // indices of open spans, innermost last
};

/// Self time of every span (same order as `spans`), in nanoseconds: its
/// duration minus the union of its children's intervals clipped to it.
std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans);

/// Per-name totals over `spans`: count, total duration and total self time.
struct SpanTotals {
  std::size_t count = 0;
  double total_ns = 0.0;
  double self_ns = 0.0;
};
std::map<std::string, SpanTotals> totals_by_name(
    const std::vector<Span>& spans);

}  // namespace servebench
