#include "spans.hpp"

#include <algorithm>
#include <utility>

namespace servebench {

SpanRecorder::Scope::Scope(SpanRecorder& recorder, std::string name,
                           std::uint64_t request)
    : recorder_(recorder), index_(recorder.spans_.size()) {
  Span span;
  span.name = std::move(name);
  span.parent = recorder.open_.empty()
                    ? kNoParent
                    : static_cast<int>(recorder.open_.back());
  span.request = request;
  recorder.open_.push_back(index_);
  span.start_ns = now_ns();
  recorder.spans_.push_back(std::move(span));
}

SpanRecorder::Scope::~Scope() {
  recorder_.spans_[index_].end_ns = now_ns();
  recorder_.open_.pop_back();
}

std::int64_t SpanRecorder::now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent != kNoParent) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                                s.end_ns);
    }
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t lo = spans[i].start_ns;
    const std::int64_t hi = spans[i].end_ns;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to [lo, hi].
    std::int64_t covered = 0;
    std::int64_t reach = lo;
    for (const auto& [a, b] : kids) {
      const std::int64_t from = std::max(a, reach);
      const std::int64_t to = std::min(b, hi);
      if (to > from) {
        covered += to - from;
        reach = to;
      }
    }
    self[i] = (hi - lo) - covered;
  }
  return self;
}

std::map<std::string, SpanTotals> totals_by_name(
    const std::vector<Span>& spans) {
  const std::vector<std::int64_t> self = self_times_ns(spans);
  std::map<std::string, SpanTotals> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    SpanTotals& t = out[spans[i].name];
    ++t.count;
    t.total_ns += static_cast<double>(spans[i].end_ns - spans[i].start_ns);
    t.self_ns += static_cast<double>(self[i]);
  }
  return out;
}

}  // namespace servebench
