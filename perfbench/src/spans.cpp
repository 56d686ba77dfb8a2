#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

namespace {

std::atomic<std::uint64_t> g_epoch{1};

/// Innermost open span on this thread.
thread_local SpanId tl_current = kNoSpan;

struct LocalCache {
  const void* log = nullptr;
  std::uint64_t epoch = 0;
  void* buffer = nullptr;
};
thread_local LocalCache tl_cache;

}  // namespace

SpanLog::SpanLog(bool enabled) : enabled_(enabled), epoch_(g_epoch++) {}

SpanId SpanLog::ambient_parent() const noexcept {
  return tl_current != kNoSpan ? tl_current : root_.load();
}

SpanLog::Buffer& SpanLog::local() {
  if (tl_cache.log == this && tl_cache.epoch == epoch_) {
    return *static_cast<Buffer*>(tl_cache.buffer);
  }
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.push_back(std::make_unique<Buffer>());
  tl_cache = {this, epoch_, buffers_.back().get()};
  return *buffers_.back();
}

std::vector<Span> SpanLog::spans() const {
  std::vector<Span> all;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& b : buffers_) {
      all.insert(all.end(), b->spans.begin(), b->spans.end());
    }
  }
  std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns : a.id < b.id;
  });
  return all;
}

std::size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const auto& b : buffers_) n += b->spans.size();
  return n;
}

void SpanLog::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& b : buffers_) b->spans.clear();
}

bool SpanLog::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const auto all = spans();
  const std::int64_t t0 = all.empty() ? 0 : all.front().start_ns;
  for (const auto& s : all) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"id\":%u,\"parent\":%u,\"request\":%llu,"
                 "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 s.name, s.id, s.parent,
                 static_cast<unsigned long long>(s.request),
                 static_cast<long long>(s.start_ns - t0),
                 static_cast<long long>(s.end_ns - t0));
  }
  return std::fclose(f) == 0;
}

SpanScope::SpanScope(SpanLog* log, const char* name, std::uint64_t request)
    : log_(log != nullptr && log->enabled() ? log : nullptr) {
  if (log_ == nullptr) return;
  span_.name = name;
  span_.id = log_->next_id();
  span_.parent = log_->ambient_parent();
  span_.request = request;
  saved_parent_ = tl_current;
  tl_current = span_.id;
  span_.start_ns = now_ns();
}

SpanScope::~SpanScope() {
  if (log_ == nullptr) return;
  span_.end_ns = now_ns();
  tl_current = saved_parent_;
  log_->local().spans.push_back(span_);
}

namespace {

/// Children of every span, by parent id.
std::unordered_map<SpanId, std::vector<const Span*>> children_of(
    const std::vector<Span>& spans) {
  std::unordered_map<SpanId, std::vector<const Span*>> children;
  for (const auto& s : spans) {
    if (s.parent != kNoSpan) children[s.parent].push_back(&s);
  }
  return children;
}

/// Length of the union of `kids` intervals clipped to [lo, hi].
std::int64_t covered_ns(std::vector<const Span*> kids, std::int64_t lo,
                        std::int64_t hi) {
  std::sort(kids.begin(), kids.end(), [](const Span* a, const Span* b) {
    return a->start_ns < b->start_ns;
  });
  std::int64_t covered = 0;
  std::int64_t reach = lo;
  for (const Span* k : kids) {
    const std::int64_t start = std::max(k->start_ns, reach);
    const std::int64_t end = std::min(k->end_ns, hi);
    if (end > start) {
      covered += end - start;
      reach = end;
    }
  }
  return covered;
}

}  // namespace

std::map<std::string, SpanTotals> totals_by_name(
    const std::vector<Span>& spans) {
  const auto children = children_of(spans);
  std::map<std::string, SpanTotals> totals;
  for (const auto& s : spans) {
    auto& t = totals[s.name];
    ++t.calls;
    const double dur = static_cast<double>(s.duration_ns()) * 1e-9;
    t.busy_s += dur;
    const auto it = children.find(s.id);
    const std::int64_t covered =
        it == children.end() ? 0
                             : covered_ns(it->second, s.start_ns, s.end_ns);
    t.self_s += static_cast<double>(s.duration_ns() - covered) * 1e-9;
  }
  return totals;
}

std::size_t inconsistent_spans(const std::vector<Span>& spans,
                               const std::string& name) {
  const auto children = children_of(spans);
  std::size_t bad = 0;
  for (const auto& s : spans) {
    if (name != s.name) continue;
    const auto it = children.find(s.id);
    if (it == children.end()) continue;  // self time is the whole duration
    auto kids = it->second;
    std::sort(kids.begin(), kids.end(), [](const Span* a, const Span* b) {
      return a->start_ns < b->start_ns;
    });
    std::int64_t child_sum = 0;
    std::int64_t reach = s.start_ns;
    bool ok = true;
    for (const Span* k : kids) {
      ok = ok && k->start_ns >= reach && k->end_ns <= s.end_ns;
      reach = k->end_ns;
      child_sum += k->duration_ns();
    }
    const std::int64_t self =
        s.duration_ns() - covered_ns(it->second, s.start_ns, s.end_ns);
    ok = ok && child_sum + self == s.duration_ns();
    if (!ok) ++bad;
  }
  return bad;
}

}  // namespace perfbench
