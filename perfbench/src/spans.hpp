// Wall-clock spans recorded by the benchmark around its calls into FLStore's
// layers.
//
// Every span holds a name, a start and end on the steady clock, the span that
// caused it, and a request id. Spans live in memory (one buffer per thread,
// so recording never contends) and are written out once the run ends; self
// times and per-layer busy times are computed from them afterwards.
//
// A SpanLog that is not enabled records nothing: SpanScope then costs one
// branch, so the untraced run and the traced run share every code path.
// Reading or clearing a log (spans, size, clear, write) must wait until every
// thread that records into it has finished.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic wall clock in nanoseconds.
[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

using SpanId = std::uint32_t;
inline constexpr SpanId kNoSpan = 0;

struct Span {
  const char* name = "";  ///< string literal: span names are static
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  SpanId id = kNoSpan;
  SpanId parent = kNoSpan;
  std::uint64_t request = 0;  ///< request id (0 = not request-scoped)

  [[nodiscard]] std::int64_t duration_ns() const noexcept {
    return end_ns - start_ns;
  }
};

/// Aggregate of every span sharing one name.
struct SpanTotals {
  std::uint64_t calls = 0;
  double busy_s = 0.0;  ///< summed durations
  double self_s = 0.0;  ///< summed durations minus time covered by children
};

class SpanLog {
 public:
  explicit SpanLog(bool enabled);
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Parent for spans opened on threads the benchmark does not own (the
  /// serving plane's workers): the innermost open span on this thread, or
  /// the run-level root when this thread has none.
  [[nodiscard]] SpanId ambient_parent() const noexcept;
  void set_root(SpanId id) noexcept { root_.store(id); }

  /// Every span recorded so far, in (start, id) order.
  [[nodiscard]] std::vector<Span> spans() const;
  [[nodiscard]] std::size_t size() const;
  void clear();

  /// Write the spans as JSON lines to `path` (one object per span).
  /// Returns false when the file cannot be written.
  bool write(const std::string& path) const;

 private:
  friend class SpanScope;
  struct Buffer {
    std::vector<Span> spans;
  };
  [[nodiscard]] SpanId next_id() noexcept { return next_id_.fetch_add(1); }
  /// This thread's buffer (registered on first use).
  Buffer& local();

  bool enabled_;
  std::uint64_t epoch_;  ///< distinguishes logs that reuse one address
  std::atomic<SpanId> next_id_{1};
  std::atomic<SpanId> root_{kNoSpan};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;  ///< guarded by mu_
};

/// RAII span: opens at construction, closes at destruction, and is the
/// parent of every span opened on this thread while it is alive.
class SpanScope {
 public:
  SpanScope(SpanLog* log, const char* name, std::uint64_t request = 0);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  [[nodiscard]] SpanId id() const noexcept { return span_.id; }

 private:
  SpanLog* log_;  ///< null when the log is absent or disabled
  Span span_;
  SpanId saved_parent_ = kNoSpan;
};

/// Per-name calls, busy time and self time over `spans`. A span's self time
/// is its duration minus the union of its children's intervals clipped to
/// it (children on other threads may overlap one another).
[[nodiscard]] std::map<std::string, SpanTotals> totals_by_name(
    const std::vector<Span>& spans);

/// The traced run's consistency check: for every span named `name`, its
/// children lie inside it, do not overlap, and their durations plus its self
/// time equal its duration. Returns the number of spans that violate it.
[[nodiscard]] std::size_t inconsistent_spans(const std::vector<Span>& spans,
                                             const std::string& name);

}  // namespace perfbench
