// Hot-path-safe operation counters for the real-thread serving plane.
//
// MetricsRegistry's labelled counters are the right tool on the sim-time
// planes: a handle lookup hashes the label set under the registry mutex, and
// even the cached-handle add is a CAS loop on one shared double. Inside a
// wall-clock hot loop running on 16–64 OS threads both become real
// contention. HotCounters is the hot-path complement: a fixed enum of
// operation slots, each striped per worker over cache-line-padded relaxed
// atomics — add() is one uncontended fetch_add on a line no other worker
// writes. Totals are summed on read, and exported into the registry as
// gauges only at publish points (bench reports, run boundaries), never from
// the data path.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

namespace flstore::obs {

class MetricsRegistry;

class HotCounters {
 public:
  enum Slot : int {
    kGets = 0,
    kHits,
    kMisses,
    kPuts,
    kPutRejects,
    kEvicts,
    kSlotCount,
  };

  /// Worker stripes. More workers than stripes fold round-robin — correct,
  /// just sharing lines; benches at the supported thread counts don't.
  static constexpr int kWorkerStripes = 64;

  HotCounters() = default;
  HotCounters(const HotCounters&) = delete;
  HotCounters& operator=(const HotCounters&) = delete;

  void add(Slot slot, int worker, std::uint64_t n = 1) noexcept {
    cells_[stripe(worker)][static_cast<std::size_t>(slot)].value.fetch_add(
        n, std::memory_order_relaxed);
  }

  /// Sum of one slot over every worker stripe (relaxed reads: exact once
  /// the workers are quiescent, a live sample while they run).
  [[nodiscard]] std::uint64_t total(Slot slot) const noexcept;

  void reset() noexcept;

  /// Export every slot into `metrics` as hotpath_ops{op="..."} gauges.
  /// Gauge::set is idempotent, so repeated publishes don't double-count.
  void publish(MetricsRegistry& metrics) const;

  [[nodiscard]] static const char* name(Slot slot) noexcept;

 private:
  struct alignas(64) Cell {
    std::atomic<std::uint64_t> value{0};
  };

  [[nodiscard]] static std::size_t stripe(int worker) noexcept {
    return static_cast<std::size_t>(worker) %
           static_cast<std::size_t>(kWorkerStripes);
  }

  std::array<std::array<Cell, kSlotCount>, kWorkerStripes> cells_{};
};

}  // namespace flstore::obs
