#include "obs/hot_counters.hpp"

#include "obs/metrics.hpp"

namespace flstore::obs {

std::uint64_t HotCounters::total(Slot slot) const noexcept {
  std::uint64_t sum = 0;
  for (const auto& stripe_cells : cells_) {
    sum += stripe_cells[static_cast<std::size_t>(slot)].value.load(
        std::memory_order_relaxed);
  }
  return sum;
}

void HotCounters::reset() noexcept {
  for (auto& stripe_cells : cells_) {
    for (auto& cell : stripe_cells) {
      cell.value.store(0, std::memory_order_relaxed);
    }
  }
}

void HotCounters::publish(MetricsRegistry& metrics) const {
  for (int slot = 0; slot < kSlotCount; ++slot) {
    const auto s = static_cast<Slot>(slot);
    metrics.gauge("hotpath_ops", {{kLabelOp, name(s)}})
        .set(static_cast<double>(total(s)));
  }
}

const char* HotCounters::name(Slot slot) noexcept {
  switch (slot) {
    case kGets: return "get";
    case kHits: return "hit";
    case kMisses: return "miss";
    case kPuts: return "put";
    case kPutRejects: return "put_reject";
    case kEvicts: return "evict";
    case kSlotCount: break;
  }
  return "?";
}

}  // namespace flstore::obs
