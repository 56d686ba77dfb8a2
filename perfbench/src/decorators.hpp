// Pass-through timing decorators over two of FLStore's public seams.
//
// TimingAdapter wraps a sim::ServingAdapter, so the paper workloads still run
// through sim::run_trace; TimingBackend wraps a backend::StorageBackend and
// forwards every virtual. Both only observe: every call reaches the wrapped
// object with the same arguments and its result comes back unchanged, so
// simulated latency, cost, hits and misses are bit-identical with and
// without them (perfbench_test checks this).
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "backend/storage_backend.hpp"
#include "sim/runner.hpp"
#include "spans.hpp"

namespace perfbench {

class TimingAdapter final : public flstore::sim::ServingAdapter {
 public:
  /// `log` may be null (no spans). `inner` must outlive the adapter.
  TimingAdapter(flstore::sim::ServingAdapter& inner, SpanLog* log)
      : inner_(&inner), log_(log) {}

  void ingest(const flstore::fed::RoundRecord& record, double now) override;
  /// A call that throws is counted as failed and answered with an empty
  /// outcome, so one bad request does not end the replay.
  Outcome serve(const flstore::fed::NonTrainingRequest& req,
                double now) override;
  [[nodiscard]] double infrastructure_cost(double seconds) const override {
    return inner_->infrastructure_cost(seconds);
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

  /// Wall time of every serve call, in microseconds, in call order.
  [[nodiscard]] const std::vector<double>& serve_wall_us() const noexcept {
    return serve_wall_us_;
  }
  [[nodiscard]] std::uint64_t serve_failures() const noexcept {
    return failures_;
  }
  /// Logical bytes of every object the ingested rounds carried.
  [[nodiscard]] double ingested_logical_bytes() const noexcept {
    return ingested_bytes_;
  }

 private:
  flstore::sim::ServingAdapter* inner_;
  SpanLog* log_;
  std::vector<double> serve_wall_us_;
  std::uint64_t failures_ = 0;
  double ingested_bytes_ = 0.0;
};

/// Thread-safe: the serving plane calls the cold tier from its workers.
class TimingBackend final : public flstore::backend::StorageBackend {
 public:
  struct Counters {
    std::uint64_t get_calls = 0;
    std::uint64_t put_calls = 0;  ///< put + put_batch invocations
    double get_busy_s = 0.0;
    double put_busy_s = 0.0;
    double bytes_read = 0.0;     ///< logical bytes of found objects
    double bytes_written = 0.0;  ///< logical bytes of every object put
  };

  /// `log` may be null (no spans). `inner` must outlive the decorator.
  TimingBackend(flstore::backend::StorageBackend& inner, SpanLog* log)
      : inner_(&inner), log_(log) {}

  flstore::backend::PutResult put(const std::string& name,
                                  flstore::Blob blob,
                                  flstore::units::Bytes logical_bytes,
                                  double now) override;
  flstore::backend::BatchPutResult put_batch(
      std::vector<flstore::backend::PutRequest> batch, double now) override;
  flstore::backend::GetResult get(const std::string& name,
                                  double now) override;
  bool remove(const std::string& name, double now) override {
    return inner_->remove(name, now);
  }
  FlushResult flush(double now) override { return inner_->flush(now); }
  FlushResult flush_window(double now, double dirty_before,
                           std::size_t max_objects) override {
    return inner_->flush_window(now, dirty_before, max_objects);
  }
  [[nodiscard]] DirtyWindow dirty_window() const override {
    return inner_->dirty_window();
  }
  CrashResult crash(double now) override { return inner_->crash(now); }
  [[nodiscard]] bool contains(const std::string& name) const override {
    return inner_->contains(name);
  }
  [[nodiscard]] flstore::units::Bytes stored_logical_bytes() const override {
    return inner_->stored_logical_bytes();
  }
  [[nodiscard]] flstore::units::Bytes capacity_bytes() const override {
    return inner_->capacity_bytes();
  }
  [[nodiscard]] double idle_cost(double seconds) const override {
    return inner_->idle_cost(seconds);
  }
  bool set_throttle(const flstore::backend::Throttle::Config& config,
                    double now) override {
    return inner_->set_throttle(config, now);
  }
  [[nodiscard]] flstore::backend::BackendKind kind() const noexcept override {
    return inner_->kind();
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] flstore::backend::OpStats stats() const override {
    return inner_->stats();
  }

  [[nodiscard]] Counters counters() const;

 private:
  void book(std::atomic<std::uint64_t>& calls, std::atomic<std::int64_t>& ns,
            std::int64_t start_ns);

  flstore::backend::StorageBackend* inner_;
  SpanLog* log_;
  std::atomic<std::uint64_t> get_calls_{0};
  std::atomic<std::uint64_t> put_calls_{0};
  std::atomic<std::int64_t> get_ns_{0};
  std::atomic<std::int64_t> put_ns_{0};
  std::atomic<std::uint64_t> bytes_read_{0};
  std::atomic<std::uint64_t> bytes_written_{0};
};

}  // namespace perfbench
