#include "decorators.hpp"

#include <exception>

#include "fed/codec.hpp"

namespace perfbench {

using namespace flstore;

void TimingAdapter::ingest(const fed::RoundRecord& record, double now) {
  // The logical size of every object the round carries: what a backup of
  // the round writes once (backend.write_amplification divides by this).
  double bytes = static_cast<double>(record.model_bytes) +
                 static_cast<double>(fed::kRoundInfoLogicalBytes) +
                 static_cast<double>(record.metrics.size()) *
                     static_cast<double>(fed::kMetricsLogicalBytes);
  for (const auto& u : record.updates) {
    bytes += static_cast<double>(u.logical_bytes);
  }
  ingested_bytes_ += bytes;
  SpanScope span(log_, "core.ingest", static_cast<std::uint64_t>(record.round));
  inner_->ingest(record, now);
}

sim::ServingAdapter::Outcome TimingAdapter::serve(
    const fed::NonTrainingRequest& req, double now) {
  Outcome out;
  const std::int64_t start = now_ns();
  try {
    SpanScope span(log_, "core.serve", req.id);
    out = inner_->serve(req, now);
  } catch (const std::exception&) {
    ++failures_;
    out = Outcome{};
  }
  serve_wall_us_.push_back(static_cast<double>(now_ns() - start) * 1e-3);
  return out;
}

void TimingBackend::book(std::atomic<std::uint64_t>& calls,
                         std::atomic<std::int64_t>& ns,
                         std::int64_t start_ns) {
  calls.fetch_add(1, std::memory_order_relaxed);
  ns.fetch_add(now_ns() - start_ns, std::memory_order_relaxed);
}

backend::PutResult TimingBackend::put(const std::string& name, Blob blob,
                                      units::Bytes logical_bytes, double now) {
  const auto bytes = backend::effective_logical(blob, logical_bytes);
  const std::int64_t start = now_ns();
  backend::PutResult res;
  {
    SpanScope span(log_, "backend.put");
    res = inner_->put(name, std::move(blob), logical_bytes, now);
  }
  book(put_calls_, put_ns_, start);
  bytes_written_.fetch_add(bytes, std::memory_order_relaxed);
  return res;
}

backend::BatchPutResult TimingBackend::put_batch(
    std::vector<backend::PutRequest> batch, double now) {
  units::Bytes bytes = 0;
  for (const auto& item : batch) {
    bytes += backend::effective_logical(item.blob, item.logical_bytes);
  }
  const std::int64_t start = now_ns();
  backend::BatchPutResult res;
  {
    SpanScope span(log_, "backend.put");
    res = inner_->put_batch(std::move(batch), now);
  }
  book(put_calls_, put_ns_, start);
  bytes_written_.fetch_add(bytes, std::memory_order_relaxed);
  return res;
}

backend::GetResult TimingBackend::get(const std::string& name, double now) {
  const std::int64_t start = now_ns();
  backend::GetResult res;
  {
    SpanScope span(log_, "backend.get");
    res = inner_->get(name, now);
  }
  book(get_calls_, get_ns_, start);
  if (res.found) {
    bytes_read_.fetch_add(res.logical_bytes, std::memory_order_relaxed);
  }
  return res;
}

TimingBackend::Counters TimingBackend::counters() const {
  Counters c;
  c.get_calls = get_calls_.load();
  c.put_calls = put_calls_.load();
  c.get_busy_s = static_cast<double>(get_ns_.load()) * 1e-9;
  c.put_busy_s = static_cast<double>(put_ns_.load()) * 1e-9;
  c.bytes_read = static_cast<double>(bytes_read_.load());
  c.bytes_written = static_cast<double>(bytes_written_.load());
  return c;
}

}  // namespace perfbench
