// Checks on the benchmark itself: the timing decorators change no simulated
// result, a fixed seed repeats every deterministic count and sim.* metric,
// another seed keeps each workload's character, and span self times add up.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr std::uint64_t kSeed = 42;
constexpr std::uint64_t kOtherSeed = 7;

TEST(Decorators, PaperFitRecordsBitIdentical) {
  auto plain_in = make_paper_inputs(false, kSeed);
  const auto plain = run_paper_pass(plain_in, false, nullptr);
  SpanLog log(true);
  auto timed_in = make_paper_inputs(false, kSeed);
  const auto timed = run_paper_pass(timed_in, true, &log);
  EXPECT_EQ(plain.run.records.size(), plain_in.trace.size());
  EXPECT_TRUE(identical(plain.run, timed.run));
  EXPECT_EQ(plain.cache.hits, timed.cache.hits);
  EXPECT_EQ(plain.cache.misses, timed.cache.misses);
  EXPECT_GT(timed.backend.put_calls, 0U);
  EXPECT_EQ(timed.serve_wall_us.size(), timed_in.trace.size());
  EXPECT_GT(log.size(), 0U);
}

TEST(Decorators, TenantPlaneRecordsBitIdentical) {
  auto plain_in = make_tenant_inputs(kSeed);
  const auto plain = run_tenant_pass(plain_in, false, true, nullptr);
  SpanLog log(true);
  auto timed_in = make_tenant_inputs(kSeed);
  const auto timed = run_tenant_pass(timed_in, true, true, &log);
  EXPECT_GT(plain.report.completed(), 0U);
  EXPECT_TRUE(identical(plain.report, timed.report));
  EXPECT_EQ(plain.cache.hits, timed.cache.hits);
  EXPECT_EQ(plain.cache.misses, timed.cache.misses);
  EXPECT_GT(timed.backend.get_calls, 0U);
}

/// Metrics that are counts of deterministic work or simulated-time results:
/// they must repeat exactly for a fixed seed. (Cache ledgers of hot_mixed
/// depend on thread interleaving and are not among them.)
const std::vector<std::string>& deterministic_metrics(const std::string& w) {
  static const std::vector<std::string> paper{
      "sim.latency_p50_s", "sim.latency_p99_s", "sim.cost_per_request_usd",
      "sim.slo_attainment", "core.ingest.calls", "cache.hits", "cache.misses",
      "cache.forced_evictions", "cache.resident_bytes", "backend.get.calls",
      "backend.put.calls", "backend.bytes_read", "backend.bytes_written",
      "backend.write_amplification", "codec.decode.calls",
      "codec.decode.bytes", "workloads.keys_per_request"};
  static const std::vector<std::string> tenant{
      "sim.latency_p50_s", "sim.latency_p99_s", "sim.cost_per_request_usd",
      "sim.slo_attainment", "arrivals.count", "scheduler.queue_wait_mean_s",
      "scheduler.queue_wait_p99_s", "scheduler.peak_queued",
      "scheduler.rejected", "coalescer.leads", "coalescer.joins",
      "cache.hits", "cache.misses", "cache.resident_bytes",
      "backend.get.calls", "backend.bytes_read", "obs.spans_recorded",
      "codec.decode.calls", "codec.decode.bytes",
      "workloads.keys_per_request"};
  static const std::vector<std::string> none;
  if (w == "paper_fit" || w == "paper_limited") return paper;
  if (w == "tenant_plane") return tenant;
  return none;
}

class FixedSeed : public ::testing::TestWithParam<std::string> {};

TEST_P(FixedSeed, RepeatsEveryCountAndSimMetric) {
  RunOptions o;
  o.workload = GetParam();
  o.seed = kSeed;
  o.seconds = 0.01;  // the minimum number of passes
  o.trace = true;
  const auto a = run_workload(o);
  const auto b = run_workload(o);
  EXPECT_TRUE(a.check_failures.empty()) << a.check_failures.front();
  EXPECT_TRUE(b.check_failures.empty()) << b.check_failures.front();
  EXPECT_EQ(a.attempted, b.attempted);
  EXPECT_EQ(a.failed, 0U);
  EXPECT_TRUE(a.metrics.contains("trace.overhead_fraction"));
  for (const auto& name : deterministic_metrics(o.workload)) {
    ASSERT_TRUE(a.metrics.contains(name)) << name;
    EXPECT_EQ(a.metrics.at(name).value, b.metrics.at(name).value) << name;
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, FixedSeed,
                         ::testing::Values("paper_fit", "paper_limited",
                                           "tenant_plane", "hot_mixed"));

TEST(OtherSeed, KeepsEachWorkloadsCharacter) {
  for (const auto seed : {kSeed, kOtherSeed}) {
    auto fit_in = make_paper_inputs(false, seed);
    const auto fit = run_paper_pass(fit_in, true, nullptr);
    const double fit_hits = static_cast<double>(fit.run.total_hits());
    EXPECT_GT(fit_hits / (fit_hits + static_cast<double>(fit.run.total_misses())),
              0.99)
        << "paper_fit, seed " << seed;

    auto lim_in = make_paper_inputs(true, seed);
    const auto lim = run_paper_pass(lim_in, true, nullptr);
    const double lim_misses = static_cast<double>(lim.run.total_misses());
    EXPECT_GT(lim_misses /
                  (lim_misses + static_cast<double>(lim.run.total_hits())),
              0.5)
        << "paper_limited, seed " << seed;

    HotBench hot(seed, 20'000);
    (void)hot.run_pass(nullptr, nullptr);
    const auto totals = hot.sync_and_totals(nullptr);
    EXPECT_GT(totals.cache.forced_evictions, 0U) << "hot_mixed, seed " << seed;
    EXPECT_EQ(totals.ledger_accesses, totals.gets);
  }
}

TEST(Spans, SelfTimeIsDurationMinusChildren) {
  // parent [0, 100) with children [10, 30) and [50, 60): self = 70 ns.
  std::vector<Span> spans{{"p", 0, 100, 1, kNoSpan, 0},
                          {"c", 10, 30, 2, 1, 0},
                          {"c", 50, 60, 3, 1, 0}};
  const auto totals = totals_by_name(spans);
  EXPECT_DOUBLE_EQ(totals.at("p").self_s, 70e-9);
  EXPECT_DOUBLE_EQ(totals.at("c").busy_s, 30e-9);
  EXPECT_EQ(totals.at("c").calls, 2U);
  EXPECT_EQ(inconsistent_spans(spans, "p"), 0U);

  // Overlapping children (other threads) count once in self time but break
  // the sequential accounting the check asks of core.serve.
  spans.push_back({"c", 20, 40, 4, 1, 0});
  EXPECT_DOUBLE_EQ(totals_by_name(spans).at("p").self_s, 60e-9);
  EXPECT_EQ(inconsistent_spans(spans, "p"), 1U);
}

TEST(Spans, ScopesNestOnOneThreadAndDisabledLogRecordsNothing) {
  SpanLog off(false);
  { SpanScope s(&off, "x"); }
  EXPECT_EQ(off.size(), 0U);

  SpanLog log(true);
  {
    SpanScope outer(&log, "outer", 9);
    SpanScope inner(&log, "inner", 9);
  }
  const auto spans = log.spans();
  ASSERT_EQ(spans.size(), 2U);
  const Span& outer = spans[0].parent == kNoSpan ? spans[0] : spans[1];
  const Span& inner = spans[0].parent == kNoSpan ? spans[1] : spans[0];
  EXPECT_STREQ(outer.name, "outer");
  EXPECT_EQ(inner.parent, outer.id);
  EXPECT_EQ(inner.request, 9U);
  EXPECT_EQ(inconsistent_spans(spans, "outer"), 0U);
}

}  // namespace
}  // namespace perfbench
