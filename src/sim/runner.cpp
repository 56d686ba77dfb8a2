#include "sim/runner.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <optional>
#include <thread>

#if defined(__linux__)
#include <sys/resource.h>
#include <unistd.h>
#endif

#include "common/error.hpp"
#include "common/mutex.hpp"

namespace flstore::sim {

namespace {

class FLStoreAdapter final : public ServingAdapter {
 public:
  explicit FLStoreAdapter(core::FLStore& store) : store_(&store) {}

  void ingest(const fed::RoundRecord& record, double now) override {
    store_->ingest_round(record, now);
  }
  Outcome serve(const fed::NonTrainingRequest& req, double now) override {
    const auto res = store_->serve(req, now);
    return {res.comm_s, res.comp_s, res.cost_usd, res.hits, res.misses};
  }
  [[nodiscard]] double infrastructure_cost(double seconds) const override {
    return store_->infrastructure_cost(seconds);
  }
  [[nodiscard]] std::string name() const override {
    return core::to_string(store_->config().policy.mode);
  }
  [[nodiscard]] core::FLStore* flstore() noexcept { return store_; }

 private:
  core::FLStore* store_;
};

class BaselineAdapter final : public ServingAdapter {
 public:
  explicit BaselineAdapter(baselines::AggregatorBaseline& baseline)
      : baseline_(&baseline) {}

  void ingest(const fed::RoundRecord& record, double now) override {
    baseline_->ingest_round(record, now);
  }
  Outcome serve(const fed::NonTrainingRequest& req, double now) override {
    const auto res = baseline_->serve(req, now);
    return {res.comm_s, res.comp_s, res.cost_usd, res.cache_hits,
            res.cache_misses};
  }
  [[nodiscard]] double infrastructure_cost(double seconds) const override {
    return baseline_->infrastructure_cost(seconds);
  }
  [[nodiscard]] std::string name() const override { return baseline_->name(); }

 private:
  baselines::AggregatorBaseline* baseline_;
};

/// Builds rounds 0..last of a job, in order, on one background thread, up to
/// kDepth rounds ahead of the replay loop. Round r is a pure function of
/// (seed, r), so a round built ahead of its ingest event, on either thread,
/// is exactly the round the inline build makes; the producer only takes
/// round synthesis off the thread that ingests and serves.
///
/// The replay loop never waits for the producer: take(r) hands over round r
/// when it is ready and otherwise builds it on the caller's thread, and the
/// producer then skips past r. Waiting would tie each ingest to when the
/// producer last got a CPU, so a busy host or the producer's low priority
/// would turn into replay stalls that differ from run to run; building
/// inline instead costs at most what the replay paid before the producer
/// existed. It also keeps make_round's errors where the inline build had
/// them: the producer just stops at its first exception, and the replay's
/// own make_round(r) throws at round r's ingest event.
///
/// The destructor stops the producer and joins it, so it runs on every way
/// out of run_trace.
class RoundPrefetcher {
 public:
  RoundPrefetcher(const fed::FLJob& job, RoundId last)
      : job_(job), last_(last), producer_([this] { produce(); }) {}

  ~RoundPrefetcher() {
    {
      const MutexLock lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    producer_.join();
  }

  RoundPrefetcher(const RoundPrefetcher&) = delete;
  RoundPrefetcher& operator=(const RoundPrefetcher&) = delete;
  RoundPrefetcher(RoundPrefetcher&&) = delete;
  RoundPrefetcher& operator=(RoundPrefetcher&&) = delete;

  /// Round r, which must be the round after the last one taken (0 first).
  fed::RoundRecord take(RoundId r) EXCLUDES(mu_) {
    std::optional<fed::RoundRecord> record;
    bool refill = false;
    {
      const MutexLock lock(mu_);
      FLSTORE_CHECK(r == next_);
      next_ = r + 1;
      // The queue holds consecutive rounds from next_ on: the producer
      // pushes round p only while p >= next_.
      if (!ready_.empty()) {
        FLSTORE_CHECK(ready_.front().round == r);
        record = std::move(ready_.front());
        ready_.pop_front();
      }
      refill = ready_.size() == kDepth / 2;
    }
    // Waking the producer at half depth, not per round, lets it build in
    // bursts of kDepth / 2 rounds with one wake-up each.
    if (refill) cv_.notify_all();
    return record ? std::move(*record) : job_.make_round(r);
  }

 private:
  static constexpr std::size_t kDepth = 16;

  void produce() EXCLUDES(mu_) {
#if defined(__linux__)
    // Linux applies a thread id's nice value to that thread alone. Nice 19
    // keeps the producer from taking CPU the serving thread could use; if
    // the call fails, the producer just runs at normal priority.
    (void)setpriority(PRIO_PROCESS, static_cast<id_t>(gettid()), 19);
#endif
    for (RoundId r = 0;; ++r) {
      {
        const MutexLock lock(mu_);
        while (!stop_ && ready_.size() >= kDepth) cv_.wait(mu_);
        if (stop_) return;
        r = std::max(r, next_);  // skip rounds the replay built itself
        if (r > last_) return;
      }
      fed::RoundRecord record;
      try {
        record = job_.make_round(r);
      } catch (...) {
        return;  // the replay builds round r itself and throws there
      }
      const MutexLock lock(mu_);
      if (r >= next_) ready_.push_back(std::move(record));
    }
  }

  const fed::FLJob& job_;
  const RoundId last_;
  Mutex mu_;
  CondVar cv_;  ///< the producer waits here for room in the queue
  std::deque<fed::RoundRecord> ready_ GUARDED_BY(mu_);
  RoundId next_ GUARDED_BY(mu_) = 0;  ///< the next round take() hands out
  bool stop_ GUARDED_BY(mu_) = false;
  std::thread producer_;  ///< last: starts once the state above exists
};

enum class EventType : int { kIngest = 0, kFault = 1, kRequest = 2 };

struct TimelineEvent {
  double time = 0.0;
  EventType type = EventType::kIngest;
  std::size_t index = 0;  ///< round id / fault index / request index
};

}  // namespace

std::unique_ptr<ServingAdapter> adapt(core::FLStore& store) {
  return std::make_unique<FLStoreAdapter>(store);
}

std::unique_ptr<ServingAdapter> adapt(
    baselines::AggregatorBaseline& baseline) {
  return std::make_unique<BaselineAdapter>(baseline);
}

double RunResult::total_latency_s() const {
  double t = 0.0;
  for (const auto& r : records) t += r.latency_s();
  return t;
}
double RunResult::total_comm_s() const {
  double t = 0.0;
  for (const auto& r : records) t += r.comm_s;
  return t;
}
double RunResult::total_comp_s() const {
  double t = 0.0;
  for (const auto& r : records) t += r.comp_s;
  return t;
}
double RunResult::total_serving_usd() const {
  double t = 0.0;
  for (const auto& r : records) t += r.cost_usd;
  return t;
}
std::uint64_t RunResult::total_hits() const {
  std::uint64_t t = 0;
  for (const auto& r : records) t += r.hits;
  return t;
}
std::uint64_t RunResult::total_misses() const {
  std::uint64_t t = 0;
  for (const auto& r : records) t += r.misses;
  return t;
}

RunResult run_trace(ServingAdapter& system, fed::FLJob& job,
                    const std::vector<fed::NonTrainingRequest>& trace,
                    double duration_s, double round_interval_s,
                    const RunnerOptions& options) {
  FLSTORE_CHECK(duration_s > 0.0);
  FLSTORE_CHECK(round_interval_s > 0.0);

  RunResult result;
  result.system = system.name();
  result.duration_s = duration_s;

  const auto max_round = std::min<RoundId>(
      job.latest_round(),
      static_cast<RoundId>(std::floor(duration_s / round_interval_s)));
  // Starts building rounds now, while the timeline below is assembled.
  RoundPrefetcher rounds(job, max_round);

  std::vector<TimelineEvent> events;
  events.reserve(static_cast<std::size_t>(max_round + 1) + trace.size() +
                 options.faults.size());
  for (RoundId r = 0; r <= max_round; ++r) {
    events.push_back({static_cast<double>(r) * round_interval_s,
                      EventType::kIngest, static_cast<std::size_t>(r)});
  }
  for (std::size_t i = 0; i < trace.size(); ++i) {
    events.push_back({trace[i].arrival_s, EventType::kRequest, i});
  }
  for (std::size_t i = 0; i < options.faults.size(); ++i) {
    events.push_back({options.faults[i].time_s, EventType::kFault, i});
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const TimelineEvent& a, const TimelineEvent& b) {
                     if (a.time != b.time) return a.time < b.time;
                     return static_cast<int>(a.type) < static_cast<int>(b.type);
                   });

  auto* flstore_adapter = dynamic_cast<FLStoreAdapter*>(&system);
  std::vector<double> server_free(
      options.servers > 0 ? static_cast<std::size_t>(options.servers) : 0,
      0.0);

  result.records.reserve(trace.size());
  for (const auto& ev : events) {
    switch (ev.type) {
      case EventType::kIngest: {
        const auto record = rounds.take(static_cast<RoundId>(ev.index));
        system.ingest(record, ev.time);
        break;
      }
      case EventType::kFault: {
        if (flstore_adapter != nullptr) {
          (void)flstore_adapter->flstore()->inject_fault(
              options.faults[ev.index].victim_rank);
        }
        break;
      }
      case EventType::kRequest: {
        const auto& req = trace[ev.index];
        RequestRecord rec;
        rec.request = req;
        double start = ev.time;
        std::size_t server = 0;
        if (!server_free.empty()) {
          server = static_cast<std::size_t>(
              std::min_element(server_free.begin(), server_free.end()) -
              server_free.begin());
          start = std::max(start, server_free[server]);
          rec.queue_s = start - ev.time;
        }
        const auto outcome = system.serve(req, start);
        rec.comm_s = outcome.comm_s;
        rec.comp_s = outcome.comp_s;
        rec.cost_usd = outcome.cost_usd;
        rec.hits = outcome.hits;
        rec.misses = outcome.misses;
        if (!server_free.empty()) {
          server_free[server] = start + outcome.comm_s + outcome.comp_s;
        }
        result.records.push_back(rec);
        break;
      }
    }
  }

  result.infrastructure_usd = system.infrastructure_cost(duration_s);
  return result;
}

}  // namespace flstore::sim
