// perfbench — the FLStore benchmark program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-dir <dir>]
//
// Runs one workload for about --seconds of wall time, prints every metric it
// measured as "name value unit" lines, then as its last line one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
// are the end-to-end set, with --trace 1 the per-layer set (a layer the
// workload does not exercise reads 0). Failed output checks go to stderr and
// make "correct" false.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <span>
#include <string>

#include "workloads.hpp"

namespace {

struct Declared {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json (run.py checks that they agree).
constexpr Declared kEndToEnd[] = {
    {"ops_per_s", "1/s"},       {"op_wall_p50_us", "us"},
    {"op_wall_p99_us", "us"},   {"setup_s", "s"},
    {"peak_rss_mb", "MB"},      {"served_fraction", "fraction"},
};

constexpr Declared kPerLayer[] = {
    {"sim.run_trace.self_s", "s"},
    {"sim.latency_p50_s", "s"},
    {"sim.latency_p99_s", "s"},
    {"sim.cost_per_request_usd", "usd"},
    {"sim.slo_attainment", "fraction"},
    {"core.ingest.calls", "count"},
    {"core.ingest.busy_s", "s"},
    {"core.serve.busy_s", "s"},
    {"core.serve.self_s", "s"},
    {"cache.hits", "count"},
    {"cache.misses", "count"},
    {"cache.hit_rate", "fraction"},
    {"cache.forced_evictions", "count"},
    {"cache.resident_bytes", "B"},
    {"backend.get.calls", "count"},
    {"backend.get.busy_s", "s"},
    {"backend.put.calls", "count"},
    {"backend.put.busy_s", "s"},
    {"backend.bytes_read", "B"},
    {"backend.bytes_written", "B"},
    {"backend.write_amplification", "ratio"},
    {"codec.decode.calls", "count"},
    {"codec.decode.bytes", "B"},
    {"codec.decode.busy_s", "s"},
    {"workloads.keys_per_request", "count"},
    {"workloads.execute.busy_s.p1", "s"},
    {"workloads.execute.busy_s.p2", "s"},
    {"workloads.execute.busy_s.p3", "s"},
    {"workloads.execute.busy_s.p4", "s"},
    {"arrivals.count", "count"},
    {"arrivals.ns_per_arrival", "ns"},
    {"scheduler.queue_wait_mean_s", "s"},
    {"scheduler.queue_wait_p99_s", "s"},
    {"scheduler.peak_queued", "count"},
    {"scheduler.rejected", "count"},
    {"coalescer.leads", "count"},
    {"coalescer.joins", "count"},
    {"coalescer.join_ratio", "fraction"},
    {"thread_pool.parallelism", "ratio"},
    {"hot.get.p99_us", "us"},
    {"hot.put.p99_us", "us"},
    {"hot.evict.p99_us", "us"},
    {"hot.put.rejected", "count"},
    {"hot.sync.busy_s", "s"},
    {"obs.spans_recorded", "count"},
    {"obs.overhead_fraction", "fraction"},
    {"trace.overhead_fraction", "fraction"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-dir <dir>]\n",
               why);
  std::exit(2);
}

perfbench::RunOptions parse(int argc, char** argv) {
  perfbench::RunOptions o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        o.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        o.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value);
      } else if (flag == "--trace") {
        o.trace = std::stoi(value) != 0;
      } else if (flag == "--trace-dir") {
        o.trace_dir = value;
      } else {
        usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + flag).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = parse(argc, argv);
  perfbench::RunOutcome out;
  try {
    out = perfbench::run_workload(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  for (const auto& [name, metric] : out.metrics) {
    std::printf("%-32s %.6g %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
  }
  for (const auto& failure : out.check_failures) {
    std::fprintf(stderr, "check failed: %s\n", failure.c_str());
  }

  std::string json = "{\"correct\": ";
  json += out.check_failures.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  bool first = true;
  const std::span<const Declared> declared =
      options.trace ? std::span<const Declared>(kPerLayer)
                    : std::span<const Declared>(kEndToEnd);
  for (const auto& d : declared) {
    const auto it = out.metrics.find(d.name);
    double value = 0.0;  // a layer this workload does not exercise
    if (it != out.metrics.end()) {
      value = it->second.value;
      if (it->second.unit != d.unit) {
        std::fprintf(stderr, "perfbench: %s measured in %s, declared %s\n",
                     d.name, it->second.unit.c_str(), d.unit);
        return 1;
      }
    } else if (!options.trace) {
      std::fprintf(stderr, "perfbench: %s was not measured\n", d.name);
      return 1;
    }
    if (!std::isfinite(value)) {
      std::fprintf(stderr, "perfbench: %s is not finite\n", d.name);
      return 1;
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    json += std::string(first ? "" : ", ") + "\"" + d.name +
            "\": {\"value\": " + buf + ", \"unit\": \"" + d.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
