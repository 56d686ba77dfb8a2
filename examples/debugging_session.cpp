// FedDebug-style post-training debugging session (the P2/P3 story of §2.1).
//
// A model regression is reported after training finished. The operator
// replays differential tests round by round to locate when a poisoner
// slipped in, then traces that client's lineage across its participation
// history — all served by FLStore long after the aggregator would have been
// torn down.
//
//   ./examples/debugging_session
#include <cstdio>

#include "backend/object_store_backend.hpp"
#include "common/table.hpp"
#include "core/flstore.hpp"
#include "fed/fl_job.hpp"
#include "fed/trace.hpp"
#include "sim/calibration.hpp"

using namespace flstore;

int main() {
  fed::FLJobConfig job_cfg;
  job_cfg.model = "resnet18";
  job_cfg.pool_size = 120;
  job_cfg.clients_per_round = 10;
  job_cfg.rounds = 40;
  job_cfg.malicious_fraction = 0.08;
  fed::FLJob job(job_cfg);

  backend::ObjectStoreBackend cold(sim::objstore_link(), PricingCatalog::aws());
  core::FLStore store(core::FLStoreConfig{}, job, cold);

  // Training already happened; FLStore has the full history in its cold
  // store, with only the tailored working set warm.
  for (RoundId r = 0; r < job_cfg.rounds; ++r) {
    store.ingest_round(job.make_round(r), 180.0 * r);
  }
  double now = 180.0 * job_cfg.rounds;
  RequestId next_id = 1;

  // Phase 1: sweep the last 10 rounds with differential debugging; the
  // P2 policy bulk-fetches each round once and prefetches the next, so
  // only the first replayed round pays a cold-store trip.
  std::printf("== Phase 1: differential testing over the last 10 rounds ==\n");
  Table sweep({"round", "suspect", "deviation", "latency (s)", "misses"});
  ClientId suspect = kNoClient;
  double worst_deviation = -1.0;
  for (RoundId r = job_cfg.rounds - 10; r < job_cfg.rounds; ++r) {
    fed::NonTrainingRequest req{next_id++, fed::WorkloadType::kDebugging, r,
                                kNoClient, now};
    const auto res = store.serve(req, now);
    now += 5.0;
    const auto round_suspect =
        res.output.selected.empty() ? kNoClient : res.output.selected.front();
    if (res.output.scalar > worst_deviation) {
      worst_deviation = res.output.scalar;
      suspect = round_suspect;
    }
    sweep.add_row({std::to_string(r), std::to_string(round_suspect),
                   fmt(res.output.scalar, 3), fmt(res.latency_s, 2),
                   std::to_string(res.misses)});
  }
  std::printf("%s", sweep.to_string().c_str());

  // Phase 2: lineage of the final suspect across its participation history
  // (P3: each request prefetches the next participation round).
  std::printf("\n== Phase 2: provenance trail of client %d ==\n", suspect);
  Table trail({"round", "lineage link", "latency (s)", "misses"});
  const auto p3 = fed::table2_p3_trace(suspect, 8, job);
  for (auto req : p3) {
    req.id = next_id++;
    const auto res = store.serve(req, now);
    now += 2.0;
    trail.add_row({std::to_string(req.round), fmt(res.output.scalar, 0),
                   fmt(res.latency_s, 2), std::to_string(res.misses)});
  }
  std::printf("%s", trail.to_string().c_str());

  const bool truly_malicious =
      suspect != kNoClient && job.client(suspect).malicious();
  std::printf(
      "\nVerdict: client %d is %s (ground truth). Cache served %llu of %llu"
      " accesses warm.\n",
      suspect, truly_malicious ? "a planted poisoner" : "clean",
      static_cast<unsigned long long>(store.engine().hits()),
      static_cast<unsigned long long>(store.engine().hits() +
                                      store.engine().misses()));
  return 0;
}
