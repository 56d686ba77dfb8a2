// Post-training incentive audit (the §2.1 incentivization workload).
//
// After a 30-round job, an auditor settles per-round payouts, checks that
// no planted poisoner was ever paid, and builds reputations for the most
// active clients. Everything runs on FLStore's serverless cache — no
// aggregator VM needs to exist anymore.
//
//   ./examples/incentive_audit
#include <cstdio>
#include <map>

#include "backend/object_store_backend.hpp"
#include "common/table.hpp"
#include "core/flstore.hpp"
#include "fed/fl_job.hpp"
#include "sim/calibration.hpp"

using namespace flstore;

int main() {
  fed::FLJobConfig job_cfg;
  job_cfg.model = "mobilenet_v3_small";
  job_cfg.pool_size = 100;
  job_cfg.clients_per_round = 10;
  job_cfg.rounds = 30;
  fed::FLJob job(job_cfg);

  backend::ObjectStoreBackend cold(sim::objstore_link(), PricingCatalog::aws());
  core::FLStore store(core::FLStoreConfig{}, job, cold);
  for (RoundId r = 0; r < job_cfg.rounds; ++r) {
    store.ingest_round(job.make_round(r), 60.0 * r);
  }

  double now = 60.0 * job_cfg.rounds;
  RequestId next_id = 1;
  std::map<ClientId, double> total_payout;
  std::map<ClientId, int> participations;
  double total_latency = 0.0;
  double total_cost = 0.0;
  std::size_t poisoner_payouts = 0;

  // Settle every round. The P2 policy walks the rounds sequentially —
  // exactly the iterative pattern its prefetching is built for.
  for (RoundId r = 0; r < job_cfg.rounds; ++r) {
    fed::NonTrainingRequest req{next_id++, fed::WorkloadType::kIncentives, r,
                                kNoClient, now};
    const auto res = store.serve(req, now);
    now += 3.0;
    total_latency += res.latency_s;
    total_cost += res.cost_usd;
    for (std::size_t i = 0; i < res.output.clients.size(); ++i) {
      const auto c = res.output.clients[i];
      total_payout[c] += res.output.per_client[i];
      ++participations[c];
      if (res.output.per_client[i] > 0.0 && job.client(c).malicious()) {
        ++poisoner_payouts;
      }
    }
  }

  // Top earners table.
  std::vector<std::pair<ClientId, double>> ranked(total_payout.begin(),
                                                  total_payout.end());
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  Table table({"client", "rounds", "payout units", "malicious?"});
  for (std::size_t i = 0; i < std::min<std::size_t>(8, ranked.size()); ++i) {
    const auto [client, payout] = ranked[i];
    table.add_row({std::to_string(client),
                   std::to_string(participations[client]), fmt(payout, 1),
                   job.client(client).malicious() ? "yes" : "no"});
  }
  std::printf("%s", table.to_string().c_str());
  std::printf(
      "\nSettled %d rounds in %.1f s of serving time for %s total; planted"
      " poisoners received a payout %zu times (expected 0).\n",
      job_cfg.rounds, total_latency, fmt_usd(total_cost).c_str(),
      poisoner_payouts);
  return poisoner_payouts == 0 ? 0 : 1;
}
