#include "fed/fl_job.hpp"

#include <cmath>

#include "common/error.hpp"
#include "fed/aggregator.hpp"
#include "tensor/ops.hpp"

namespace flstore::fed {

namespace {

/// The fixed, unit-norm part of every round's descent direction. It depends
/// only on the job seed, so it is drawn once per job, not once per round.
Tensor unit_base_direction(std::uint64_t seed, std::size_t dim) {
  Rng base_rng(seed ^ 0xD1FEC710ULL);
  auto base = ops::random_normal(dim, base_rng);
  ops::scale(base, 1.0 / ops::l2_norm(base));
  return base;
}

}  // namespace

FLJob::FLJob(FLJobConfig config)
    : config_(std::move(config)),
      model_(&ModelZoo::instance().get(config_.model)),
      unit_base_(unit_base_direction(config_.seed,
                                     model_->materialized_dim())) {
  FLSTORE_CHECK(config_.pool_size > 0);
  FLSTORE_CHECK(config_.clients_per_round > 0);
  FLSTORE_CHECK(config_.clients_per_round <= config_.pool_size);
  FLSTORE_CHECK(config_.rounds > 0);
  FLSTORE_CHECK(config_.malicious_fraction >= 0.0 &&
                config_.malicious_fraction < 1.0);

  const auto dim = model_->materialized_dim();
  clients_.reserve(static_cast<std::size_t>(config_.pool_size));
  // Behavior assignment is deterministic round-robin over the pool: the
  // first ceil(f*N) ids after a fixed offset are malicious, the next chunk
  // stragglers. Using fixed ids (not a random draw) keeps ground truth
  // trivially recoverable in tests.
  const auto n_mal = static_cast<ClientId>(
      std::ceil(config_.malicious_fraction * config_.pool_size));
  const auto n_strag = static_cast<ClientId>(
      std::ceil(config_.straggler_fraction * config_.pool_size));
  for (ClientId id = 0; id < config_.pool_size; ++id) {
    ClientBehavior b = ClientBehavior::kHonest;
    if (id < n_mal) {
      b = ClientBehavior::kMalicious;
    } else if (id < n_mal + n_strag) {
      b = ClientBehavior::kStraggler;
    }
    clients_.emplace_back(id, dim, b, config_.seed);
  }
  participants_cache_.resize(static_cast<std::size_t>(config_.rounds));
}

const SimClient& FLJob::client(ClientId id) const {
  FLSTORE_CHECK(id >= 0 && static_cast<std::size_t>(id) < clients_.size());
  return clients_[static_cast<std::size_t>(id)];
}

std::vector<ClientId> FLJob::malicious_clients() const {
  std::vector<ClientId> out;
  for (const auto& c : clients_) {
    if (c.malicious()) out.push_back(c.id());
  }
  return out;
}

std::vector<ClientId> FLJob::participants(RoundId r) const {
  if (r < 0 || r >= config_.rounds) return {};
  // The memo is guarded: one FLJob may back several serving-plane tenants
  // whose discrete-event tasks run on pool threads concurrently.
  const MutexLock lock(participants_mu_);
  auto& cached = participants_cache_[static_cast<std::size_t>(r)];
  if (!cached.empty()) return cached;
  Rng rng(config_.seed ^ (static_cast<std::uint64_t>(r) * 0x51DEC0DEULL) ^
          0xA11CE);
  cached = rng.sample_without_replacement(config_.pool_size,
                                          config_.clients_per_round);
  return cached;
}

Tensor FLJob::global_direction(RoundId r) const {
  // Smoothly drifting descent direction: a fixed base plus a slowly
  // rotating component, so consecutive rounds correlate (as real training
  // trajectories do) but distant rounds differ.
  const auto dim = model_->materialized_dim();
  auto base = unit_base_;
  Rng drift_rng(config_.seed ^
                ((static_cast<std::uint64_t>(r) / 25 + 1) * 0x5EEDBEEFULL));
  auto drift = ops::random_normal(dim, drift_rng);
  ops::scale(drift, 1.0 / ops::l2_norm(drift));
  ops::axpy(0.35, drift, base);
  ops::scale(base, 1.0 / ops::l2_norm(base));
  // Update magnitude decays as training converges.
  const double progress =
      static_cast<double>(r) / static_cast<double>(config_.rounds);
  ops::scale(base, std::exp(-1.0 * progress) + 0.2);
  return base;
}

Hyperparameters FLJob::hyperparameters(RoundId r) const {
  Hyperparameters h;
  // Step decay every 250 rounds, standard cross-device schedule.
  h.learning_rate = 0.05 * std::pow(0.5, static_cast<double>(r / 250));
  h.batch_size = 32;
  h.momentum = 0.9;
  h.local_epochs = 2;
  return h;
}

RoundRecord FLJob::make_round(RoundId r) const {
  FLSTORE_CHECK(r >= 0 && r < config_.rounds);
  RoundRecord rec;
  rec.round = r;
  rec.hparams = hyperparameters(r);
  rec.model_bytes = model_->object_bytes;

  const auto direction = global_direction(r);
  const double progress =
      static_cast<double>(r) / static_cast<double>(config_.rounds);

  Rng round_rng(config_.seed ^ (static_cast<std::uint64_t>(r) + 1) *
                                   0xBADC0DEULL);
  for (const auto cid : participants(r)) {
    auto out = client(cid).train_round(r, direction, progress,
                                       model_->object_bytes,
                                       model_->gflops_forward, round_rng);
    rec.updates.push_back(std::move(out.update));
    rec.metrics.push_back(out.metrics);
  }
  rec.aggregate = fedavg(rec.updates);
  rec.global_loss = 2.3 * std::exp(-2.2 * progress);
  return rec;
}

}  // namespace flstore::fed
