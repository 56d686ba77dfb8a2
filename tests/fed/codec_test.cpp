#include "fed/codec.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "tensor/ops.hpp"
#include "tensor/serialize.hpp"

namespace flstore::fed {
namespace {

ClientUpdate sample_update() {
  Rng rng(1);
  ClientUpdate u;
  u.client = 17;
  u.round = 42;
  u.delta = ops::random_normal(128, rng);
  u.logical_bytes = 85 * units::MB;
  u.num_samples = 512;
  return u;
}

TEST(Codec, UpdateRoundTrip) {
  const auto u = sample_update();
  EXPECT_EQ(decode_update(encode_update(u)), u);
}

TEST(Codec, AggregateRoundTrip) {
  Rng rng(2);
  const auto model = ops::random_normal(64, rng);
  const auto blob = encode_aggregate(7, model, 100 * units::MB);
  const auto rec = decode_aggregate(blob);
  EXPECT_EQ(rec.round, 7);
  EXPECT_EQ(rec.model, model);
  EXPECT_EQ(rec.logical_bytes, 100 * units::MB);
}

TEST(Codec, MetricsRoundTrip) {
  ClientMetrics m;
  m.client = 3;
  m.round = 9;
  m.local_loss = 0.75;
  m.accuracy = 0.81;
  m.train_time_s = 120.0;
  m.upload_time_s = 30.0;
  m.compute_gflops = 42.0;
  m.network_mbps = 25.0;
  m.energy_j = 900.0;
  m.num_samples = 640;
  EXPECT_EQ(decode_metrics(encode_metrics(m)), m);
}

TEST(Codec, RoundInfoRoundTrip) {
  RoundInfo info;
  info.round = 123;
  info.hparams.learning_rate = 0.0125;
  info.hparams.batch_size = 64;
  info.hparams.momentum = 0.95;
  info.hparams.local_epochs = 3;
  info.global_loss = 0.33;
  info.num_participants = 10;
  const auto rec = decode_round_info(encode_round_info(info));
  EXPECT_EQ(rec.round, info.round);
  EXPECT_EQ(rec.hparams, info.hparams);
  EXPECT_DOUBLE_EQ(rec.global_loss, info.global_loss);
  EXPECT_EQ(rec.num_participants, 10);
}

TEST(Codec, TagMismatchDetected) {
  const auto blob = encode_metrics(ClientMetrics{});
  EXPECT_THROW((void)decode_update(blob), InvalidArgument);
  EXPECT_THROW((void)decode_aggregate(blob), InvalidArgument);
}

TEST(Codec, CorruptionDetected) {
  auto blob = encode_update(sample_update());
  blob[blob.size() / 2] ^= 0x55;
  EXPECT_THROW((void)decode_update(blob), InvalidArgument);
}

TEST(Codec, TruncationDetected) {
  auto blob = encode_update(sample_update());
  blob.resize(blob.size() / 2);
  EXPECT_THROW((void)decode_update(blob), InvalidArgument);
}

// A tensor length field near 2^64 wraps a naive `pos + len > end` bound.
// The inner header claims dim = 2^62 - 6, whose serialized size wraps to
// that same length, so the blob also passes the tensor decoder's size
// equality check.
TEST(Codec, HostileTensorLengthRejected) {
  const auto u = sample_update();
  auto blob = encode_update(u);
  const auto tensor_bytes = serialized_size(u.delta.dim());
  const auto len_at = blob.size() - sizeof(std::uint64_t) - tensor_bytes -
                      sizeof(std::uint64_t);
  const std::uint64_t len = std::numeric_limits<std::uint64_t>::max() - 3;
  std::memcpy(blob.data() + len_at, &len, sizeof(len));
  const std::uint64_t dim = (std::uint64_t{1} << 62) - 6;
  std::memcpy(blob.data() + len_at + sizeof(len) + 4, &dim, sizeof(dim));
  const auto body = blob.size() - sizeof(std::uint64_t);
  const std::uint64_t crc = checksum(std::span(blob.data(), body));
  std::memcpy(blob.data() + body, &crc, sizeof(crc));
  EXPECT_THROW((void)decode_update(blob), InvalidArgument);
}

TEST(Codec, EmptyBlobRejected) {
  EXPECT_THROW((void)decode_update(Blob{}), InvalidArgument);
}

TEST(Codec, MetadataLogicalSizesAreTiny) {
  // The P4 size asymmetry the paper relies on: KB-scale metadata vs
  // multi-hundred-MB updates.
  EXPECT_LT(kMetricsLogicalBytes, 10 * units::KB);
  EXPECT_LT(kRoundInfoLogicalBytes, 10 * units::KB);
}

}  // namespace
}  // namespace flstore::fed
