#include "tensor/serialize.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "tensor/ops.hpp"

namespace flstore {
namespace {

TEST(Serialize, RoundTrip) {
  Rng rng(1);
  const auto t = ops::random_normal(257, rng);
  const auto blob = serialize_tensor(t);
  EXPECT_EQ(blob.size(), serialized_size(t.dim()));
  EXPECT_EQ(deserialize_tensor(blob), t);
}

TEST(Serialize, EmptyTensorRoundTrip) {
  const Tensor t;
  EXPECT_EQ(deserialize_tensor(serialize_tensor(t)), t);
}

TEST(Serialize, CorruptPayloadDetected) {
  Rng rng(2);
  auto blob = serialize_tensor(ops::random_normal(64, rng));
  blob[20] ^= 0xFF;
  EXPECT_THROW((void)deserialize_tensor(blob), InvalidArgument);
}

TEST(Serialize, CorruptChecksumDetected) {
  Rng rng(3);
  auto blob = serialize_tensor(ops::random_normal(8, rng));
  blob.back() ^= 0x01;
  EXPECT_THROW((void)deserialize_tensor(blob), InvalidArgument);
}

TEST(Serialize, BadMagicDetected) {
  Rng rng(4);
  auto blob = serialize_tensor(ops::random_normal(8, rng));
  blob[0] = 'X';
  EXPECT_THROW((void)deserialize_tensor(blob), InvalidArgument);
}

TEST(Serialize, TruncatedDetected) {
  Rng rng(5);
  auto blob = serialize_tensor(ops::random_normal(8, rng));
  blob.resize(blob.size() - 3);
  EXPECT_THROW((void)deserialize_tensor(blob), InvalidArgument);
}

TEST(Serialize, TooSmallDetected) {
  Blob blob{1, 2, 3};
  EXPECT_THROW((void)deserialize_tensor(blob), InvalidArgument);
}

// dim = 2^62 + 1 wraps serialized_size() back to exactly 24 bytes, and the
// checksum is valid: only an explicit dim bound stops the allocation.
TEST(Serialize, HostileDimRejected) {
  Blob blob(24);
  const char magic[4] = {'F', 'L', 'T', '1'};
  std::memcpy(blob.data(), magic, sizeof(magic));
  const std::uint64_t dim = (std::uint64_t{1} << 62) + 1;
  std::memcpy(blob.data() + 4, &dim, sizeof(dim));
  const std::uint64_t crc = checksum(std::span(blob.data(), 16));
  std::memcpy(blob.data() + 16, &crc, sizeof(crc));
  ASSERT_EQ(serialized_size(dim), blob.size());
  EXPECT_THROW((void)deserialize_tensor(blob), InvalidArgument);
}

TEST(Checksum, SensitiveToOrder) {
  const Blob a{1, 2, 3};
  const Blob b{3, 2, 1};
  EXPECT_NE(checksum(a), checksum(b));
}

class SerializeSweep : public ::testing::TestWithParam<int> {};

TEST_P(SerializeSweep, RoundTripManySizes) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const auto dim = static_cast<std::size_t>(GetParam());
  const auto t = ops::random_normal(dim, rng);
  EXPECT_EQ(deserialize_tensor(serialize_tensor(t)), t);
}

INSTANTIATE_TEST_SUITE_P(Dims, SerializeSweep,
                         ::testing::Values(1, 2, 7, 16, 255, 256, 1024));

}  // namespace
}  // namespace flstore
