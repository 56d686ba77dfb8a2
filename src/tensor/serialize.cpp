#include "tensor/serialize.hpp"

#include <cstring>
#include <limits>

#include "common/error.hpp"

namespace flstore {

namespace {
constexpr std::uint8_t kMagic[4] = {'F', 'L', 'T', '1'};

template <typename T>
T read_raw(std::span<const std::uint8_t> bytes, std::size_t offset) {
  T v;
  std::memcpy(&v, bytes.data() + offset, sizeof(T));
  return v;
}
}  // namespace

std::uint64_t checksum(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const auto b : bytes) {
    h ^= b;
    h *= 1099511628211ULL;
  }
  return h;
}

std::size_t serialized_size(std::size_t dim) noexcept {
  return sizeof(kMagic) + sizeof(std::uint64_t) + dim * sizeof(float) +
         sizeof(std::uint64_t);
}

Blob serialize_tensor(const Tensor& t) {
  // Sized upfront and filled with memcpy: one allocation, and no
  // vector::insert growth paths (which GCC 12's -O3 stringop-overflow
  // analysis flags spuriously).
  Blob out(serialized_size(t.dim()));
  std::size_t off = 0;
  const auto put = [&out, &off](const void* p, std::size_t n) {
    std::memcpy(out.data() + off, p, n);
    off += n;
  };
  put(kMagic, sizeof(kMagic));
  const auto dim = static_cast<std::uint64_t>(t.dim());
  put(&dim, sizeof(dim));
  for (std::size_t i = 0; i < t.dim(); ++i) {
    const float v = t[i];
    put(&v, sizeof(v));
  }
  const std::uint64_t crc = checksum(std::span(out.data(), off));
  put(&crc, sizeof(crc));
  FLSTORE_CHECK(off == out.size());
  return out;
}

Tensor deserialize_tensor(std::span<const std::uint8_t> bytes) {
  constexpr std::size_t kHeader = sizeof(kMagic) + sizeof(std::uint64_t);
  if (bytes.size() < kHeader + sizeof(std::uint64_t)) {
    throw InvalidArgument("tensor blob too small");
  }
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    throw InvalidArgument("tensor blob bad magic");
  }
  const auto dim = read_raw<std::uint64_t>(bytes, sizeof(kMagic));
  // An untrusted dim this large would wrap serialized_size() onto a small,
  // matching length; reject it before doing that arithmetic.
  constexpr std::size_t kFraming = kHeader + sizeof(std::uint64_t);
  if (dim > (std::numeric_limits<std::size_t>::max() - kFraming) /
                sizeof(float)) {
    throw InvalidArgument("tensor blob dim overflows");
  }
  if (bytes.size() != serialized_size(dim)) {
    throw InvalidArgument("tensor blob size mismatch");
  }
  const auto body_len = bytes.size() - sizeof(std::uint64_t);
  const auto stored_crc = read_raw<std::uint64_t>(bytes, body_len);
  if (checksum(bytes.subspan(0, body_len)) != stored_crc) {
    throw InvalidArgument("tensor blob checksum mismatch");
  }
  Tensor t(dim);
  for (std::uint64_t i = 0; i < dim; ++i) {
    t[static_cast<std::size_t>(i)] =
        read_raw<float>(bytes, kHeader + static_cast<std::size_t>(i) * sizeof(float));
  }
  return t;
}

}  // namespace flstore
