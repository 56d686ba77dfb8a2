// Dense 1-D float tensor.
//
// Model updates in this reproduction are *materialized* at a small dimension
// (the math the workloads do — cosine similarity, clustering, activation
// differencing — is dimension-agnostic), while the byte sizes used by the
// latency/cost model come from the model zoo (true fp32 checkpoint sizes).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace flstore {

class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(std::size_t dim, float fill = 0.0F)
      : data_(dim, fill) {}
  explicit Tensor(std::vector<float> values) : data_(std::move(values)) {}

  [[nodiscard]] std::size_t dim() const noexcept { return data_.size(); }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }

  [[nodiscard]] float& operator[](std::size_t i) { return data_[i]; }
  [[nodiscard]] float operator[](std::size_t i) const { return data_[i]; }

  [[nodiscard]] std::span<float> span() noexcept { return data_; }
  [[nodiscard]] std::span<const float> span() const noexcept { return data_; }
  [[nodiscard]] const std::vector<float>& values() const noexcept {
    return data_;
  }

  friend bool operator==(const Tensor&, const Tensor&) = default;

 private:
  std::vector<float> data_;
};

}  // namespace flstore
