// Dense float tensor with row-major layout.
//
// This is the numeric workhorse for the functional reference operators, the
// cycle-level simulator, and the training substrate. It deliberately stays
// small: contiguous float32 storage, checked multi-dimensional accessors in
// debug builds, and a handful of fills/reductions. Anything fancier (views,
// broadcasting) is intentionally out of scope.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "tensor/shape.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace fuse::tensor {

class Tensor {
 public:
  Tensor() = default;

  /// Zero-initialized tensor of the given shape.
  explicit Tensor(Shape shape);

  /// Tensor with explicit contents; `values` must match the element count.
  Tensor(Shape shape, std::vector<float> values);

  const Shape& shape() const { return shape_; }
  std::int64_t num_elements() const { return shape_.num_elements(); }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  /// Flat element access (bounds-checked in debug builds).
  float& operator[](std::int64_t index);
  float operator[](std::int64_t index) const;

  /// Unchecked hot-path accessors: inline, no rank/bounds validation
  /// beyond a debug assertion. The cycle-accurate simulator's inner
  /// loops use these — the checked at() overloads below are out-of-line
  /// calls, which dominates a per-PE-per-cycle loop. Everything else
  /// should keep using at().
  float at_unchecked(std::int64_t i, std::int64_t j) const {
    FUSE_DCHECK(shape_.rank() == 2 && i >= 0 && i < shape_.dim(0) &&
                j >= 0 && j < shape_.dim(1))
        << "unchecked index (" << i << ", " << j << ") out of range for "
        << shape_.to_string();
    return data_[static_cast<std::size_t>(i * shape_.dim(1) + j)];
  }
  float& at_unchecked(std::int64_t i, std::int64_t j) {
    FUSE_DCHECK(shape_.rank() == 2 && i >= 0 && i < shape_.dim(0) &&
                j >= 0 && j < shape_.dim(1))
        << "unchecked index (" << i << ", " << j << ") out of range for "
        << shape_.to_string();
    return data_[static_cast<std::size_t>(i * shape_.dim(1) + j)];
  }

  /// Rank-specific accessors; rank is checked in debug builds.
  float& at(std::int64_t i);
  float& at(std::int64_t i, std::int64_t j);
  float& at(std::int64_t i, std::int64_t j, std::int64_t k);
  float& at(std::int64_t i, std::int64_t j, std::int64_t k, std::int64_t l);
  float at(std::int64_t i) const;
  float at(std::int64_t i, std::int64_t j) const;
  float at(std::int64_t i, std::int64_t j, std::int64_t k) const;
  float at(std::int64_t i, std::int64_t j, std::int64_t k,
           std::int64_t l) const;

  /// Fills every element with `value`.
  void fill(float value);

  /// Fills with uniform values in [lo, hi).
  void fill_uniform(util::Rng& rng, float lo, float hi);

  /// Fills with 0, 1, 2, ... (handy in mapping tests where provenance of
  /// each element matters).
  void fill_iota(float start = 0.0F);

  /// Sum of all elements.
  double sum() const;

  /// Largest |element|.
  float abs_max() const;

  /// Returns a tensor with identical data but the new shape (same element
  /// count required). On an rvalue the data moves instead of copying.
  Tensor reshaped(Shape new_shape) const&;
  Tensor reshaped(Shape new_shape) &&;

  /// Human-readable summary: shape plus a few leading values.
  std::string summary(int max_values = 8) const;

 private:
  std::int64_t flat_index(std::int64_t i, std::int64_t j) const;
  std::int64_t flat_index(std::int64_t i, std::int64_t j,
                          std::int64_t k) const;
  std::int64_t flat_index(std::int64_t i, std::int64_t j, std::int64_t k,
                          std::int64_t l) const;

  Shape shape_;
  std::vector<float> data_;
};

/// True when shapes match and every element pair differs by at most
/// `atol + rtol * |reference|`.
bool allclose(const Tensor& actual, const Tensor& reference,
              float rtol = 1e-5F, float atol = 1e-6F);

/// Largest absolute elementwise difference; shapes must match.
float max_abs_diff(const Tensor& a, const Tensor& b);

}  // namespace fuse::tensor
