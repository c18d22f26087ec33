#include "tensor/tensor.hpp"

#include <cmath>
#include <sstream>

#include "util/check.hpp"

namespace fuse::tensor {

Tensor::Tensor(Shape shape)
    : shape_(std::move(shape)),
      data_(static_cast<std::size_t>(shape_.num_elements()), 0.0F) {}

Tensor::Tensor(Shape shape, std::vector<float> values)
    : shape_(std::move(shape)), data_(std::move(values)) {
  FUSE_CHECK(static_cast<std::int64_t>(data_.size()) ==
             shape_.num_elements())
      << "value count " << data_.size() << " does not match shape "
      << shape_.to_string();
}

float& Tensor::operator[](std::int64_t index) {
  FUSE_DCHECK(index >= 0 && index < num_elements())
      << "flat index " << index << " out of range for " << shape_.to_string();
  return data_[static_cast<std::size_t>(index)];
}

float Tensor::operator[](std::int64_t index) const {
  FUSE_DCHECK(index >= 0 && index < num_elements())
      << "flat index " << index << " out of range for " << shape_.to_string();
  return data_[static_cast<std::size_t>(index)];
}

std::int64_t Tensor::flat_index(std::int64_t i, std::int64_t j) const {
  FUSE_DCHECK(shape_.rank() == 2) << "rank-2 access on " << shape_.to_string();
  FUSE_DCHECK(i >= 0 && i < shape_.dim(0) && j >= 0 && j < shape_.dim(1))
      << "index (" << i << ", " << j << ") out of range for "
      << shape_.to_string();
  return i * shape_.dim(1) + j;
}

std::int64_t Tensor::flat_index(std::int64_t i, std::int64_t j,
                                std::int64_t k) const {
  FUSE_DCHECK(shape_.rank() == 3) << "rank-3 access on " << shape_.to_string();
  FUSE_DCHECK(i >= 0 && i < shape_.dim(0) && j >= 0 && j < shape_.dim(1) &&
              k >= 0 && k < shape_.dim(2))
      << "index (" << i << ", " << j << ", " << k << ") out of range for "
      << shape_.to_string();
  return (i * shape_.dim(1) + j) * shape_.dim(2) + k;
}

std::int64_t Tensor::flat_index(std::int64_t i, std::int64_t j,
                                std::int64_t k, std::int64_t l) const {
  FUSE_DCHECK(shape_.rank() == 4) << "rank-4 access on " << shape_.to_string();
  FUSE_DCHECK(i >= 0 && i < shape_.dim(0) && j >= 0 && j < shape_.dim(1) &&
              k >= 0 && k < shape_.dim(2) && l >= 0 && l < shape_.dim(3))
      << "index (" << i << ", " << j << ", " << k << ", " << l
      << ") out of range for " << shape_.to_string();
  return ((i * shape_.dim(1) + j) * shape_.dim(2) + k) * shape_.dim(3) + l;
}

float& Tensor::at(std::int64_t i) {
  FUSE_DCHECK(shape_.rank() == 1) << "rank-1 access on " << shape_.to_string();
  return (*this)[i];
}

float& Tensor::at(std::int64_t i, std::int64_t j) {
  return data_[static_cast<std::size_t>(flat_index(i, j))];
}

float& Tensor::at(std::int64_t i, std::int64_t j, std::int64_t k) {
  return data_[static_cast<std::size_t>(flat_index(i, j, k))];
}

float& Tensor::at(std::int64_t i, std::int64_t j, std::int64_t k,
                  std::int64_t l) {
  return data_[static_cast<std::size_t>(flat_index(i, j, k, l))];
}

float Tensor::at(std::int64_t i) const {
  FUSE_DCHECK(shape_.rank() == 1) << "rank-1 access on " << shape_.to_string();
  return (*this)[i];
}

float Tensor::at(std::int64_t i, std::int64_t j) const {
  return data_[static_cast<std::size_t>(flat_index(i, j))];
}

float Tensor::at(std::int64_t i, std::int64_t j, std::int64_t k) const {
  return data_[static_cast<std::size_t>(flat_index(i, j, k))];
}

float Tensor::at(std::int64_t i, std::int64_t j, std::int64_t k,
                 std::int64_t l) const {
  return data_[static_cast<std::size_t>(flat_index(i, j, k, l))];
}

void Tensor::fill(float value) {
  for (float& x : data_) {
    x = value;
  }
}

void Tensor::fill_uniform(util::Rng& rng, float lo, float hi) {
  for (float& x : data_) {
    x = static_cast<float>(rng.uniform(lo, hi));
  }
}

void Tensor::fill_iota(float start) {
  float value = start;
  for (float& x : data_) {
    x = value;
    value += 1.0F;
  }
}

double Tensor::sum() const {
  double total = 0.0;
  for (float x : data_) {
    total += x;
  }
  return total;
}

float Tensor::abs_max() const {
  float best = 0.0F;
  for (float x : data_) {
    best = std::max(best, std::fabs(x));
  }
  return best;
}

Tensor Tensor::reshaped(Shape new_shape) const& {
  return Tensor(*this).reshaped(std::move(new_shape));
}

Tensor Tensor::reshaped(Shape new_shape) && {
  FUSE_CHECK(new_shape.num_elements() == num_elements())
      << "reshape " << shape_.to_string() << " -> " << new_shape.to_string()
      << " changes element count";
  shape_ = std::move(new_shape);
  return std::move(*this);
}

std::string Tensor::summary(int max_values) const {
  std::ostringstream out;
  out << shape_.to_string() << " {";
  const std::int64_t shown =
      std::min<std::int64_t>(max_values, num_elements());
  for (std::int64_t i = 0; i < shown; ++i) {
    if (i != 0) {
      out << ", ";
    }
    out << data_[static_cast<std::size_t>(i)];
  }
  if (shown < num_elements()) {
    out << ", ...";
  }
  out << '}';
  return out.str();
}

bool allclose(const Tensor& actual, const Tensor& reference, float rtol,
              float atol) {
  if (actual.shape() != reference.shape()) {
    return false;
  }
  for (std::int64_t i = 0; i < actual.num_elements(); ++i) {
    const float a = actual[i];
    const float r = reference[i];
    if (std::isnan(a) || std::isnan(r)) {
      return false;
    }
    if (std::fabs(a - r) > atol + rtol * std::fabs(r)) {
      return false;
    }
  }
  return true;
}

float max_abs_diff(const Tensor& a, const Tensor& b) {
  FUSE_CHECK(a.shape() == b.shape())
      << "max_abs_diff on mismatched shapes " << a.shape().to_string()
      << " vs " << b.shape().to_string();
  float best = 0.0F;
  for (std::int64_t i = 0; i < a.num_elements(); ++i) {
    best = std::max(best, std::fabs(a[i] - b[i]));
  }
  return best;
}

}  // namespace fuse::tensor
