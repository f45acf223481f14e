// afsim: an ArrayFire-compatible API surface over the gpusim device.
//
// `array` is a runtime-typed handle onto a lazy expression graph
// (afsim/node.h). Element-wise operators are O(1) graph builders; data is
// materialized by eval(), host(), or any non-element-wise consumer (where,
// sort, reductions, ...-ByKey, set ops), at which point the whole
// element-wise subtree is fused into one kernel.
#ifndef AFSIM_ARRAY_H_
#define AFSIM_ARRAY_H_

#include <stdexcept>
#include <string>
#include <vector>

#include "afsim/node.h"
#include "gpusim/stream.h"

namespace afsim {

/// The library's default (CUDA-backend) stream, on gpusim::Device::Default():
/// the stream of every array whose leaves were made without one.
gpusim::Stream& default_stream();

/// Host-side bookkeeping cost charged per lazy node created; models
/// ArrayFire's JIT graph construction overhead.
inline constexpr uint64_t kJitNodeOverheadNs = 700;

/// Expression subtrees larger than this are evaluated eagerly, mirroring
/// ArrayFire's bounded JIT kernel size.
inline constexpr uint32_t kMaxJitTreeSize = 48;

/// Compile-time dtype of a C++ element type.
template <typename T>
constexpr dtype dtype_of();
template <>
constexpr dtype dtype_of<uint8_t>() { return dtype::b8; }
template <>
constexpr dtype dtype_of<int32_t>() { return dtype::s32; }
template <>
constexpr dtype dtype_of<int64_t>() { return dtype::s64; }
template <>
constexpr dtype dtype_of<uint32_t>() { return dtype::u32; }
template <>
constexpr dtype dtype_of<float>() { return dtype::f32; }
template <>
constexpr dtype dtype_of<double>() { return dtype::f64; }

/// Runtime-typed, lazily evaluated device array (af::array).
class array {
 public:
  /// Null array (0 elements).
  array() = default;

  /// Wraps an existing graph node (internal; used by the free functions).
  explicit array(detail::node_ptr n) : node_(std::move(n)) {}

  size_t elements() const { return node_ ? node_->n : 0; }
  bool is_empty() const { return elements() == 0; }
  dtype type() const {
    return node_ ? node_->type : dtype::f32;
  }

  /// True while the handle points at an unevaluated expression.
  bool is_lazy() const { return node_ && !node_->materialized(); }

  /// The stream the array was created on (af::array's device): evaluation,
  /// downloads and every algorithm over the array are charged to it.
  gpusim::Stream& stream() const {
    return node_ ? *node_->stream : default_stream();
  }

  /// Materializes the expression (single fused kernel for the element-wise
  /// subtree). Idempotent. Returns *this for chaining, like af::eval.
  const array& eval() const;

  /// Downloads to host. T must match the array's dtype exactly.
  template <typename T>
  std::vector<T> host() const {
    require_dtype<T>("host<T>()");
    eval();
    std::vector<T> out(elements());
    if (!out.empty()) {
      gpusim::CopyDeviceToHost(stream(), out.data(), node_->buffer->data(),
                               out.size() * sizeof(T));
    }
    return out;
  }

  /// First element, downloaded to host (af::array::scalar<T>()).
  template <typename T>
  T scalar() const {
    require_dtype<T>("scalar<T>()");
    if (is_empty()) throw std::out_of_range("afsim: scalar() on empty array");
    eval();
    T out;
    gpusim::CopyDeviceToHost(stream(), &out, node_->buffer->data(), sizeof(T));
    return out;
  }

  /// Raw device pointer; array must be evaluated first (internal interop).
  void* device_ptr() const {
    eval();
    return node_ ? node_->buffer->data() : nullptr;
  }

  detail::node_ptr node() const { return node_; }

 private:
  template <typename T>
  void require_dtype(const char* what) const {
    if (!node_ || node_->type != dtype_of<T>()) {
      throw std::invalid_argument(
          std::string("afsim: ") + what + " type mismatch: array is " +
          dtype_name(type()));
    }
  }

  detail::node_ptr node_;
};

// ---------------------------------------------------------------------------
// Factories
// ---------------------------------------------------------------------------

// Each factory makes an array on `stream`; arrays built from it inherit it.

/// n copies of a scalar (af::constant). Lazy: costs no memory until eval.
array constant(double value, size_t n, dtype t = dtype::f32,
               gpusim::Stream& stream = default_stream());

/// [0, 1, ..., n-1] (af::range / af::iota). Materialized.
array range(size_t n, dtype t = dtype::s32,
            gpusim::Stream& stream = default_stream());

/// Uploads host data (af::array(n, host_ptr)).
template <typename T>
array from_vector(const std::vector<T>& host,
                  gpusim::Stream& stream = default_stream());

/// Zero-copy view over an existing device buffer (interop constructor, the
/// analogue of af::array(dim, device_ptr, afDevice)).
array from_buffer(std::shared_ptr<gpusim::DeviceBuffer> buffer, dtype t,
                  size_t n, gpusim::Stream& stream = default_stream());

// ---------------------------------------------------------------------------
// Element-wise operators (lazy graph builders). Operands must have the same
// size and stream; std::invalid_argument otherwise.
// ---------------------------------------------------------------------------

array operator+(const array& a, const array& b);
array operator-(const array& a, const array& b);
array operator*(const array& a, const array& b);
array operator/(const array& a, const array& b);
array operator>(const array& a, const array& b);
array operator<(const array& a, const array& b);
array operator>=(const array& a, const array& b);
array operator<=(const array& a, const array& b);
array operator==(const array& a, const array& b);
array operator!=(const array& a, const array& b);
array operator&&(const array& a, const array& b);
array operator||(const array& a, const array& b);
array operator!(const array& a);
array operator-(const array& a);

array operator+(const array& a, double b);
array operator-(const array& a, double b);
array operator*(const array& a, double b);
array operator/(const array& a, double b);
array operator>(const array& a, double b);
array operator<(const array& a, double b);
array operator>=(const array& a, double b);
array operator<=(const array& a, double b);
array operator==(const array& a, double b);
array operator!=(const array& a, double b);
array operator+(double a, const array& b);
array operator-(double a, const array& b);
array operator*(double a, const array& b);
array operator>(double a, const array& b);
array operator<(double a, const array& b);

array min_of(const array& a, const array& b);  ///< af::min element-wise
array max_of(const array& a, const array& b);  ///< af::max element-wise

/// Type conversion node (af::array::as).
array cast(const array& a, dtype t);

// ---------------------------------------------------------------------------
// Materializing operations
// ---------------------------------------------------------------------------

/// Indices of non-zero elements as u32 (af::where). Table II realizes the
/// selection operator with where(<predicate expression>).
array where(const array& mask);

/// out[i] = in[idx[i]] (af::lookup); the gather used to materialize selected
/// rows from a where() index vector.
array lookup(const array& in, const array& indices);

/// Total (af::sum<T>). T must be the array's dtype.
template <typename T>
T sum(const array& a);

/// Minimum / maximum element (af::min<T> / af::max<T>).
template <typename T>
T min_all(const array& a);
template <typename T>
T max_all(const array& a);

/// Number of non-zero elements (af::count).
size_t count(const array& mask);

/// Arithmetic mean (af::mean), as double.
double mean(const array& a);

/// True if any / every element is non-zero (af::anyTrue / af::allTrue).
bool anyTrue(const array& a);
bool allTrue(const array& a);

/// First-order forward difference: out[i] = in[i+1] - in[i], n-1 elements
/// (af::diff1).
array diff1(const array& a);

/// Reversed copy (af::flip along dim 0).
array flip(const array& a);

/// Inclusive prefix sum (af::accum).
array accum(const array& a);

/// Prefix sum with selectable semantics (af::scan, AF_BINARY_ADD).
array scan(const array& a, bool inclusive_scan = true);

/// Ascending sort (af::sort).
array sort(const array& a);

/// Key-value sort (af::sort(out_keys, out_vals, keys, vals)).
void sort(array* out_keys, array* out_values, const array& keys,
          const array& values);

/// Segmented sum over equal consecutive keys (af::sumByKey). As in
/// ArrayFire, keys must already be grouped (e.g. sorted).
void sumByKey(array* keys_out, array* vals_out, const array& keys,
              const array& values);

/// Segmented count (af::countByKey).
void countByKey(array* keys_out, array* counts_out, const array& keys);

/// Segmented min/max (af::minByKey / af::maxByKey); keys must be grouped.
void minByKey(array* keys_out, array* vals_out, const array& keys,
              const array& values);
void maxByKey(array* keys_out, array* vals_out, const array& keys,
              const array& values);

/// Indexed assignment target(indices[i]) = values[i] (af subscript
/// assignment, the closest ArrayFire gets to a scatter primitive).
void assign_indexed(const array& target, const array& indices,
                    const array& values);

/// Distinct elements (af::setUnique). Sorts unless is_sorted.
array setUnique(const array& a, bool is_sorted = false);

/// Set intersection of two arrays of unique elements (af::setIntersect).
array setIntersect(const array& a, const array& b, bool is_unique = false);

/// Set union (af::setUnion).
array setUnion(const array& a, const array& b, bool is_unique = false);

/// Concatenation along dim 0 (af::join).
array join(const array& a, const array& b);

// ---------------------------------------------------------------------------
// Template definitions
// ---------------------------------------------------------------------------

namespace detail {
/// Allocates a materialized data node of `t` with n elements on `stream`.
node_ptr make_data_node(dtype t, size_t n, gpusim::Stream& stream);
/// Typed reductions implemented in algorithm.cc.
double reduce_sum(const array& a);
double reduce_min(const array& a);
double reduce_max(const array& a);
int64_t reduce_sum_integral(const array& a);
int64_t reduce_min_integral(const array& a);
int64_t reduce_max_integral(const array& a);
}  // namespace detail

template <typename T>
array from_vector(const std::vector<T>& host, gpusim::Stream& stream) {
  static_assert(dtype_of<T>() == dtype_of<T>(), "unsupported element type");
  detail::node_ptr n =
      detail::make_data_node(dtype_of<T>(), host.size(), stream);
  if (!host.empty()) {
    gpusim::CopyHostToDevice(stream, n->buffer->data(), host.data(),
                             host.size() * sizeof(T));
  }
  return array(std::move(n));
}

template <typename T>
T sum(const array& a) {
  if constexpr (dtype_of<T>() == dtype::f32 || dtype_of<T>() == dtype::f64) {
    return static_cast<T>(detail::reduce_sum(a));
  } else {
    return static_cast<T>(detail::reduce_sum_integral(a));
  }
}

template <typename T>
T min_all(const array& a) {
  if constexpr (dtype_of<T>() == dtype::f32 || dtype_of<T>() == dtype::f64) {
    return static_cast<T>(detail::reduce_min(a));
  } else {
    return static_cast<T>(detail::reduce_min_integral(a));
  }
}

template <typename T>
T max_all(const array& a) {
  if constexpr (dtype_of<T>() == dtype::f32 || dtype_of<T>() == dtype::f64) {
    return static_cast<T>(detail::reduce_max(a));
  } else {
    return static_cast<T>(detail::reduce_max_integral(a));
  }
}

}  // namespace afsim

#endif  // AFSIM_ARRAY_H_
