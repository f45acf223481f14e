// Materializing operations: where/lookup, reductions, scans, sorts,
// *-ByKey, set operations, join. Each forces evaluation of its inputs
// (ending JIT fusion) and runs the standard GPU pass structure from
// gpusim/algorithms.h on its first input's stream, where its outputs live.
#include <stdexcept>

#include "afsim/array.h"
#include "gpusim/algorithms.h"

namespace afsim {
namespace {

using detail::make_data_node;
using detail::node;
using detail::node_ptr;

[[noreturn]] void unsupported(const char* what, dtype t) {
  throw std::invalid_argument(std::string("afsim: ") + what +
                              " unsupported for dtype " + dtype_name(t));
}

// Dispatch a statement with `T` bound to the C++ type of a numeric dtype.
#define AFSIM_DISPATCH_NUMERIC(DT, WHAT, STMT)                    \
  switch (DT) {                                                   \
    case dtype::s32: { using T = int32_t; STMT; break; }          \
    case dtype::s64: { using T = int64_t; STMT; break; }          \
    case dtype::u32: { using T = uint32_t; STMT; break; }         \
    case dtype::f32: { using T = float; STMT; break; }            \
    case dtype::f64: { using T = double; STMT; break; }           \
    default: unsupported(WHAT, DT);                               \
  }

// Dispatch including b8.
#define AFSIM_DISPATCH_ALL(DT, WHAT, STMT)                        \
  switch (DT) {                                                   \
    case dtype::b8: { using T = uint8_t; STMT; break; }           \
    case dtype::s32: { using T = int32_t; STMT; break; }          \
    case dtype::s64: { using T = int64_t; STMT; break; }          \
    case dtype::u32: { using T = uint32_t; STMT; break; }         \
    case dtype::f32: { using T = float; STMT; break; }            \
    case dtype::f64: { using T = double; STMT; break; }           \
  }

/// Shrinks a data node to `count` elements with one device copy.
array shrink(const node_ptr& full, size_t count) {
  gpusim::Stream& s = *full->stream;
  node_ptr out = make_data_node(full->type, count, s);
  if (count > 0) {
    gpusim::CopyDeviceToDevice(s, out->buffer->data(), full->buffer->data(),
                               count * dtype_size(full->type));
  }
  return array(std::move(out));
}

}  // namespace

array range(size_t n, dtype t, gpusim::Stream& s) {
  node_ptr out = make_data_node(t, n, s);
  AFSIM_DISPATCH_NUMERIC(t, "range", {
    gpusim::Sequence(s, static_cast<T*>(out->buffer->data()), n, T{0}, T{1});
  });
  return array(std::move(out));
}

array where(const array& mask) {
  mask.eval();
  gpusim::Stream& s = mask.stream();
  const node_ptr in = mask.node();
  const size_t n = mask.elements();
  if (n == 0) return array(make_data_node(dtype::u32, 0, s));
  gpusim::Device& device = s.device();

  gpusim::DeviceArray<uint32_t> flags(n, device);
  gpusim::DeviceArray<uint32_t> positions(n, device);
  {
    gpusim::KernelStats stats;
    stats.name = "af::where_flags";
    stats.bytes_read = n * dtype_size(in->type);
    stats.bytes_written = n * sizeof(uint32_t);
    uint32_t* f = flags.data();
    AFSIM_DISPATCH_ALL(in->type, "where", {
      const T* data = static_cast<const T*>(in->buffer->data());
      gpusim::ParallelFor(s, n, stats,
                          [=](size_t i) { f[i] = data[i] != T{} ? 1u : 0u; });
    });
  }
  gpusim::ExclusiveScan(s, flags.data(), positions.data(), n, uint32_t{0},
                        [](uint32_t a, uint32_t b) { return a + b; });
  uint32_t last_pos = 0, last_flag = 0;
  gpusim::CopyDeviceToHost(s, &last_pos, positions.data() + (n - 1),
                           sizeof(uint32_t));
  gpusim::CopyDeviceToHost(s, &last_flag, flags.data() + (n - 1),
                           sizeof(uint32_t));
  const size_t count = last_pos + last_flag;

  node_ptr out = make_data_node(dtype::u32, count, s);
  {
    gpusim::KernelStats stats;
    stats.name = "af::where_scatter";
    stats.bytes_read = n * 2 * sizeof(uint32_t);
    stats.bytes_written = count * sizeof(uint32_t);
    const uint32_t* f = flags.data();
    const uint32_t* pos = positions.data();
    uint32_t* o = static_cast<uint32_t*>(out->buffer->data());
    gpusim::ParallelFor(s, n, stats, [=](size_t i) {
      if (f[i]) o[pos[i]] = static_cast<uint32_t>(i);
    });
  }
  return array(std::move(out));
}

array lookup(const array& in, const array& indices) {
  if (indices.type() != dtype::u32 && indices.type() != dtype::s32) {
    unsupported("lookup index", indices.type());
  }
  in.eval();
  indices.eval();
  gpusim::Stream& s = in.stream();
  const size_t n = indices.elements();
  node_ptr out = make_data_node(in.type(), n, s);
  const uint32_t* map =
      static_cast<const uint32_t*>(indices.node()->buffer->data());
  AFSIM_DISPATCH_ALL(in.type(), "lookup", {
    gpusim::Gather(s, map, n,
                   static_cast<const T*>(in.node()->buffer->data()),
                   static_cast<T*>(out->buffer->data()));
  });
  return array(std::move(out));
}

namespace detail {

double reduce_sum(const array& a) {
  a.eval();
  gpusim::Stream& s = a.stream();
  double out = 0.0;
  AFSIM_DISPATCH_ALL(a.type(), "sum", {
    out = static_cast<double>(gpusim::Reduce(
        s, static_cast<const T*>(a.node()->buffer->data()), a.elements(),
        T{}, [](T x, T y) { return static_cast<T>(x + y); }, "af::sum"));
  });
  return out;
}

int64_t reduce_sum_integral(const array& a) {
  a.eval();
  gpusim::Stream& s = a.stream();
  int64_t out = 0;
  AFSIM_DISPATCH_ALL(a.type(), "sum", {
    out = static_cast<int64_t>(gpusim::Reduce(
        s, static_cast<const T*>(a.node()->buffer->data()), a.elements(),
        T{}, [](T x, T y) { return static_cast<T>(x + y); }, "af::sum"));
  });
  return out;
}

double reduce_min(const array& a) {
  a.eval();
  gpusim::Stream& s = a.stream();
  if (a.is_empty()) throw std::out_of_range("afsim: min of empty array");
  double out = 0.0;
  AFSIM_DISPATCH_NUMERIC(a.type(), "min", {
    const T* data = static_cast<const T*>(a.node()->buffer->data());
    T first;
    gpusim::CopyDeviceToHost(s, &first, data, sizeof(T));
    out = static_cast<double>(gpusim::Reduce(
        s, data, a.elements(), first,
        [](T x, T y) { return y < x ? y : x; }, "af::min"));
  });
  return out;
}

double reduce_max(const array& a) {
  a.eval();
  gpusim::Stream& s = a.stream();
  if (a.is_empty()) throw std::out_of_range("afsim: max of empty array");
  double out = 0.0;
  AFSIM_DISPATCH_NUMERIC(a.type(), "max", {
    const T* data = static_cast<const T*>(a.node()->buffer->data());
    T first;
    gpusim::CopyDeviceToHost(s, &first, data, sizeof(T));
    out = static_cast<double>(gpusim::Reduce(
        s, data, a.elements(), first,
        [](T x, T y) { return x < y ? y : x; }, "af::max"));
  });
  return out;
}

int64_t reduce_min_integral(const array& a) {
  return static_cast<int64_t>(reduce_min(a));
}

int64_t reduce_max_integral(const array& a) {
  return static_cast<int64_t>(reduce_max(a));
}

}  // namespace detail

size_t count(const array& mask) {
  mask.eval();
  gpusim::Stream& s = mask.stream();
  size_t out = 0;
  AFSIM_DISPATCH_ALL(mask.type(), "count", {
    out = gpusim::CountIf(s,
                          static_cast<const T*>(mask.node()->buffer->data()),
                          mask.elements(), [](T v) { return v != T{}; });
  });
  return out;
}

double mean(const array& a) {
  if (a.is_empty()) throw std::out_of_range("afsim: mean of empty array");
  return detail::reduce_sum(a) / static_cast<double>(a.elements());
}

bool anyTrue(const array& a) { return count(a) > 0; }

bool allTrue(const array& a) { return count(a) == a.elements(); }

array diff1(const array& a) {
  a.eval();
  gpusim::Stream& s = a.stream();
  const size_t n = a.elements();
  if (n < 2) return array(make_data_node(a.type(), 0, s));
  node_ptr out = make_data_node(a.type(), n - 1, s);
  AFSIM_DISPATCH_NUMERIC(a.type(), "diff1", {
    const T* in = static_cast<const T*>(a.node()->buffer->data());
    T* o = static_cast<T*>(out->buffer->data());
    gpusim::KernelStats stats;
    stats.name = "af::diff1";
    stats.bytes_read = n * sizeof(T);
    stats.bytes_written = (n - 1) * sizeof(T);
    gpusim::ParallelFor(s, n - 1, stats, [=](size_t i) {
      o[i] = static_cast<T>(in[i + 1] - in[i]);
    });
  });
  return array(std::move(out));
}

array flip(const array& a) {
  a.eval();
  gpusim::Stream& s = a.stream();
  const size_t n = a.elements();
  node_ptr out = make_data_node(a.type(), n, s);
  AFSIM_DISPATCH_ALL(a.type(), "flip", {
    const T* in = static_cast<const T*>(a.node()->buffer->data());
    T* o = static_cast<T*>(out->buffer->data());
    gpusim::KernelStats stats;
    stats.name = "af::flip";
    stats.bytes_read = n * sizeof(T);
    stats.bytes_written = n * sizeof(T);
    gpusim::ParallelFor(s, n, stats,
                        [=](size_t i) { o[i] = in[n - 1 - i]; });
  });
  return array(std::move(out));
}

array scan(const array& a, bool inclusive_scan) {
  a.eval();
  gpusim::Stream& s = a.stream();
  const size_t n = a.elements();
  node_ptr out = make_data_node(a.type(), n, s);
  AFSIM_DISPATCH_NUMERIC(a.type(), "scan", {
    const T* in = static_cast<const T*>(a.node()->buffer->data());
    T* o = static_cast<T*>(out->buffer->data());
    auto plus = [](T x, T y) { return static_cast<T>(x + y); };
    if (inclusive_scan) {
      gpusim::InclusiveScan(s, in, o, n, plus);
    } else {
      gpusim::ExclusiveScan(s, in, o, n, T{}, plus);
    }
  });
  return array(std::move(out));
}

array accum(const array& a) { return scan(a, /*inclusive_scan=*/true); }

array sort(const array& a) {
  a.eval();
  gpusim::Stream& s = a.stream();
  const size_t n = a.elements();
  node_ptr out = make_data_node(a.type(), n, s);
  if (n > 0) {
    gpusim::CopyDeviceToDevice(s, out->buffer->data(),
                               a.node()->buffer->data(),
                               n * dtype_size(a.type()));
  }
  AFSIM_DISPATCH_NUMERIC(a.type(), "sort", {
    gpusim::RadixSortKeys(s, static_cast<T*>(out->buffer->data()), n);
  });
  return array(std::move(out));
}

void sort(array* out_keys, array* out_values, const array& keys,
          const array& values) {
  if (keys.elements() != values.elements()) {
    throw std::invalid_argument("afsim: sort key/value size mismatch");
  }
  keys.eval();
  values.eval();
  gpusim::Stream& s = keys.stream();
  const size_t n = keys.elements();
  node_ptr ok = make_data_node(keys.type(), n, s);
  node_ptr ov = make_data_node(values.type(), n, s);
  if (n > 0) {
    gpusim::CopyDeviceToDevice(s, ok->buffer->data(),
                               keys.node()->buffer->data(),
                               n * dtype_size(keys.type()));
    gpusim::CopyDeviceToDevice(s, ov->buffer->data(),
                               values.node()->buffer->data(),
                               n * dtype_size(values.type()));
  }
  AFSIM_DISPATCH_NUMERIC(keys.type(), "sort_by_key", {
    using K = T;
    K* kp = static_cast<K*>(ok->buffer->data());
    switch (values.type()) {
      case dtype::s32:
        gpusim::RadixSortPairs(s, kp, static_cast<int32_t*>(ov->buffer->data()), n);
        break;
      case dtype::u32:
        gpusim::RadixSortPairs(s, kp, static_cast<uint32_t*>(ov->buffer->data()), n);
        break;
      case dtype::s64:
        gpusim::RadixSortPairs(s, kp, static_cast<int64_t*>(ov->buffer->data()), n);
        break;
      case dtype::f64:
        gpusim::RadixSortPairs(s, kp, static_cast<double*>(ov->buffer->data()), n);
        break;
      case dtype::f32:
        gpusim::RadixSortPairs(s, kp, static_cast<float*>(ov->buffer->data()), n);
        break;
      default:
        unsupported("sort_by_key value", values.type());
    }
  });
  *out_keys = array(std::move(ok));
  *out_values = array(std::move(ov));
}

void sumByKey(array* keys_out, array* vals_out, const array& keys,
              const array& values) {
  if (keys.elements() != values.elements()) {
    throw std::invalid_argument("afsim: sumByKey size mismatch");
  }
  keys.eval();
  values.eval();
  gpusim::Stream& s = keys.stream();
  const size_t n = keys.elements();
  if (n == 0) {
    *keys_out = array(make_data_node(keys.type(), 0, s));
    *vals_out = array(make_data_node(values.type(), 0, s));
    return;
  }
  node_ptr ok = make_data_node(keys.type(), n, s);
  node_ptr ov = make_data_node(values.type(), n, s);
  size_t groups = 0;
  AFSIM_DISPATCH_NUMERIC(keys.type(), "sumByKey key", {
    using K = T;
    const K* kp = static_cast<const K*>(keys.node()->buffer->data());
    K* kop = static_cast<K*>(ok->buffer->data());
    switch (values.type()) {
      case dtype::s32:
        groups = gpusim::ReduceByKey(
            s, kp, static_cast<const int32_t*>(values.node()->buffer->data()),
            n, kop, static_cast<int32_t*>(ov->buffer->data()),
            [](int32_t x, int32_t y) { return x + y; });
        break;
      case dtype::s64:
        groups = gpusim::ReduceByKey(
            s, kp, static_cast<const int64_t*>(values.node()->buffer->data()),
            n, kop, static_cast<int64_t*>(ov->buffer->data()),
            [](int64_t x, int64_t y) { return x + y; });
        break;
      case dtype::u32:
        groups = gpusim::ReduceByKey(
            s, kp, static_cast<const uint32_t*>(values.node()->buffer->data()),
            n, kop, static_cast<uint32_t*>(ov->buffer->data()),
            [](uint32_t x, uint32_t y) { return x + y; });
        break;
      case dtype::f64:
        groups = gpusim::ReduceByKey(
            s, kp, static_cast<const double*>(values.node()->buffer->data()),
            n, kop, static_cast<double*>(ov->buffer->data()),
            [](double x, double y) { return x + y; });
        break;
      case dtype::f32:
        groups = gpusim::ReduceByKey(
            s, kp, static_cast<const float*>(values.node()->buffer->data()),
            n, kop, static_cast<float*>(ov->buffer->data()),
            [](float x, float y) { return x + y; });
        break;
      default:
        unsupported("sumByKey value", values.type());
    }
  });
  *keys_out = shrink(ok, groups);
  *vals_out = shrink(ov, groups);
}

void countByKey(array* keys_out, array* counts_out, const array& keys) {
  keys.eval();
  gpusim::Stream& s = keys.stream();
  const size_t n = keys.elements();
  if (n == 0) {
    *keys_out = array(make_data_node(keys.type(), 0, s));
    *counts_out = array(make_data_node(dtype::u32, 0, s));
    return;
  }
  // ArrayFire realizes countByKey as a segmented reduction over ones.
  gpusim::DeviceArray<uint32_t> ones(n, s.device());
  gpusim::Fill(s, ones.data(), n, uint32_t{1});
  node_ptr ok = make_data_node(keys.type(), n, s);
  node_ptr oc = make_data_node(dtype::u32, n, s);
  size_t groups = 0;
  AFSIM_DISPATCH_NUMERIC(keys.type(), "countByKey", {
    groups = gpusim::ReduceByKey(
        s, static_cast<const T*>(keys.node()->buffer->data()), ones.data(),
        n, static_cast<T*>(ok->buffer->data()),
        static_cast<uint32_t*>(oc->buffer->data()),
        [](uint32_t x, uint32_t y) { return x + y; });
  });
  *keys_out = shrink(ok, groups);
  *counts_out = shrink(oc, groups);
}

namespace {

/// Shared realization of min/max-ByKey: segmented reduction with the
/// appropriate identity. kIsMin selects the direction.
template <bool kIsMin>
void extremum_by_key(array* keys_out, array* vals_out, const array& keys,
                     const array& values) {
  if (keys.elements() != values.elements()) {
    throw std::invalid_argument("afsim: *ByKey size mismatch");
  }
  keys.eval();
  values.eval();
  gpusim::Stream& s = keys.stream();
  const size_t n = keys.elements();
  if (n == 0) {
    *keys_out = array(make_data_node(keys.type(), 0, s));
    *vals_out = array(make_data_node(values.type(), 0, s));
    return;
  }
  node_ptr ok = make_data_node(keys.type(), n, s);
  node_ptr ov = make_data_node(values.type(), n, s);
  size_t groups = 0;
  AFSIM_DISPATCH_NUMERIC(keys.type(), "minmaxByKey key", {
    using K = T;
    const K* kp = static_cast<const K*>(keys.node()->buffer->data());
    K* kop = static_cast<K*>(ok->buffer->data());
    AFSIM_DISPATCH_NUMERIC(values.type(), "minmaxByKey value", {
      using V = T;
      groups = gpusim::ReduceByKey(
          s, kp, static_cast<const V*>(values.node()->buffer->data()), n,
          kop, static_cast<V*>(ov->buffer->data()),
          [](V x, V y) { return kIsMin ? (y < x ? y : x) : (x < y ? y : x); });
    });
  });
  *keys_out = shrink(ok, groups);
  *vals_out = shrink(ov, groups);
}

}  // namespace

void minByKey(array* keys_out, array* vals_out, const array& keys,
              const array& values) {
  extremum_by_key<true>(keys_out, vals_out, keys, values);
}

void maxByKey(array* keys_out, array* vals_out, const array& keys,
              const array& values) {
  extremum_by_key<false>(keys_out, vals_out, keys, values);
}

void assign_indexed(const array& target, const array& indices,
                    const array& values) {
  if (indices.type() != dtype::u32 && indices.type() != dtype::s32) {
    unsupported("assign_indexed index", indices.type());
  }
  if (target.type() != values.type()) {
    unsupported("assign_indexed value", values.type());
  }
  target.eval();
  indices.eval();
  values.eval();
  gpusim::Stream& s = target.stream();
  const size_t n = indices.elements();
  const uint32_t* map =
      static_cast<const uint32_t*>(indices.node()->buffer->data());
  AFSIM_DISPATCH_ALL(target.type(), "assign_indexed", {
    gpusim::Scatter(s, static_cast<const T*>(values.node()->buffer->data()),
                    map, n, static_cast<T*>(target.node()->buffer->data()));
  });
}

array setUnique(const array& a, bool is_sorted) {
  array sorted = is_sorted ? a : sort(a);
  sorted.eval();
  gpusim::Stream& s = sorted.stream();
  const size_t n = sorted.elements();
  if (n == 0) return sorted;
  node_ptr tmp = make_data_node(sorted.type(), n, s);
  size_t uniq = 0;
  AFSIM_DISPATCH_NUMERIC(sorted.type(), "setUnique", {
    uniq = gpusim::UniqueSorted(
        s, static_cast<const T*>(sorted.node()->buffer->data()), n,
        static_cast<T*>(tmp->buffer->data()));
  });
  return shrink(tmp, uniq);
}

array setIntersect(const array& a, const array& b, bool is_unique) {
  array ua = is_unique ? a : setUnique(a);
  array ub = is_unique ? b : setUnique(b);
  ua.eval();
  ub.eval();
  gpusim::Stream& s = ua.stream();
  if (ua.type() != ub.type()) unsupported("setIntersect rhs", ub.type());
  const size_t na = ua.elements();
  if (na == 0 || ub.elements() == 0) {
    return array(make_data_node(ua.type(), 0, s));
  }
  node_ptr tmp = make_data_node(ua.type(), na, s);
  size_t out_n = 0;
  AFSIM_DISPATCH_NUMERIC(ua.type(), "setIntersect", {
    out_n = gpusim::SetIntersectSorted(
        s, static_cast<const T*>(ua.node()->buffer->data()), na,
        static_cast<const T*>(ub.node()->buffer->data()), ub.elements(),
        static_cast<T*>(tmp->buffer->data()));
  });
  return shrink(tmp, out_n);
}

array setUnion(const array& a, const array& b, bool is_unique) {
  (void)is_unique;  // union must re-sort the concatenation regardless
  if (a.type() != b.type()) unsupported("setUnion rhs", b.type());
  return setUnique(join(a, b), /*is_sorted=*/false);
}

array join(const array& a, const array& b) {
  if (a.type() != b.type()) unsupported("join rhs", b.type());
  a.eval();
  b.eval();
  gpusim::Stream& s = a.stream();
  const size_t na = a.elements(), nb = b.elements();
  node_ptr out = make_data_node(a.type(), na + nb, s);
  char* dst = static_cast<char*>(out->buffer->data());
  const size_t es = dtype_size(a.type());
  if (na > 0) {
    gpusim::CopyDeviceToDevice(s, dst, a.node()->buffer->data(), na * es);
  }
  if (nb > 0) {
    gpusim::CopyDeviceToDevice(s, dst + na * es, b.node()->buffer->data(),
                               nb * es);
  }
  return array(std::move(out));
}

}  // namespace afsim
