// JIT evaluation: fuses an element-wise expression tree into a single kernel,
// which fused_kernel evaluates on the host a tile at a time.
#include <algorithm>
#include <memory>
#include <type_traits>

#include "afsim/array.h"
#include "gpusim/kernel.h"

namespace afsim {

gpusim::Stream& default_stream() {
  static gpusim::Stream* stream =
      new gpusim::Stream(gpusim::Device::Default(), gpusim::ApiProfile::Cuda());
  return *stream;
}

namespace detail {

node_ptr make_data_node(dtype t, size_t n, gpusim::Stream& stream) {
  auto nd = std::make_shared<node>();
  nd->k = node::kind::data;
  nd->type = t;
  nd->n = n;
  nd->stream = &stream;
  nd->buffer = std::make_shared<gpusim::DeviceBuffer>(n * dtype_size(t),
                                                      stream.device());
  return nd;
}

/// The values of one node over one tile: `f` for floating node types, `i`
/// for the rest.
union lane {
  double f[kJitTileElems];
  int64_t i[kJitTileElems];
};

namespace {

template <typename X, typename Out, typename Op>
inline void map1(const X* x, Out* o, size_t m, Op op) {
  for (size_t j = 0; j < m; ++j) o[j] = op(x[j]);
}

template <typename X, typename Out, typename Op>
inline void map2(const X* x, const X* y, Out* o, size_t m, Op op) {
  for (size_t j = 0; j < m; ++j) o[j] = op(x[j], y[j]);
}

/// Loads elements [t, t + m) of a data leaf into its lane. s64 and f64
/// leaves are read in place and never loaded.
void load(const node* nd, size_t t, size_t m, lane* o) {
  const void* p = nd->buffer->data();
  switch (nd->type) {
    case dtype::b8:
      std::copy_n(static_cast<const uint8_t*>(p) + t, m, o->i);
      break;
    case dtype::s32:
      std::copy_n(static_cast<const int32_t*>(p) + t, m, o->i);
      break;
    case dtype::u32:
      std::copy_n(static_cast<const uint32_t*>(p) + t, m, o->i);
      break;
    case dtype::f32:
      std::copy_n(static_cast<const float*>(p) + t, m, o->f);
      break;
    case dtype::s64:
    case dtype::f64:
      break;
  }
}

/// o[j] = x[j] <op> y[j] for an arithmetic op. Integer division by zero
/// gives 0; min and max keep the form that fixes their NaN and -0.0
/// results.
template <typename V>
void arith(binary_op op, const V* x, const V* y, V* o, size_t m) {
  switch (op) {
    case binary_op::add:
      map2(x, y, o, m, [](V p, V q) { return p + q; });
      break;
    case binary_op::sub:
      map2(x, y, o, m, [](V p, V q) { return p - q; });
      break;
    case binary_op::mul:
      map2(x, y, o, m, [](V p, V q) { return p * q; });
      break;
    case binary_op::div:
      if constexpr (std::is_integral_v<V>) {
        map2(x, y, o, m, [](V p, V q) -> V { return q == 0 ? 0 : p / q; });
      } else {
        map2(x, y, o, m, [](V p, V q) { return p / q; });
      }
      break;
    case binary_op::min:
      map2(x, y, o, m, [](V p, V q) { return q < p ? q : p; });
      break;
    case binary_op::max:
      map2(x, y, o, m, [](V p, V q) { return p < q ? q : p; });
      break;
    default: break;
  }
}

/// o[j] = x[j] <op> y[j] for a comparison op, as 0 or 1.
template <typename V>
void compare(binary_op op, const V* x, const V* y, int64_t* o, size_t m) {
  switch (op) {
    case binary_op::gt:
      map2(x, y, o, m, [](V p, V q) { return p > q; });
      break;
    case binary_op::lt:
      map2(x, y, o, m, [](V p, V q) { return p < q; });
      break;
    case binary_op::ge:
      map2(x, y, o, m, [](V p, V q) { return p >= q; });
      break;
    case binary_op::le:
      map2(x, y, o, m, [](V p, V q) { return p <= q; });
      break;
    case binary_op::eq:
      map2(x, y, o, m, [](V p, V q) { return p == q; });
      break;
    case binary_op::ne:
      map2(x, y, o, m, [](V p, V q) { return p != q; });
      break;
    default: break;
  }
}

/// Writes the root's lane to elements [t, t + m) of `out` as dtype `type`.
void store(void* out, dtype type, size_t t, size_t m, const double* f,
           const int64_t* i) {
  switch (type) {
    case dtype::b8:
      map1(i, static_cast<uint8_t*>(out) + t, m,
           [](int64_t x) { return static_cast<uint8_t>(x != 0); });
      break;
    case dtype::s32:
      map1(i, static_cast<int32_t*>(out) + t, m,
           [](int64_t x) { return static_cast<int32_t>(x); });
      break;
    case dtype::s64: std::copy_n(i, m, static_cast<int64_t*>(out) + t); break;
    case dtype::u32:
      map1(i, static_cast<uint32_t*>(out) + t, m,
           [](int64_t x) { return static_cast<uint32_t>(x); });
      break;
    case dtype::f32:
      map1(f, static_cast<float*>(out) + t, m,
           [](double x) { return static_cast<float>(x); });
      break;
    case dtype::f64: std::copy_n(f, m, static_cast<double*>(out) + t); break;
  }
}

}  // namespace

fused_kernel::fused_kernel(const node* root) { flatten(root); }

uint32_t fused_kernel::flatten(const node* nd) {
  for (uint32_t k = 0; k < steps_.size(); ++k) {
    if (steps_[k].nd == nd) return k;
  }
  step s;
  s.nd = nd;
  if (nd->lhs) s.lhs = flatten(nd->lhs.get());
  if (nd->rhs) s.rhs = flatten(nd->rhs.get());
  steps_.push_back(s);
  return static_cast<uint32_t>(steps_.size() - 1);
}

uint64_t fused_kernel::leaf_bytes() const {
  uint64_t bytes = 0;
  for (const step& s : steps_) {
    if (s.nd->k == node::kind::data) bytes += s.nd->n * dtype_size(s.nd->type);
  }
  return bytes;
}

const double* fused_kernel::floats(uint32_t k, size_t t, lane* lanes) const {
  const node* nd = steps_[k].nd;
  if (nd->k == node::kind::data && nd->type == dtype::f64) {
    return static_cast<const double*>(nd->buffer->data()) + t;
  }
  return lanes[k].f;
}

const int64_t* fused_kernel::ints(uint32_t k, size_t t, lane* lanes) const {
  const node* nd = steps_[k].nd;
  if (nd->k == node::kind::data && nd->type == dtype::s64) {
    return static_cast<const int64_t*>(nd->buffer->data()) + t;
  }
  return lanes[k].i;
}

const double* fused_kernel::as_f(uint32_t k, size_t t, size_t m, lane* lanes,
                                 double* tmp) const {
  if (is_floating(steps_[k].nd->type)) return floats(k, t, lanes);
  map1(ints(k, t, lanes), tmp, m,
       [](int64_t x) { return static_cast<double>(x); });
  return tmp;
}

const int64_t* fused_kernel::as_i(uint32_t k, size_t t, size_t m, lane* lanes,
                                  int64_t* tmp) const {
  if (!is_floating(steps_[k].nd->type)) return ints(k, t, lanes);
  map1(floats(k, t, lanes), tmp, m,
       [](double x) { return static_cast<int64_t>(x); });
  return tmp;
}

const int64_t* fused_kernel::truth(uint32_t k, size_t t, size_t m,
                                   lane* lanes, int64_t* tmp) const {
  if (is_floating(steps_[k].nd->type)) {
    map1(floats(k, t, lanes), tmp, m,
         [](double x) -> int64_t { return x != 0.0; });
  } else {
    map1(ints(k, t, lanes), tmp, m,
         [](int64_t x) -> int64_t { return x != 0; });
  }
  return tmp;
}

void fused_kernel::eval_step(uint32_t k, size_t t, size_t m,
                             lane* lanes) const {
  const node* nd = steps_[k].nd;
  const uint32_t a = steps_[k].lhs;
  const uint32_t b = steps_[k].rhs;
  lane& o = lanes[k];
  // Operands converted to the other class go to the two lanes past the
  // steps' own.
  lane& ta = lanes[steps_.size()];
  lane& tb = lanes[steps_.size() + 1];
  switch (nd->k) {
    case node::kind::data:
      load(nd, t, m, &o);
      return;
    case node::kind::scalar:
      return;  // filled once per range
    case node::kind::unary:
      switch (nd->uop) {
        case unary_op::neg:
          if (is_floating(nd->type)) {
            map1(as_f(a, t, m, lanes, ta.f), o.f, m,
                 [](double x) { return -x; });
          } else {
            map1(as_i(a, t, m, lanes, ta.i), o.i, m,
                 [](int64_t x) { return -x; });
          }
          return;
        case unary_op::logical_not:
          map1(truth(a, t, m, lanes, ta.i), o.i, m,
               [](int64_t x) -> int64_t { return x ? 0 : 1; });
          return;
        case unary_op::cast:
          if (is_floating(nd->type)) {
            std::copy_n(as_f(a, t, m, lanes, ta.f), m, o.f);
          } else if (nd->type == dtype::b8) {
            std::copy_n(truth(a, t, m, lanes, ta.i), m, o.i);
          } else {
            std::copy_n(as_i(a, t, m, lanes, ta.i), m, o.i);
          }
          return;
      }
      return;
    case node::kind::binary:
      break;
  }
  const bool float_args =
      is_floating(steps_[a].nd->type) || is_floating(steps_[b].nd->type);
  switch (nd->bop) {
    case binary_op::add:
    case binary_op::sub:
    case binary_op::mul:
    case binary_op::div:
    case binary_op::min:
    case binary_op::max:
      if (is_floating(nd->type)) {
        arith(nd->bop, as_f(a, t, m, lanes, ta.f), as_f(b, t, m, lanes, tb.f),
              o.f, m);
      } else {
        arith(nd->bop, as_i(a, t, m, lanes, ta.i), as_i(b, t, m, lanes, tb.i),
              o.i, m);
      }
      return;
    case binary_op::gt:
    case binary_op::lt:
    case binary_op::ge:
    case binary_op::le:
    case binary_op::eq:
    case binary_op::ne:
      if (float_args) {
        compare(nd->bop, as_f(a, t, m, lanes, ta.f),
                as_f(b, t, m, lanes, tb.f), o.i, m);
      } else {
        compare(nd->bop, as_i(a, t, m, lanes, ta.i),
                as_i(b, t, m, lanes, tb.i), o.i, m);
      }
      return;
    case binary_op::logical_and:
      map2(truth(a, t, m, lanes, ta.i), truth(b, t, m, lanes, tb.i), o.i, m,
           [](int64_t p, int64_t q) -> int64_t { return p && q; });
      return;
    case binary_op::logical_or:
      map2(truth(a, t, m, lanes, ta.i), truth(b, t, m, lanes, tb.i), o.i, m,
           [](int64_t p, int64_t q) -> int64_t { return p || q; });
      return;
  }
}

void fused_kernel::run(void* out, size_t begin, size_t end) const {
  const uint32_t num = static_cast<uint32_t>(steps_.size());
  // A lane per step and two for converted operands. Trees of up to
  // kStackLanes - 2 steps, such as a predicate's `col op k`, evaluate on
  // the stack: a heap block per host range raised the benchmark's peak
  // RSS, most likely through a malloc arena per pool worker.
  constexpr uint32_t kStackLanes = 16;
  lane stack_lanes[kStackLanes];
  std::unique_ptr<lane[]> heap_lanes;
  lane* lanes = stack_lanes;
  if (num + 2 > kStackLanes) {
    heap_lanes.reset(new lane[num + 2]);
    lanes = heap_lanes.get();
  }
  for (uint32_t k = 0; k < num; ++k) {
    const node* nd = steps_[k].nd;
    if (nd->k != node::kind::scalar) continue;
    if (is_floating(nd->type)) {
      std::fill_n(lanes[k].f, kJitTileElems, nd->value.f);
    } else {
      std::fill_n(lanes[k].i, kJitTileElems, nd->value.i);
    }
  }
  const uint32_t root = num - 1;
  const dtype type = steps_[root].nd->type;
  for (size_t t = begin; t < end; t += kJitTileElems) {
    const size_t m = std::min(end - t, kJitTileElems);
    for (uint32_t k = 0; k < num; ++k) eval_step(k, t, m, lanes);
    if (is_floating(type)) {
      store(out, type, t, m, floats(root, t, lanes), nullptr);
    } else {
      store(out, type, t, m, nullptr, ints(root, t, lanes));
    }
  }
}

}  // namespace detail

array from_buffer(std::shared_ptr<gpusim::DeviceBuffer> buffer, dtype t,
                  size_t n, gpusim::Stream& stream) {
  auto nd = std::make_shared<detail::node>();
  nd->k = detail::node::kind::data;
  nd->type = t;
  nd->n = n;
  nd->stream = &stream;
  nd->buffer = std::move(buffer);
  return array(std::move(nd));
}

const array& array::eval() const {
  using detail::node;
  if (!node_ || node_->k == node::kind::data) return *this;
  const size_t n = node_->n;
  gpusim::Stream& s = stream();
  auto buffer = std::make_shared<gpusim::DeviceBuffer>(
      n * dtype_size(node_->type), s.device());

  const detail::fused_kernel kernel(node_.get());
  gpusim::KernelStats stats;
  stats.name = "af::jit_fused";
  stats.bytes_read = kernel.leaf_bytes();
  stats.bytes_written = n * dtype_size(node_->type);
  stats.ops = static_cast<uint64_t>(n) * node_->tree_size;
  void* out = buffer->data();
  gpusim::ParallelForRange(
      s, n, stats,
      [&](size_t begin, size_t end) { kernel.run(out, begin, end); });

  // Mutate the shared node into a data node so every aliasing handle sees
  // the materialized result (af semantics).
  node_->k = node::kind::data;
  node_->buffer = std::move(buffer);
  node_->lhs.reset();
  node_->rhs.reset();
  node_->tree_size = 1;
  return *this;
}

}  // namespace afsim
