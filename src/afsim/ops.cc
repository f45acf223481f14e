// Element-wise operator graph builders (lazy).
#include <cmath>

#include "afsim/array.h"

namespace afsim {
namespace {

using detail::binary_op;
using detail::node;
using detail::node_ptr;
using detail::unary_op;

/// Type promotion rank: wider/floatier wins (b8 < s32 < u32 < s64 < f32 < f64).
int rank(dtype t) {
  switch (t) {
    case dtype::b8: return 0;
    case dtype::s32: return 1;
    case dtype::u32: return 2;
    case dtype::s64: return 3;
    case dtype::f32: return 4;
    case dtype::f64: return 5;
  }
  return 0;
}

dtype promote(dtype a, dtype b) { return rank(a) >= rank(b) ? a : b; }

/// Broadcast scalar literal typed to pair with `peer`.
node_ptr make_literal(double value, const node_ptr& peer) {
  auto nd = std::make_shared<node>();
  nd->k = node::kind::scalar;
  nd->n = peer->n;
  nd->stream = peer->stream;
  const bool fractional = value != std::floor(value);
  nd->type = (is_floating(peer->type) || fractional) ? dtype::f64 : peer->type;
  nd->value.f = value;
  nd->value.i = static_cast<int64_t>(value);
  return nd;
}

array finish(node_ptr nd) {
  nd->stream->ChargeOverhead(kJitNodeOverheadNs);
  array out(std::move(nd));
  // Bound the fused kernel size like ArrayFire's JIT does.
  if (out.node()->tree_size > kMaxJitTreeSize) out.eval();
  return out;
}

array make_binary(binary_op op, const node_ptr& a, const node_ptr& b) {
  if (!a || !b) throw std::invalid_argument("afsim: binary op on null array");
  if (a->n != b->n) {
    throw std::invalid_argument("afsim: size mismatch in binary op");
  }
  if (a->stream != b->stream) {
    throw std::invalid_argument("afsim: binary op across streams");
  }
  auto nd = std::make_shared<node>();
  nd->k = node::kind::binary;
  nd->bop = op;
  nd->lhs = a;
  nd->rhs = b;
  nd->n = a->n;
  nd->stream = a->stream;
  nd->type = detail::is_predicate(op) ? dtype::b8 : promote(a->type, b->type);
  nd->tree_size = 1 + a->tree_size + b->tree_size;
  return finish(std::move(nd));
}

array make_binary(binary_op op, const array& a, const array& b) {
  return make_binary(op, a.node(), b.node());
}

array make_binary_scalar(binary_op op, const array& a, double b) {
  return make_binary(op, a.node(), make_literal(b, a.node()));
}

array make_scalar_binary(binary_op op, double a, const array& b) {
  return make_binary(op, make_literal(a, b.node()), b.node());
}

array make_unary(unary_op op, const array& a, dtype result) {
  if (!a.node()) throw std::invalid_argument("afsim: unary op on null array");
  auto nd = std::make_shared<node>();
  nd->k = node::kind::unary;
  nd->uop = op;
  nd->lhs = a.node();
  nd->n = a.node()->n;
  nd->stream = a.node()->stream;
  nd->type = result;
  nd->tree_size = 1 + a.node()->tree_size;
  return finish(std::move(nd));
}

}  // namespace

array constant(double value, size_t n, dtype t, gpusim::Stream& stream) {
  auto nd = std::make_shared<node>();
  nd->k = node::kind::scalar;
  nd->n = n;
  nd->stream = &stream;
  nd->type = t;
  nd->value.f = value;
  nd->value.i = static_cast<int64_t>(value);
  stream.ChargeOverhead(kJitNodeOverheadNs);
  return array(std::move(nd));
}

array operator+(const array& a, const array& b) { return make_binary(binary_op::add, a, b); }
array operator-(const array& a, const array& b) { return make_binary(binary_op::sub, a, b); }
array operator*(const array& a, const array& b) { return make_binary(binary_op::mul, a, b); }
array operator/(const array& a, const array& b) { return make_binary(binary_op::div, a, b); }
array operator>(const array& a, const array& b) { return make_binary(binary_op::gt, a, b); }
array operator<(const array& a, const array& b) { return make_binary(binary_op::lt, a, b); }
array operator>=(const array& a, const array& b) { return make_binary(binary_op::ge, a, b); }
array operator<=(const array& a, const array& b) { return make_binary(binary_op::le, a, b); }
array operator==(const array& a, const array& b) { return make_binary(binary_op::eq, a, b); }
array operator!=(const array& a, const array& b) { return make_binary(binary_op::ne, a, b); }
array operator&&(const array& a, const array& b) { return make_binary(binary_op::logical_and, a, b); }
array operator||(const array& a, const array& b) { return make_binary(binary_op::logical_or, a, b); }

array operator!(const array& a) { return make_unary(unary_op::logical_not, a, dtype::b8); }
array operator-(const array& a) { return make_unary(unary_op::neg, a, a.type()); }

array operator+(const array& a, double b) { return make_binary_scalar(binary_op::add, a, b); }
array operator-(const array& a, double b) { return make_binary_scalar(binary_op::sub, a, b); }
array operator*(const array& a, double b) { return make_binary_scalar(binary_op::mul, a, b); }
array operator/(const array& a, double b) { return make_binary_scalar(binary_op::div, a, b); }
array operator>(const array& a, double b) { return make_binary_scalar(binary_op::gt, a, b); }
array operator<(const array& a, double b) { return make_binary_scalar(binary_op::lt, a, b); }
array operator>=(const array& a, double b) { return make_binary_scalar(binary_op::ge, a, b); }
array operator<=(const array& a, double b) { return make_binary_scalar(binary_op::le, a, b); }
array operator==(const array& a, double b) { return make_binary_scalar(binary_op::eq, a, b); }
array operator!=(const array& a, double b) { return make_binary_scalar(binary_op::ne, a, b); }
array operator+(double a, const array& b) { return make_scalar_binary(binary_op::add, a, b); }
array operator-(double a, const array& b) { return make_scalar_binary(binary_op::sub, a, b); }
array operator*(double a, const array& b) { return make_scalar_binary(binary_op::mul, a, b); }
array operator>(double a, const array& b) { return make_scalar_binary(binary_op::gt, a, b); }
array operator<(double a, const array& b) { return make_scalar_binary(binary_op::lt, a, b); }

array min_of(const array& a, const array& b) { return make_binary(binary_op::min, a, b); }
array max_of(const array& a, const array& b) { return make_binary(binary_op::max, a, b); }

array cast(const array& a, dtype t) {
  if (a.type() == t) return a;
  return make_unary(unary_op::cast, a, t);
}

}  // namespace afsim
