// Internal expression-DAG node of the ArrayFire-like library.
//
// ArrayFire arrays are runtime-typed handles onto a lazy expression graph;
// element-wise operations build JIT nodes and only materialize when a
// consumer needs real memory (eval(), reductions, sort, host copies). At
// eval time the whole element-wise subtree is fused into ONE generated
// kernel — a single pass over the leaf buffers — which is ArrayFire's
// signature performance behaviour that the paper's experiments surface.
// fused_kernel is that kernel's host-side evaluator.
#ifndef AFSIM_NODE_H_
#define AFSIM_NODE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "gpusim/memory.h"

namespace gpusim {
class Stream;
}  // namespace gpusim

namespace afsim {

/// Runtime element type of an array (af::dtype).
enum class dtype : uint8_t {
  b8,   ///< boolean stored as uint8_t
  s32,  ///< int32_t
  s64,  ///< int64_t
  u32,  ///< uint32_t
  f32,  ///< float
  f64,  ///< double
};

/// Size in bytes of one element of `t`.
inline size_t dtype_size(dtype t) {
  switch (t) {
    case dtype::b8: return 1;
    case dtype::s32: return 4;
    case dtype::s64: return 8;
    case dtype::u32: return 4;
    case dtype::f32: return 4;
    case dtype::f64: return 8;
  }
  return 0;
}

inline const char* dtype_name(dtype t) {
  switch (t) {
    case dtype::b8: return "b8";
    case dtype::s32: return "s32";
    case dtype::s64: return "s64";
    case dtype::u32: return "u32";
    case dtype::f32: return "f32";
    case dtype::f64: return "f64";
  }
  return "?";
}

/// True for f32/f64.
inline bool is_floating(dtype t) { return t == dtype::f32 || t == dtype::f64; }

namespace detail {

enum class unary_op : uint8_t { neg, logical_not, cast };

enum class binary_op : uint8_t {
  add, sub, mul, div,
  gt, lt, ge, le, eq, ne,
  logical_and, logical_or,
  min, max,
};

/// True if `op` yields a b8 result regardless of operand types.
inline bool is_predicate(binary_op op) {
  switch (op) {
    case binary_op::gt:
    case binary_op::lt:
    case binary_op::ge:
    case binary_op::le:
    case binary_op::eq:
    case binary_op::ne:
    case binary_op::logical_and:
    case binary_op::logical_or:
      return true;
    default:
      return false;
  }
}

/// Untyped scalar literal; interpretation depends on the node's dtype.
struct literal {
  double f = 0.0;
  int64_t i = 0;
};

/// One node of the lazy graph. A node is either materialized device data or
/// an element-wise expression over child nodes. eval() mutates expression
/// nodes into data nodes in place, so every handle sharing the node benefits.
struct node {
  enum class kind : uint8_t { data, scalar, unary, binary } k = kind::data;
  dtype type = dtype::f32;
  size_t n = 0;  ///< element count (scalar nodes broadcast, n is peer count)

  /// The stream the array was created on; every kernel, copy and JIT
  /// charge of the node and of the nodes built from it goes here.
  gpusim::Stream* stream = nullptr;

  // kind::data
  std::shared_ptr<gpusim::DeviceBuffer> buffer;

  // kind::scalar
  literal value;

  // kind::unary / kind::binary
  unary_op uop = unary_op::neg;
  binary_op bop = binary_op::add;
  std::shared_ptr<node> lhs;
  std::shared_ptr<node> rhs;

  /// Number of nodes in this expression subtree (1 for leaves). Used both
  /// for the fusion-length heuristic and for op-count cost accounting.
  uint32_t tree_size = 1;

  bool materialized() const { return k == kind::data; }
};

using node_ptr = std::shared_ptr<node>;

/// Elements per tile of the fused kernel: each node of the tree is
/// evaluated over this many elements at a time.
inline constexpr size_t kJitTileElems = 128;

/// One node's values over one tile (defined in eval.cc).
union lane;

/// The kernel ArrayFire's JIT would generate for one element-wise tree,
/// evaluated a tile at a time. Each node takes one switch per tile and writes
/// a typed lane, `double` for f32/f64 nodes and `int64_t` for the rest, so a
/// value keeps the widest type of its class, as in a generated kernel's
/// registers, until the root is stored as its dtype. A node that the tree
/// reaches twice (`a * a`) is evaluated once per tile.
class fused_kernel {
 public:
  explicit fused_kernel(const node* root);

  /// Device bytes one launch reads: every distinct data leaf once.
  uint64_t leaf_bytes() const;

  /// Writes elements [begin, end) of the root into `out`, an array of the
  /// root's dtype indexed from element 0. Disjoint ranges may run
  /// concurrently: each call evaluates on scratch of its own (16 KiB of
  /// stack, or a heap block for trees of more than 14 steps).
  void run(void* out, size_t begin, size_t end) const;

 private:
  struct step {
    const node* nd = nullptr;
    uint32_t lhs = 0;  ///< step of nd->lhs (unary and binary nodes)
    uint32_t rhs = 0;  ///< step of nd->rhs (binary nodes)
  };

  uint32_t flatten(const node* nd);
  const double* floats(uint32_t k, size_t t, lane* lanes) const;
  const int64_t* ints(uint32_t k, size_t t, lane* lanes) const;
  const double* as_f(uint32_t k, size_t t, size_t m, lane* lanes,
                     double* tmp) const;
  const int64_t* as_i(uint32_t k, size_t t, size_t m, lane* lanes,
                      int64_t* tmp) const;
  const int64_t* truth(uint32_t k, size_t t, size_t m, lane* lanes,
                       int64_t* tmp) const;
  void eval_step(uint32_t k, size_t t, size_t m, lane* lanes) const;

  std::vector<step> steps_;  ///< children before parents, the root last
};

}  // namespace detail
}  // namespace afsim

#endif  // AFSIM_NODE_H_
