// Tests of the ArrayFire-compatible API surface, especially the lazy
// evaluation / JIT fusion behaviour that distinguishes it from the eager
// libraries.
#include "afsim/afsim.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstring>
#include <numeric>
#include <random>
#include <set>
#include <vector>

namespace {

using afsim::array;
using afsim::dtype;

TEST(AfsimArrayTest, HostRoundtripPerType) {
  const std::vector<int32_t> i32{1, -2, 3};
  EXPECT_EQ(afsim::from_vector(i32).host<int32_t>(), i32);
  const std::vector<double> f64{1.5, -2.5};
  EXPECT_EQ(afsim::from_vector(f64).host<double>(), f64);
  const std::vector<int64_t> i64{int64_t{1} << 40};
  EXPECT_EQ(afsim::from_vector(i64).host<int64_t>(), i64);
}

TEST(AfsimArrayTest, HostTypeMismatchThrows) {
  array a = afsim::from_vector(std::vector<int32_t>{1});
  EXPECT_THROW(a.host<double>(), std::invalid_argument);
}

TEST(AfsimArrayTest, ScalarExtraction) {
  array a = afsim::from_vector(std::vector<double>{42.5, 1.0});
  EXPECT_EQ(a.scalar<double>(), 42.5);
  EXPECT_THROW(array().scalar<double>(), std::invalid_argument);
}

TEST(AfsimLazyTest, ElementwiseOpsAreLazyUntilEval) {
  array a = afsim::from_vector(std::vector<double>(1000, 2.0));
  array b = afsim::from_vector(std::vector<double>(1000, 3.0));
  const auto before = gpusim::Device::Default().Snapshot();
  array c = a * b + 1.0;
  // Graph building launches nothing.
  EXPECT_EQ(gpusim::Device::Default().Snapshot().Delta(before)
                .kernels_launched,
            0u);
  EXPECT_TRUE(c.is_lazy());
  c.eval();
  EXPECT_FALSE(c.is_lazy());
  const auto delta = gpusim::Device::Default().Snapshot().Delta(before);
  EXPECT_EQ(delta.kernels_launched, 1u);  // the whole chain fused
  EXPECT_EQ(c.host<double>()[0], 7.0);
}

TEST(AfsimLazyTest, FusionReadsEachLeafOnce) {
  const size_t n = 10000;
  array a = afsim::from_vector(std::vector<double>(n, 1.0));
  const auto before = gpusim::Device::Default().Snapshot();
  // Four chained element-wise stages over one input.
  array c = ((a + 1.0) * 2.0 - 3.0) * 0.5;
  c.eval();
  const auto delta = gpusim::Device::Default().Snapshot().Delta(before);
  EXPECT_EQ(delta.kernels_launched, 1u);
  // One pass: reads the single leaf once, writes the output once.
  EXPECT_EQ(delta.bytes_read, n * sizeof(double));
  EXPECT_EQ(delta.bytes_written, n * sizeof(double));
}

TEST(AfsimLazyTest, EvalIsIdempotentAndSharedAcrossHandles) {
  array a = afsim::from_vector(std::vector<int32_t>{1, 2, 3});
  array b = a + 1.0;
  array alias = b;  // shares the lazy node
  b.eval();
  EXPECT_FALSE(alias.is_lazy());  // aliasing handle sees materialization
  const auto before = gpusim::Device::Default().Snapshot();
  b.eval();
  EXPECT_EQ(gpusim::Device::Default().Snapshot().Delta(before)
                .kernels_launched,
            0u);
}

TEST(AfsimLazyTest, DeepChainsAutoEvaluate) {
  array a = afsim::from_vector(std::vector<double>(64, 1.0));
  // Build a chain far beyond the JIT length bound; it must stay correct.
  for (int i = 0; i < 100; ++i) a = a + 1.0;
  EXPECT_EQ(a.host<double>()[0], 101.0);
}

TEST(AfsimTypeTest, ComparisonYieldsB8) {
  array a = afsim::from_vector(std::vector<int32_t>{1, 5, 3});
  array m = a > 2.0;
  EXPECT_EQ(m.type(), dtype::b8);
  EXPECT_EQ(m.host<uint8_t>(), (std::vector<uint8_t>{0, 1, 1}));
}

TEST(AfsimTypeTest, ArithmeticPromotesToWiderType) {
  array i = afsim::from_vector(std::vector<int32_t>{4});
  array d = afsim::from_vector(std::vector<double>{0.5});
  EXPECT_EQ((i * d).type(), dtype::f64);
  EXPECT_EQ((i * d).host<double>()[0], 2.0);
  EXPECT_EQ((i + i).type(), dtype::s32);
}

TEST(AfsimTypeTest, IntegerScalarKeepsIntegerType) {
  array i = afsim::from_vector(std::vector<int32_t>{10});
  EXPECT_EQ((i + 1.0).type(), dtype::s32);
  EXPECT_EQ((i + 0.5).type(), dtype::f64);
}

TEST(AfsimTypeTest, CastConvertsValues) {
  array d = afsim::from_vector(std::vector<double>{2.75, -1.25});
  array i = afsim::cast(d, dtype::s32);
  EXPECT_EQ(i.host<int32_t>(), (std::vector<int32_t>{2, -1}));
  array b = afsim::cast(d, dtype::b8);
  EXPECT_EQ(b.host<uint8_t>(), (std::vector<uint8_t>{1, 1}));
}

TEST(AfsimTypeTest, LogicalOpsAndNot) {
  array a = afsim::from_vector(std::vector<int32_t>{0, 1, 2, 0});
  array b = afsim::from_vector(std::vector<int32_t>{1, 1, 0, 0});
  EXPECT_EQ((a && b).host<uint8_t>(), (std::vector<uint8_t>{0, 1, 0, 0}));
  EXPECT_EQ((a || b).host<uint8_t>(), (std::vector<uint8_t>{1, 1, 1, 0}));
  EXPECT_EQ((!a).host<uint8_t>(), (std::vector<uint8_t>{1, 0, 0, 1}));
}

TEST(AfsimTypeTest, SizeMismatchThrows) {
  array a = afsim::from_vector(std::vector<int32_t>{1, 2});
  array b = afsim::from_vector(std::vector<int32_t>{1, 2, 3});
  EXPECT_THROW(a + b, std::invalid_argument);
  // A constant is sized like any array: a longer one would read past its
  // peer's leaf.
  EXPECT_THROW(afsim::constant(2.0, 20, dtype::f64) +
                   afsim::from_vector(std::vector<double>(10, 1.0)),
               std::invalid_argument);
}

TEST(AfsimWhereTest, WhereReturnsAscendingIndices) {
  array a = afsim::from_vector(std::vector<int32_t>{5, -1, 7, 0, 9});
  array idx = afsim::where(a > 0.0);
  EXPECT_EQ(idx.type(), dtype::u32);
  EXPECT_EQ(idx.host<uint32_t>(), (std::vector<uint32_t>{0, 2, 4}));
}

TEST(AfsimWhereTest, WhereOnFusedPredicate) {
  array qty = afsim::from_vector(std::vector<double>{10, 30, 20, 50});
  array disc = afsim::from_vector(std::vector<double>{0.05, 0.05, 0.10, 0.01});
  array idx = afsim::where(qty < 25.0 && disc >= 0.05);
  EXPECT_EQ(idx.host<uint32_t>(), (std::vector<uint32_t>{0, 2}));
}

TEST(AfsimWhereTest, LookupGathers) {
  array a = afsim::from_vector(std::vector<double>{10, 20, 30, 40});
  array idx = afsim::from_vector(std::vector<uint32_t>{3, 0, 3});
  EXPECT_EQ(afsim::lookup(a, idx).host<double>(),
            (std::vector<double>{40, 10, 40}));
}

TEST(AfsimReduceTest, SumMinMaxCount) {
  array a = afsim::from_vector(std::vector<double>{1.5, -2.0, 3.5});
  EXPECT_DOUBLE_EQ(afsim::sum<double>(a), 3.0);
  EXPECT_DOUBLE_EQ(afsim::min_all<double>(a), -2.0);
  EXPECT_DOUBLE_EQ(afsim::max_all<double>(a), 3.5);
  array m = afsim::from_vector(std::vector<int32_t>{0, 3, 0, 1});
  EXPECT_EQ(afsim::count(m), 2u);
  array i = afsim::from_vector(std::vector<int64_t>{1, 2, 3});
  EXPECT_EQ(afsim::sum<int64_t>(i), 6);
}

TEST(AfsimReduceTest, SumForcesEvaluationOfLazyInput) {
  array a = afsim::from_vector(std::vector<double>{1, 2, 3});
  array b = a * 2.0;
  EXPECT_TRUE(b.is_lazy());
  EXPECT_DOUBLE_EQ(afsim::sum<double>(b), 12.0);
  EXPECT_FALSE(b.is_lazy());
}

TEST(AfsimScanTest, AccumAndExclusiveScan) {
  array a = afsim::from_vector(std::vector<int32_t>{1, 2, 3, 4});
  EXPECT_EQ(afsim::accum(a).host<int32_t>(),
            (std::vector<int32_t>{1, 3, 6, 10}));
  EXPECT_EQ(afsim::scan(a, /*inclusive_scan=*/false).host<int32_t>(),
            (std::vector<int32_t>{0, 1, 3, 6}));
}

TEST(AfsimSortTest, SortAndSortByKey) {
  array a = afsim::from_vector(std::vector<int32_t>{3, 1, 2});
  EXPECT_EQ(afsim::sort(a).host<int32_t>(), (std::vector<int32_t>{1, 2, 3}));
  // sort() returns a new array; the input is untouched.
  EXPECT_EQ(a.host<int32_t>(), (std::vector<int32_t>{3, 1, 2}));

  array keys = afsim::from_vector(std::vector<int32_t>{3, 1, 2});
  array vals = afsim::from_vector(std::vector<double>{30, 10, 20});
  array sk, sv;
  afsim::sort(&sk, &sv, keys, vals);
  EXPECT_EQ(sk.host<int32_t>(), (std::vector<int32_t>{1, 2, 3}));
  EXPECT_EQ(sv.host<double>(), (std::vector<double>{10, 20, 30}));
}

TEST(AfsimByKeyTest, SumByKeyOverGroupedKeys) {
  array keys = afsim::from_vector(std::vector<int32_t>{1, 1, 2, 5, 5, 5});
  array vals = afsim::from_vector(std::vector<double>{1, 2, 3, 4, 5, 6});
  array ok, ov;
  afsim::sumByKey(&ok, &ov, keys, vals);
  EXPECT_EQ(ok.host<int32_t>(), (std::vector<int32_t>{1, 2, 5}));
  EXPECT_EQ(ov.host<double>(), (std::vector<double>{3, 3, 15}));
}

TEST(AfsimByKeyTest, CountMinMaxByKey) {
  array keys = afsim::from_vector(std::vector<int32_t>{1, 1, 1, 9});
  array vals = afsim::from_vector(std::vector<double>{5, -2, 7, 4});
  array ok, oc;
  afsim::countByKey(&ok, &oc, keys);
  EXPECT_EQ(oc.host<uint32_t>(), (std::vector<uint32_t>{3, 1}));
  array ov;
  afsim::minByKey(&ok, &ov, keys, vals);
  EXPECT_EQ(ov.host<double>(), (std::vector<double>{-2, 4}));
  afsim::maxByKey(&ok, &ov, keys, vals);
  EXPECT_EQ(ov.host<double>(), (std::vector<double>{7, 4}));
}

TEST(AfsimReduceTest, MeanAnyAllTrue) {
  array a = afsim::from_vector(std::vector<double>{1.0, 2.0, 6.0});
  EXPECT_DOUBLE_EQ(afsim::mean(a), 3.0);
  array mask = afsim::from_vector(std::vector<int32_t>{1, 1, 0});
  EXPECT_TRUE(afsim::anyTrue(mask));
  EXPECT_FALSE(afsim::allTrue(mask));
  EXPECT_TRUE(afsim::allTrue(a > 0.0));
  EXPECT_FALSE(afsim::anyTrue(a > 100.0));
}

TEST(AfsimShapeTest, Diff1AndFlip) {
  array a = afsim::from_vector(std::vector<int32_t>{1, 4, 9, 16});
  EXPECT_EQ(afsim::diff1(a).host<int32_t>(),
            (std::vector<int32_t>{3, 5, 7}));
  EXPECT_EQ(afsim::flip(a).host<int32_t>(),
            (std::vector<int32_t>{16, 9, 4, 1}));
  array single = afsim::from_vector(std::vector<int32_t>{7});
  EXPECT_TRUE(afsim::diff1(single).is_empty());
}

TEST(AfsimSetTest, UniqueIntersectUnion) {
  array a = afsim::from_vector(std::vector<int32_t>{3, 1, 3, 2, 1});
  EXPECT_EQ(afsim::setUnique(a).host<int32_t>(),
            (std::vector<int32_t>{1, 2, 3}));

  array b = afsim::from_vector(std::vector<int32_t>{2, 3, 9});
  EXPECT_EQ(afsim::setIntersect(a, b).host<int32_t>(),
            (std::vector<int32_t>{2, 3}));
  EXPECT_EQ(afsim::setUnion(a, b).host<int32_t>(),
            (std::vector<int32_t>{1, 2, 3, 9}));
}

TEST(AfsimSetTest, JoinConcatenates) {
  array a = afsim::from_vector(std::vector<int32_t>{1, 2});
  array b = afsim::from_vector(std::vector<int32_t>{3});
  EXPECT_EQ(afsim::join(a, b).host<int32_t>(),
            (std::vector<int32_t>{1, 2, 3}));
}

TEST(AfsimFactoryTest, ConstantAndRange) {
  array c = afsim::constant(2.5, 4, dtype::f64);
  EXPECT_EQ(c.host<double>(), (std::vector<double>{2.5, 2.5, 2.5, 2.5}));
  array r = afsim::range(5, dtype::s32);
  EXPECT_EQ(r.host<int32_t>(), (std::vector<int32_t>{0, 1, 2, 3, 4}));
}

TEST(AfsimFactoryTest, ConstantBroadcastsAgainstArrays) {
  array a = afsim::from_vector(std::vector<double>{1, 2, 3});
  array c = afsim::constant(10.0, 3, dtype::f64);
  EXPECT_EQ((a + c).host<double>(), (std::vector<double>{11, 12, 13}));
}

TEST(AfsimScatterTest, AssignIndexedScatters) {
  array target = afsim::constant(0.0, 5, dtype::f64);
  target.eval();
  array idx = afsim::from_vector(std::vector<uint32_t>{4, 1});
  array vals = afsim::from_vector(std::vector<double>{9.0, 8.0});
  afsim::assign_indexed(target, idx, vals);
  EXPECT_EQ(target.host<double>(), (std::vector<double>{0, 8, 0, 0, 9}));
}

TEST(AfsimInteropTest, FromBufferIsZeroCopy) {
  auto& device = gpusim::Device::Default();
  gpusim::Stream stream(device, gpusim::ApiProfile::Cuda());
  auto buffer = std::make_shared<gpusim::DeviceBuffer>(3 * sizeof(int32_t),
                                                       device);
  const std::vector<int32_t> host{1, 2, 3};
  gpusim::CopyHostToDevice(stream, buffer->data(), host.data(),
                           3 * sizeof(int32_t));
  array a = afsim::from_buffer(buffer, dtype::s32, 3);
  EXPECT_EQ(a.host<int32_t>(), host);
  // Mutating the underlying buffer is visible through the array (view).
  static_cast<int32_t*>(buffer->data())[0] = 99;
  EXPECT_EQ(a.host<int32_t>()[0], 99);
  EXPECT_EQ(a.device_ptr(), buffer->data());
}

TEST(AfsimTypeTest, CastBetweenAllNumericTypes) {
  array s32 = afsim::from_vector(std::vector<int32_t>{-3, 7});
  EXPECT_EQ(afsim::cast(s32, dtype::s64).host<int64_t>(),
            (std::vector<int64_t>{-3, 7}));
  EXPECT_EQ(afsim::cast(s32, dtype::f32).host<float>(),
            (std::vector<float>{-3.0f, 7.0f}));
  EXPECT_EQ(afsim::cast(s32, dtype::f64).host<double>(),
            (std::vector<double>{-3.0, 7.0}));
  array u = afsim::cast(afsim::from_vector(std::vector<int32_t>{5}),
                        dtype::u32);
  EXPECT_EQ(u.host<uint32_t>(), (std::vector<uint32_t>{5}));
  // cast to the same type is the identity (no new node needed).
  array same = afsim::cast(s32, dtype::s32);
  EXPECT_EQ(same.node(), s32.node());
}

TEST(AfsimReduceTest, SumOfEmptyArrayIsZero) {
  array empty = afsim::from_vector(std::vector<double>{});
  EXPECT_DOUBLE_EQ(afsim::sum<double>(empty), 0.0);
  EXPECT_EQ(afsim::count(empty), 0u);
  EXPECT_THROW(afsim::mean(empty), std::out_of_range);
}

TEST(AfsimWhereTest, WhereAllFalseIsEmpty) {
  array a = afsim::from_vector(std::vector<int32_t>{1, 2, 3});
  array idx = afsim::where(a > 100.0);
  EXPECT_TRUE(idx.is_empty());
  EXPECT_TRUE(afsim::lookup(a, idx).is_empty());
}

TEST(AfsimSetTest, IntersectOfDisjointSetsIsEmpty) {
  array a = afsim::from_vector(std::vector<int32_t>{1, 3, 5});
  array b = afsim::from_vector(std::vector<int32_t>{2, 4, 6});
  EXPECT_TRUE(afsim::setIntersect(a, b, /*is_unique=*/true).is_empty());
}

TEST(AfsimStreamTest, ArraysKeepTheStreamTheyWereMadeOn) {
  gpusim::Device device(gpusim::DeviceProperties(), 2);
  gpusim::Stream stream(device, gpusim::ApiProfile::Cuda());
  const auto default_before = gpusim::Device::Default().Snapshot();
  array a = afsim::from_vector(std::vector<int32_t>{5, -1, 7}, stream);
  array sum = a + afsim::constant(1.0, 3, dtype::s32, stream);
  EXPECT_EQ(&sum.stream(), &stream);
  EXPECT_EQ(&(a > 0.0).stream(), &stream);
  array idx = afsim::where(sum > 0.0);
  EXPECT_EQ(&idx.stream(), &stream);
  EXPECT_EQ(idx.host<uint32_t>(), (std::vector<uint32_t>{0, 2}));
  EXPECT_EQ(&afsim::range(4, dtype::s32, stream).stream(), &stream);
  EXPECT_GT(stream.now_ns(), 0u);
  const auto default_delta =
      gpusim::Device::Default().Snapshot().Delta(default_before);
  EXPECT_EQ(default_delta.kernels_launched, 0u);
  EXPECT_EQ(default_delta.transfers, 0u);
  // Arrays on different streams do not mix, as af arrays on different
  // devices do not.
  EXPECT_THROW(a + afsim::from_vector(std::vector<int32_t>{1, 2, 3}),
               std::invalid_argument);
}

TEST(AfsimOverheadTest, GraphBuildingChargesHostOverhead) {
  array a = afsim::from_vector(std::vector<double>{1});
  const uint64_t before = afsim::default_stream().now_ns();
  array b = a + 1.0;
  const uint64_t after = afsim::default_stream().now_ns();
  EXPECT_GE(after - before, afsim::kJitNodeOverheadNs);
}

// --------------------------------------------------------------------------
// The fused kernel against the per-element interpreter it replaced. The
// interpreter below evaluates one element at a time, recursively, keeping
// each value in a cell's double or int64 lane; fused_kernel must write the
// same bytes for every tree, dtype and range split.
// --------------------------------------------------------------------------

using afsim::detail::binary_op;
using afsim::detail::node;
using afsim::detail::unary_op;

struct cell {
  double f = 0.0;
  int64_t i = 0;
};

cell load_cell(const node* nd, size_t i) {
  cell c;
  const void* p = nd->buffer->data();
  switch (nd->type) {
    case dtype::b8: c.i = static_cast<const uint8_t*>(p)[i]; break;
    case dtype::s32: c.i = static_cast<const int32_t*>(p)[i]; break;
    case dtype::s64: c.i = static_cast<const int64_t*>(p)[i]; break;
    case dtype::u32: c.i = static_cast<const uint32_t*>(p)[i]; break;
    case dtype::f32: c.f = static_cast<const float*>(p)[i]; break;
    case dtype::f64: c.f = static_cast<const double*>(p)[i]; break;
  }
  return c;
}

double to_f(const cell& c, dtype t) {
  return afsim::is_floating(t) ? c.f : static_cast<double>(c.i);
}

int64_t to_i(const cell& c, dtype t) {
  return afsim::is_floating(t) ? static_cast<int64_t>(c.f) : c.i;
}

bool truthy(const cell& c, dtype t) {
  return afsim::is_floating(t) ? c.f != 0.0 : c.i != 0;
}

cell eval_cell(const node* nd, size_t i) {
  switch (nd->k) {
    case node::kind::data:
      return load_cell(nd, i);
    case node::kind::scalar: {
      cell c;
      if (afsim::is_floating(nd->type)) {
        c.f = nd->value.f;
      } else {
        c.i = nd->value.i;
      }
      return c;
    }
    case node::kind::unary: {
      const cell a = eval_cell(nd->lhs.get(), i);
      cell c;
      switch (nd->uop) {
        case unary_op::neg:
          if (afsim::is_floating(nd->type)) {
            c.f = -to_f(a, nd->lhs->type);
          } else {
            c.i = -to_i(a, nd->lhs->type);
          }
          break;
        case unary_op::logical_not:
          c.i = truthy(a, nd->lhs->type) ? 0 : 1;
          break;
        case unary_op::cast:
          if (afsim::is_floating(nd->type)) {
            c.f = to_f(a, nd->lhs->type);
          } else if (nd->type == dtype::b8) {
            c.i = truthy(a, nd->lhs->type) ? 1 : 0;
          } else {
            c.i = to_i(a, nd->lhs->type);
          }
          break;
      }
      return c;
    }
    case node::kind::binary: {
      const cell a = eval_cell(nd->lhs.get(), i);
      const cell b = eval_cell(nd->rhs.get(), i);
      const dtype lt = nd->lhs->type;
      const dtype rt = nd->rhs->type;
      const bool float_args = afsim::is_floating(lt) || afsim::is_floating(rt);
      cell c;
      switch (nd->bop) {
        case binary_op::add:
        case binary_op::sub:
        case binary_op::mul:
        case binary_op::div:
        case binary_op::min:
        case binary_op::max:
          if (afsim::is_floating(nd->type)) {
            const double x = to_f(a, lt), y = to_f(b, rt);
            switch (nd->bop) {
              case binary_op::add: c.f = x + y; break;
              case binary_op::sub: c.f = x - y; break;
              case binary_op::mul: c.f = x * y; break;
              case binary_op::div: c.f = x / y; break;
              case binary_op::min: c.f = y < x ? y : x; break;
              case binary_op::max: c.f = x < y ? y : x; break;
              default: break;
            }
          } else {
            const int64_t x = to_i(a, lt), y = to_i(b, rt);
            switch (nd->bop) {
              case binary_op::add: c.i = x + y; break;
              case binary_op::sub: c.i = x - y; break;
              case binary_op::mul: c.i = x * y; break;
              case binary_op::div: c.i = y == 0 ? 0 : x / y; break;
              case binary_op::min: c.i = y < x ? y : x; break;
              case binary_op::max: c.i = x < y ? y : x; break;
              default: break;
            }
          }
          break;
        case binary_op::gt:
        case binary_op::lt:
        case binary_op::ge:
        case binary_op::le:
        case binary_op::eq:
        case binary_op::ne:
          if (float_args) {
            const double x = to_f(a, lt), y = to_f(b, rt);
            switch (nd->bop) {
              case binary_op::gt: c.i = x > y; break;
              case binary_op::lt: c.i = x < y; break;
              case binary_op::ge: c.i = x >= y; break;
              case binary_op::le: c.i = x <= y; break;
              case binary_op::eq: c.i = x == y; break;
              case binary_op::ne: c.i = x != y; break;
              default: break;
            }
          } else {
            const int64_t x = to_i(a, lt), y = to_i(b, rt);
            switch (nd->bop) {
              case binary_op::gt: c.i = x > y; break;
              case binary_op::lt: c.i = x < y; break;
              case binary_op::ge: c.i = x >= y; break;
              case binary_op::le: c.i = x <= y; break;
              case binary_op::eq: c.i = x == y; break;
              case binary_op::ne: c.i = x != y; break;
              default: break;
            }
          }
          break;
        case binary_op::logical_and:
          c.i = truthy(a, lt) && truthy(b, rt);
          break;
        case binary_op::logical_or:
          c.i = truthy(a, lt) || truthy(b, rt);
          break;
      }
      return c;
    }
  }
  return cell{};
}

void store_cell(void* p, dtype t, size_t i, const cell& c) {
  switch (t) {
    case dtype::b8:
      static_cast<uint8_t*>(p)[i] = static_cast<uint8_t>(c.i != 0);
      break;
    case dtype::s32:
      static_cast<int32_t*>(p)[i] = static_cast<int32_t>(c.i);
      break;
    case dtype::s64: static_cast<int64_t*>(p)[i] = c.i; break;
    case dtype::u32:
      static_cast<uint32_t*>(p)[i] = static_cast<uint32_t>(c.i);
      break;
    case dtype::f32:
      static_cast<float*>(p)[i] = static_cast<float>(c.f);
      break;
    case dtype::f64: static_cast<double*>(p)[i] = c.f; break;
  }
}

constexpr dtype kAllTypes[] = {dtype::b8,  dtype::s32, dtype::s64,
                               dtype::u32, dtype::f32, dtype::f64};

/// A generated subtree and what is known of its values: every finite value
/// v has |v| <= bound, and `nonfinite` says whether inf or NaN may occur.
/// A leaf also records whether it holds a zero and its smallest nonzero
/// magnitude, so it can divide.
struct GenExpr {
  array a;
  double bound = 0.0;
  bool nonfinite = false;
  bool leaf = false;
  bool has_zero = false;
  double min_nonzero = 0.0;
};

/// Seeded random element-wise trees over n elements, built through the
/// public operators so every node is what a caller would build. Generation
/// keeps clear of the interpreter's undefined behaviour: an integer result
/// stays within 2^62 (so no int64 overflow and no INT64_MIN / -1), a float
/// converts to an integer type only when finite and within 2^62, and a float
/// division's divisor is a leaf, so its quotient is bounded when finite.
class TreeGen {
 public:
  TreeGen(uint64_t seed, size_t n) : rng_(seed), n_(n) {
    for (dtype t : kAllTypes) leaves_.push_back(MakeData(t));
    leaves_.push_back(MakeData(dtype::s32));
    leaves_.push_back(MakeData(dtype::f64));
  }

  /// A tree of at most `budget` nodes (counting a shared node each time it
  /// is reached, as tree_size does).
  GenExpr Make(uint32_t budget) {
    const int pick = Below(10);
    if (budget == 1 || pick == 0) return Leaf();
    if (pick == 1) return Unary(Make(budget - 1));
    if (pick == 2 && budget >= 3) {
      // A shared inner subtree, reached twice.
      GenExpr x = Make((budget - 1) / 2);
      return Binary(x, x);
    }
    if (pick == 3 && budget >= 3) return WithLiteral(Make(budget - 2));
    if (budget < 3) return Unary(Make(budget - 1));
    const uint32_t left = 1 + Below(budget - 2);
    GenExpr x = Make(left);
    GenExpr y = Make(budget - 1 - x.a.node()->tree_size);
    return Binary(x, y);
  }

  uint32_t Below(uint32_t k) {
    return static_cast<uint32_t>(rng_() % k);
  }

  uint64_t unary_seen = 0, binary_seen = 0, types_seen = 0;
  bool int_scalar_seen = false, float_scalar_seen = false;

 private:
  static constexpr double kIntLimit = 4611686018427387904.0;  // 2^62

  GenExpr MakeData(dtype t) {
    GenExpr e;
    e.leaf = true;
    std::vector<double> values(n_);
    for (double& v : values) {
      const uint32_t r = Below(16);
      switch (t) {
        case dtype::b8: v = r < 8 ? 0 : r % 4; break;
        case dtype::s32:
          v = r == 0 ? -2147483648.0 : r == 1 ? 2147483647.0
                                              : double(Below(201)) - 100;
          break;
        case dtype::u32:
          v = r == 0 ? 4000000000.0 : double(Below(101));
          break;
        case dtype::s64:
          v = r == 0 ? -1099511627776.0 : double(Below(2001)) - 1000;
          break;
        case dtype::f32:
        case dtype::f64:
          v = r == 0 ? -0.0 : (double(Below(65)) - 32) / 4;
          break;
      }
    }
    for (double v : values) {
      e.bound = std::max(e.bound, std::fabs(v));
      if (v == 0) {
        e.has_zero = true;
      } else if (e.min_nonzero == 0 || std::fabs(v) < e.min_nonzero) {
        e.min_nonzero = std::fabs(v);
      }
    }
    switch (t) {
      case dtype::b8: e.a = Upload<uint8_t>(values); break;
      case dtype::s32: e.a = Upload<int32_t>(values); break;
      case dtype::s64: e.a = Upload<int64_t>(values); break;
      case dtype::u32: e.a = Upload<uint32_t>(values); break;
      case dtype::f32: e.a = Upload<float>(values); break;
      case dtype::f64: e.a = Upload<double>(values); break;
    }
    return e;
  }

  template <typename T>
  static array Upload(const std::vector<double>& values) {
    std::vector<T> host(values.size());
    for (size_t i = 0; i < values.size(); ++i) {
      host[i] = static_cast<T>(values[i]);
    }
    return afsim::from_vector(host);
  }

  double Literal() {
    static constexpr double kLiterals[] = {-3.0, -1.0, 0.0, 0.5,
                                           2.0,  2.5,  7.0, -0.25};
    return kLiterals[Below(8)];
  }

  /// Facts of a scalar leaf, read from its node as the interpreter reads
  /// it.
  GenExpr Scalar(array a) {
    GenExpr e;
    e.a = std::move(a);
    const node* nd = e.a.node().get();
    const bool floating = afsim::is_floating(nd->type);
    (floating ? float_scalar_seen : int_scalar_seen) = true;
    const double value =
        floating ? nd->value.f : static_cast<double>(nd->value.i);
    e.leaf = true;
    e.bound = std::fabs(value);
    e.has_zero = value == 0;
    e.min_nonzero = std::fabs(value);
    return e;
  }

  GenExpr Leaf() {
    if (Below(4) != 0) {
      GenExpr e = leaves_[Below(static_cast<uint32_t>(leaves_.size()))];
      types_seen |= uint64_t{1} << static_cast<int>(e.a.type());
      return e;
    }
    return Scalar(afsim::constant(Literal(), n_, kAllTypes[Below(6)]));
  }

  GenExpr Unary(const GenExpr& x) {
    const dtype xt = x.a.type();
    GenExpr e;
    switch (Below(3)) {
      case 0:
        unary_seen |= 1u << static_cast<int>(unary_op::neg);
        e = x;
        e.a = -x.a;
        break;
      case 1:
        unary_seen |= 1u << static_cast<int>(unary_op::logical_not);
        e.a = !x.a;
        e.bound = 1;
        break;
      default: {
        dtype to = kAllTypes[Below(6)];
        if (to == xt) to = to == dtype::f64 ? dtype::s32 : dtype::f64;
        const bool float_to_int = afsim::is_floating(xt) &&
                                  !afsim::is_floating(to) && to != dtype::b8;
        if (float_to_int && (x.nonfinite || x.bound >= kIntLimit)) {
          to = dtype::f64 == xt ? dtype::f32 : dtype::f64;
        }
        unary_seen |= 1u << static_cast<int>(unary_op::cast);
        e = x;
        e.a = afsim::cast(x.a, to);
        if (to == dtype::b8) {
          e.bound = 1;
          e.nonfinite = false;
        }
        break;
      }
    }
    e.leaf = false;
    return e;
  }

  /// x combined with a double literal, typed as the operators type it
  /// (the literal is taken from the node `x op v` builds).
  GenExpr WithLiteral(const GenExpr& x) {
    const double v = Literal();
    auto lhs_of = [](const array& built) {
      return array(built.node()->lhs);
    };
    auto rhs_of = [](const array& built) {
      return array(built.node()->rhs);
    };
    switch (Below(4)) {
      case 0: return Binary(x, Scalar(rhs_of(x.a + v)), binary_op::add);
      case 1: return Binary(Scalar(lhs_of(v - x.a)), x, binary_op::sub);
      case 2: return Binary(x, Scalar(rhs_of(x.a / v)), binary_op::div);
      default: return Binary(Scalar(lhs_of(v > x.a)), x, binary_op::gt);
    }
  }

  GenExpr Binary(const GenExpr& x, const GenExpr& y) {
    return Binary(x, y, static_cast<binary_op>(Below(14)));
  }

  GenExpr Binary(const GenExpr& x, const GenExpr& y, binary_op op) {
    const bool floating = afsim::is_floating(x.a.type()) ||
                          afsim::is_floating(y.a.type());
    GenExpr e;
    e.nonfinite = x.nonfinite || y.nonfinite;
    switch (op) {
      case binary_op::add:
      case binary_op::sub:
        e.bound = x.bound + y.bound;
        break;
      case binary_op::mul:
        e.bound = x.bound * y.bound;
        break;
      case binary_op::div:
        if (!floating) {
          e.bound = x.bound;
        } else if (y.leaf) {
          e.nonfinite = e.nonfinite || y.has_zero;
          e.bound = y.min_nonzero > 0 ? x.bound / y.min_nonzero : 0.0;
        } else {
          op = binary_op::min;  // a compound float divisor is unbounded
          e.bound = std::max(x.bound, y.bound);
        }
        break;
      case binary_op::min:
      case binary_op::max:
        e.bound = std::max(x.bound, y.bound);
        break;
      default:
        e.bound = 1;
        e.nonfinite = false;
        break;
    }
    if (!floating && e.bound > kIntLimit) {
      op = binary_op::max;  // keep integer results clear of overflow
      e.bound = std::max(x.bound, y.bound);
    }
    if (floating && !(e.bound < DBL_MAX)) e.nonfinite = true;
    binary_seen |= 1u << static_cast<int>(op);
    e.a = Apply(op, x.a, y.a);
    return e;
  }

  static array Apply(binary_op op, const array& x, const array& y) {
    switch (op) {
      case binary_op::add: return x + y;
      case binary_op::sub: return x - y;
      case binary_op::mul: return x * y;
      case binary_op::div: return x / y;
      case binary_op::gt: return x > y;
      case binary_op::lt: return x < y;
      case binary_op::ge: return x >= y;
      case binary_op::le: return x <= y;
      case binary_op::eq: return x == y;
      case binary_op::ne: return x != y;
      case binary_op::logical_and: return x && y;
      case binary_op::logical_or: return x || y;
      case binary_op::min: return afsim::min_of(x, y);
      case binary_op::max: return afsim::max_of(x, y);
    }
    return x;
  }

  std::mt19937_64 rng_;
  size_t n_;
  std::vector<GenExpr> leaves_;
};

/// Bitwise equality, so NaN and -0.0 compare by their bytes.
bool SameBytes(const void* a, const void* b, size_t bytes) {
  return bytes == 0 || std::memcmp(a, b, bytes) == 0;
}

/// Distinct data leaves' bytes: what one fused launch reads.
uint64_t DistinctLeafBytes(const node* nd, std::set<const node*>* seen) {
  if (nd->k == node::kind::data) {
    if (!seen->insert(nd).second) return 0;
    return nd->n * afsim::dtype_size(nd->type);
  }
  uint64_t bytes = 0;
  if (nd->lhs) bytes += DistinctLeafBytes(nd->lhs.get(), seen);
  if (nd->rhs) bytes += DistinctLeafBytes(nd->rhs.get(), seen);
  return bytes;
}

TEST(AfsimFusedKernelTest, RandomTreesMatchThePerElementInterpreter) {
  constexpr size_t kTile = afsim::detail::kJitTileElems;
  const size_t sizes[] = {0,    1,    kTile - 1, kTile, kTile + 1,
                          4096, 4097, 3 * 4096 + 5};
  uint64_t unary_seen = 0, binary_seen = 0, types_seen = 0, roots_seen = 0;
  bool int_scalar = false, float_scalar = false, full_size = false;
  gpusim::Device& device = afsim::default_stream().device();
  for (const size_t n : sizes) {
    TreeGen gen(0xAF5EED + n, n);
    std::mt19937_64 split_rng(0x5EED5 + n);
    for (int tree = 0; tree < 40; ++tree) {
      const uint32_t budget = 1 + gen.Below(afsim::kMaxJitTreeSize);
      GenExpr e = gen.Make(budget);
      // A float root stored as f32 must fit a float when finite.
      if (e.a.type() == dtype::f32 && e.bound > FLT_MAX) continue;
      const afsim::detail::node_ptr root = e.a.node();
      ASSERT_LE(root->tree_size, afsim::kMaxJitTreeSize);
      full_size = full_size || root->tree_size >= afsim::kMaxJitTreeSize - 1;
      roots_seen |= uint64_t{1} << static_cast<int>(root->type);
      const size_t bytes = n * afsim::dtype_size(root->type);

      std::vector<unsigned char> want(bytes);
      for (size_t i = 0; i < n; ++i) {
        store_cell(want.data(), root->type, i, eval_cell(root.get(), i));
      }

      const afsim::detail::fused_kernel kernel(root.get());
      for (int trial = 0; trial < 3; ++trial) {
        std::vector<size_t> cuts{0, n};
        const size_t num_cuts = split_rng() % 6;
        for (size_t c = 0; c < num_cuts; ++c) {
          cuts.push_back(n == 0 ? 0 : split_rng() % (n + 1));
        }
        std::sort(cuts.begin(), cuts.end());
        std::vector<size_t> order(cuts.size() - 1);
        std::iota(order.begin(), order.end(), size_t{0});
        std::shuffle(order.begin(), order.end(), split_rng);
        std::vector<unsigned char> got(bytes, 0xA5);
        for (size_t r : order) kernel.run(got.data(), cuts[r], cuts[r + 1]);
        ASSERT_TRUE(SameBytes(got.data(), want.data(), bytes))
            << "n=" << n << " tree " << tree << " split trial " << trial;
      }

      // eval() charges one launch with the interpreter's KernelStats.
      if (!e.a.is_lazy()) continue;
      std::set<const node*> seen;
      gpusim::KernelStats expected;
      expected.bytes_read = DistinctLeafBytes(root.get(), &seen);
      expected.bytes_written = bytes;
      expected.ops = static_cast<uint64_t>(n) * root->tree_size;
      const auto before = device.Snapshot();
      const uint64_t t0 = afsim::default_stream().now_ns();
      e.a.eval();
      const auto delta = device.Snapshot().Delta(before);
      EXPECT_EQ(delta.kernels_launched, 1u);
      EXPECT_EQ(delta.bytes_read, expected.bytes_read);
      EXPECT_EQ(delta.bytes_written, expected.bytes_written);
      EXPECT_EQ(afsim::default_stream().now_ns() - t0,
                device.cost_model().KernelTime(expected,
                                               gpusim::ApiProfile::Cuda()))
          << "ops charged differ from n * tree_size";
      ASSERT_TRUE(SameBytes(e.a.device_ptr(), want.data(), bytes))
          << "eval() of n=" << n << " tree " << tree;
    }
    unary_seen |= gen.unary_seen;
    binary_seen |= gen.binary_seen;
    types_seen |= gen.types_seen;
    int_scalar = int_scalar || gen.int_scalar_seen;
    float_scalar = float_scalar || gen.float_scalar_seen;
  }
  // The generator reached every op, leaf dtype and root dtype.
  EXPECT_EQ(unary_seen, 0x7u);
  EXPECT_EQ(binary_seen, 0x3FFFu);
  EXPECT_EQ(types_seen, 0x3Fu);
  EXPECT_EQ(roots_seen, 0x3Fu);
  EXPECT_TRUE(int_scalar);
  EXPECT_TRUE(float_scalar);
  EXPECT_TRUE(full_size);
}

}  // namespace
