// Tests of the lightweight column encodings (storage/encoding.h): randomized
// round-trip properties per scheme, encoded-domain predicate rewriting, the
// tile-at-a-time evaluators against their per-row reference on every pool
// size, the encoded-vs-raw differential over the TPC-H queries on every
// backend, and the footprint regression pinning encoded base-table sizing.
#include "storage/encoding.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <random>
#include <string>
#include <vector>

#include "backends/backends.h"
#include "backends/common.h"
#include "core/backend.h"
#include "core/registry.h"
#include "plan/partition.h"
#include "plan/tpch_plans.h"
#include "storage/encoded_column.h"
#include "tpch/datagen.h"
#include "tpch/queries.h"
#include "tpch_answer_testing.h"

namespace {

using core::CompareOp;
using core::Predicate;
using storage::ChooseEncoding;
using storage::Column;
using storage::DataType;
using storage::DecodeColumnHost;
using storage::EncodeColumn;
using storage::EncodedColumn;
using storage::Encoding;
using storage::EncodingChoice;

// ---------------------------------------------------------------------------
// Round-trip properties
// ---------------------------------------------------------------------------

template <typename T>
void ExpectRoundTrip(const std::vector<T>& values,
                     const EncodingChoice& choice) {
  const Column original((std::vector<T>(values)));
  const EncodedColumn encoded = EncodeColumn(original, choice);
  const Column decoded = DecodeColumnHost(encoded);
  ASSERT_EQ(decoded.type(), original.type());
  ASSERT_EQ(decoded.size(), values.size());
  EXPECT_EQ(decoded.values<T>(), values);
}

EncodingChoice Force(Encoding e, unsigned bits = 0, int64_t reference = 0) {
  EncodingChoice c;
  c.encoding = e;
  c.bit_width = bits;
  c.reference = reference;
  return c;
}

TEST(EncodingRoundTripTest, BitPackRandomizedWidths) {
  std::mt19937 rng(7);
  for (int iter = 0; iter < 20; ++iter) {
    const unsigned bits = 1 + rng() % 31;
    const size_t n = 1 + rng() % 500;
    std::vector<int32_t> v(n);
    const uint64_t mask = (uint64_t{1} << bits) - 1;
    for (auto& x : v) x = static_cast<int32_t>(rng() & mask);
    ExpectRoundTrip(v, Force(Encoding::kBitPack, bits));
  }
}

TEST(EncodingRoundTripTest, BitPackMaxWidthInt64) {
  // 63-bit codes force every pack/unpack to straddle word boundaries.
  std::mt19937_64 rng(11);
  std::vector<int64_t> v(257);
  for (auto& x : v) {
    x = static_cast<int64_t>(rng() & ((uint64_t{1} << 63) - 1));
  }
  v[0] = (int64_t{1} << 62) + ((int64_t{1} << 62) - 1);  // max 63-bit value
  v[1] = 0;
  ExpectRoundTrip(v, Force(Encoding::kBitPack, 63));
}

TEST(EncodingRoundTripTest, FrameOfReferenceRandomized) {
  std::mt19937 rng(13);
  for (int iter = 0; iter < 20; ++iter) {
    const unsigned bits = 1 + rng() % 20;
    const int64_t reference =
        static_cast<int64_t>(rng()) - 2000000000;  // negative frames too
    const size_t n = 1 + rng() % 500;
    std::vector<int64_t> v(n);
    const uint64_t mask = (uint64_t{1} << bits) - 1;
    for (auto& x : v) x = reference + static_cast<int64_t>(rng() & mask);
    ExpectRoundTrip(v, Force(Encoding::kFor, bits, reference));
  }
}

TEST(EncodingRoundTripTest, DictionarySingleDistinctValue) {
  const std::vector<double> v(100, 0.0625);
  ExpectRoundTrip(v, Force(Encoding::kDictionary));
}

TEST(EncodingRoundTripTest, DictionaryAtMaxDistinctCap) {
  // Exactly kMaxDictSize distinct values, shuffled: 16-bit codes.
  std::vector<int32_t> v(storage::kMaxDictSize);
  for (size_t i = 0; i < v.size(); ++i) v[i] = static_cast<int32_t>(i) - 777;
  std::mt19937 rng(17);
  std::shuffle(v.begin(), v.end(), rng);
  const Column original((std::vector<int32_t>(v)));
  const EncodedColumn encoded =
      EncodeColumn(original, Force(Encoding::kDictionary));
  EXPECT_EQ(encoded.bit_width, 16u);
  EXPECT_EQ(encoded.dict_i64.size(), storage::kMaxDictSize);
  const Column decoded = DecodeColumnHost(encoded);
  EXPECT_EQ(decoded.values<int32_t>(), v);
}

TEST(EncodingRoundTripTest, DictionaryRandomFloatPool) {
  std::mt19937 rng(19);
  for (int iter = 0; iter < 20; ++iter) {
    const size_t pool = 1 + rng() % 50;
    std::vector<double> values(1 + rng() % 400);
    for (auto& x : values) {
      x = (static_cast<double>(rng() % pool) - pool / 2.0) / 16.0;
    }
    ExpectRoundTrip(values, Force(Encoding::kDictionary));
  }
}

TEST(EncodingRoundTripTest, RleSingleRun) {
  const std::vector<int32_t> v(1000, 42);
  const Column original((std::vector<int32_t>(v)));
  const EncodedColumn encoded = EncodeColumn(original, Force(Encoding::kRle));
  EXPECT_EQ(encoded.rle_values.size(), 1u);
  EXPECT_EQ(encoded.rle_ends.back(), 1000u);
  EXPECT_EQ(DecodeColumnHost(encoded).values<int32_t>(), v);
}

TEST(EncodingRoundTripTest, RleRandomRuns) {
  std::mt19937 rng(23);
  for (int iter = 0; iter < 20; ++iter) {
    std::vector<int32_t> v;
    int32_t value = static_cast<int32_t>(rng() % 100);
    while (v.size() < 300) {
      const size_t run = 1 + rng() % 17;
      for (size_t i = 0; i < run && v.size() < 300; ++i) v.push_back(value);
      value += 1 + static_cast<int32_t>(rng() % 3);
    }
    ExpectRoundTrip(v, Force(Encoding::kRle));
  }
}

TEST(EncodingRoundTripTest, EmptyColumnsEveryScheme) {
  ExpectRoundTrip(std::vector<int32_t>{}, Force(Encoding::kBitPack, 1));
  ExpectRoundTrip(std::vector<int64_t>{}, Force(Encoding::kFor, 1, 5));
  ExpectRoundTrip(std::vector<double>{}, Force(Encoding::kDictionary));
  ExpectRoundTrip(std::vector<int32_t>{}, Force(Encoding::kRle));
}

TEST(EncodingRoundTripTest, AutoChoiceRoundTripsDatagenColumns) {
  tpch::Config config;
  config.scale_factor = 0.002;
  const storage::Table lineitem = tpch::GenerateLineitem(config);
  for (const std::string& name : lineitem.column_names()) {
    const Column& c = lineitem.column(name);
    const EncodingChoice choice =
        ChooseEncoding(storage::AnalyzeColumn(c), c.size(), c.type());
    if (choice.encoding == Encoding::kNone) continue;
    const EncodedColumn encoded = EncodeColumn(c, choice);
    EXPECT_LE(encoded.encoded_byte_size(), c.byte_size()) << name;
    const Column decoded = DecodeColumnHost(encoded);
    ASSERT_EQ(decoded.size(), c.size()) << name;
    if (c.type() == DataType::kFloat64) {
      EXPECT_EQ(decoded.values<double>(), c.values<double>()) << name;
    } else if (c.type() == DataType::kInt32) {
      EXPECT_EQ(decoded.values<int32_t>(), c.values<int32_t>()) << name;
    } else if (c.type() == DataType::kInt64) {
      EXPECT_EQ(decoded.values<int64_t>(), c.values<int64_t>()) << name;
    }
  }
}

TEST(EncodingChoiceTest, PicksExpectedSchemesForTpchShapes) {
  tpch::Config config;
  config.scale_factor = 0.002;
  const storage::Table lineitem = tpch::GenerateLineitem(config);
  const auto choose = [&](const char* name) {
    const Column& c = lineitem.column(name);
    return ChooseEncoding(storage::AnalyzeColumn(c), c.size(), c.type())
        .encoding;
  };
  EXPECT_EQ(choose("l_orderkey"), Encoding::kRle);      // sorted, long runs
  EXPECT_EQ(choose("l_shipdate"), Encoding::kFor);      // narrow date range
  EXPECT_EQ(choose("l_returnflag"), Encoding::kBitPack);  // tiny domain
  EXPECT_EQ(choose("l_discount"), Encoding::kDictionary);  // 11 floats
}

// ---------------------------------------------------------------------------
// Encoded-domain predicate rewriting
// ---------------------------------------------------------------------------

class PredicateRewriteTest : public ::testing::Test {
 protected:
  gpusim::Stream stream_{gpusim::Device::Default(),
                         gpusim::ApiProfile::Cuda()};

  /// Uploads `values` under the forced `choice`, and raw, and checks that
  /// the scan matcher of each upload agrees with a plain host evaluation
  /// for every row.
  template <typename T>
  void ExpectMatcherAgrees(const std::vector<T>& values,
                           const EncodingChoice& choice,
                           const Predicate& pred) {
    const Column host((std::vector<T>(values)));
    const storage::EncodedDeviceColumn dev =
        storage::UploadColumnEncoded(stream_, EncodeColumn(host, choice));
    const storage::DeviceColumn raw = storage::UploadColumn(stream_, host);
    const core::ScanMatcher encoded_matcher =
        core::MakeScanMatcher(core::ScanColumnRef::Encoded(dev), pred);
    const core::ScanMatcher raw_matcher =
        core::MakeScanMatcher(core::ScanColumnRef::Raw(raw), pred);
    for (size_t i = 0; i < values.size(); ++i) {
      const double x = static_cast<double>(values[i]);
      const bool want = core::ApplyCompareOp(pred.op, x, pred.value_f);
      EXPECT_EQ(encoded_matcher(i), want)
          << "row " << i << " value " << x << " op "
          << core::CompareOpName(pred.op) << " " << pred.value_f;
      EXPECT_EQ(raw_matcher(i), want) << "raw row " << i;
    }
  }
};

TEST_F(PredicateRewriteTest, ForColumnAllOpsAllThresholds) {
  std::mt19937 rng(29);
  std::vector<int64_t> v(300);
  for (auto& x : v) x = 1000 + static_cast<int64_t>(rng() % 128);
  const EncodingChoice choice = Force(Encoding::kFor, 7, 1000);
  for (const CompareOp op : {CompareOp::kLt, CompareOp::kLe, CompareOp::kGt,
                             CompareOp::kGe, CompareOp::kEq, CompareOp::kNe}) {
    // In-range, below-range, and above-range thresholds: the rewrite must
    // fold out-of-frame literals to kAlwaysTrue/kAlwaysFalse correctly.
    for (const double threshold : {1050.0, 500.0, 5000.0, 1000.0, 1127.0}) {
      ExpectMatcherAgrees(v, choice, Predicate::Make("c", op, threshold));
    }
  }
}

TEST_F(PredicateRewriteTest, DictionaryColumnNonMemberLiterals) {
  // Q6-style discount domain: multiples of 0.01. Literals between dictionary
  // entries must still compare correctly (kEq on a non-member is never true).
  std::vector<double> v;
  std::mt19937 rng(31);
  for (int i = 0; i < 400; ++i) v.push_back((rng() % 11) / 100.0);
  const EncodingChoice choice = Force(Encoding::kDictionary);
  for (const CompareOp op : {CompareOp::kLt, CompareOp::kLe, CompareOp::kGt,
                             CompareOp::kGe, CompareOp::kEq, CompareOp::kNe}) {
    for (const double threshold : {0.05, 0.055, -1.0, 1.0, 0.0, 0.10}) {
      ExpectMatcherAgrees(v, choice, Predicate::Make("c", op, threshold));
    }
  }
}

TEST_F(PredicateRewriteTest, RleColumnBinarySearchesRuns) {
  std::vector<int32_t> v;
  for (int32_t run = 0; run < 50; ++run) {
    for (int i = 0; i < 1 + run % 7; ++i) v.push_back(run * 3);
  }
  for (const CompareOp op : {CompareOp::kLt, CompareOp::kGe, CompareOp::kEq,
                             CompareOp::kNe}) {
    ExpectMatcherAgrees(v, Force(Encoding::kRle),
                        Predicate::Make("c", op, 75.0));
  }
}

TEST_F(PredicateRewriteTest, RewriteFoldsOutOfRangeToConstants) {
  std::vector<int64_t> v(64);
  for (size_t i = 0; i < v.size(); ++i) v[i] = 100 + static_cast<int64_t>(i);
  const storage::EncodedDeviceColumn dev = storage::UploadColumnEncoded(
      stream_, EncodeColumn(Column((std::vector<int64_t>(v))),
                            Force(Encoding::kFor, 6, 100)));
  const core::EncodedPredicate below =
      core::RewritePredicate(dev, Predicate::Make("c", CompareOp::kLt, 50.0));
  EXPECT_EQ(below.kind, core::EncodedPredicate::Kind::kAlwaysFalse);
  const core::EncodedPredicate above =
      core::RewritePredicate(dev, Predicate::Make("c", CompareOp::kLt, 500.0));
  EXPECT_EQ(above.kind, core::EncodedPredicate::Kind::kAlwaysTrue);
}

// ---------------------------------------------------------------------------
// Device decoding per encoding, every backend
// ---------------------------------------------------------------------------

/// One encoded column shape: a host column and the encoding it is forced
/// into.
struct DecodeCase {
  const char* name;
  Column column;
  EncodingChoice choice;
};

const std::vector<DecodeCase>& DecodeCases() {
  static const std::vector<DecodeCase>* cases = [] {
    constexpr size_t kRows = 5000;  // above the inline grid threshold
    std::mt19937 rng(37);
    std::vector<int32_t> packed(kRows), dict_i32(kRows), rle;
    std::vector<int64_t> frame(kRows), dict_i64(kRows);
    std::vector<double> dict_f64(kRows);
    std::vector<float> dict_f32(kRows);
    for (size_t i = 0; i < kRows; ++i) {
      packed[i] = static_cast<int32_t>(rng() % 1000);
      frame[i] = 5'000'000'000 + static_cast<int64_t>(rng() % 4096);
      dict_i32[i] = static_cast<int32_t>(rng() % 37) * 1000 - 18000;
      dict_i64[i] = (static_cast<int64_t>(rng() % 50) - 25) * 1'000'000'007;
      dict_f64[i] = static_cast<double>(rng() % 11) / 100.0;
      dict_f32[i] = static_cast<float>(rng() % 23) / 8.0f - 1.0f;
    }
    int32_t value = -40;
    while (rle.size() < kRows) {
      const size_t run = 1 + rng() % 9;
      for (size_t k = 0; k < run && rle.size() < kRows; ++k) {
        rle.push_back(value);
      }
      value += 1 + static_cast<int32_t>(rng() % 5);
    }
    return new std::vector<DecodeCase>{
        {"BitPackI32", Column(std::move(packed)),
         Force(Encoding::kBitPack, 10)},
        {"ForI64", Column(std::move(frame)),
         Force(Encoding::kFor, 12, 5'000'000'000)},
        {"DictionaryI32", Column(std::move(dict_i32)),
         Force(Encoding::kDictionary)},
        {"DictionaryI64", Column(std::move(dict_i64)),
         Force(Encoding::kDictionary)},
        {"DictionaryF64", Column(std::move(dict_f64)),
         Force(Encoding::kDictionary)},
        {"DictionaryF32", Column(std::move(dict_f32)),
         Force(Encoding::kDictionary)},
        {"RleI32", Column(std::move(rle)), Force(Encoding::kRle)},
    };
  }();
  return *cases;
}

/// Row i of a host column, as a double (exact for the values used here).
double HostValue(const Column& c, size_t i) {
  double v = 0.0;
  BACKENDS_DISPATCH(c.type(), v = static_cast<double>(c.values<T>()[i]));
  return v;
}

/// Expects a device column to hold exactly `want`'s values.
void ExpectSameColumn(gpusim::Stream& stream, const storage::DeviceColumn& got,
                      const Column& want) {
  ASSERT_EQ(got.type(), want.type());
  const Column host = got.ToHost(stream);
  BACKENDS_DISPATCH(want.type(),
                    EXPECT_EQ(host.values<T>(), want.values<T>()));
}

class EncodedDecodeTest : public ::testing::TestWithParam<size_t> {
 protected:
  static void SetUpTestSuite() { core::RegisterBuiltinBackends(); }

  static const DecodeCase& Case() { return DecodeCases()[GetParam()]; }

  /// Runs `check(backend, encoded, host reference)` on every backend.
  template <typename Check>
  static void OnEveryBackend(Check check) {
    const DecodeCase& c = Case();
    const EncodedColumn encoded = EncodeColumn(c.column, c.choice);
    ASSERT_EQ(encoded.encoding, c.choice.encoding);
    const Column reference = DecodeColumnHost(encoded);
    for (const char* name :
         {backends::kThrust, backends::kBoostCompute, backends::kArrayFire,
          backends::kHandwritten}) {
      SCOPED_TRACE(name);
      auto backend = core::BackendRegistry::Instance().Create(name);
      const storage::EncodedDeviceColumn dev =
          storage::UploadColumnEncoded(backend->stream(), encoded);
      check(*backend, dev, reference);
    }
  }
};

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, EncodedDecodeTest,
    ::testing::Range<size_t>(0, DecodeCases().size()),
    [](const ::testing::TestParamInfo<size_t>& info) {
      return std::string(DecodeCases()[info.param].name);
    });

TEST_P(EncodedDecodeTest, DecodeColumnMatchesHostDecode) {
  OnEveryBackend([](core::Backend& backend,
                    const storage::EncodedDeviceColumn& dev,
                    const Column& reference) {
    ExpectSameColumn(backend.stream(), backend.DecodeColumn(dev), reference);
  });
}

TEST_P(EncodedDecodeTest, GatherDecodeMatchesHostDecode) {
  OnEveryBackend([](core::Backend& backend,
                    const storage::EncodedDeviceColumn& dev,
                    const Column& reference) {
    // Unsorted row ids with repeats, first and last row included.
    std::mt19937 rng(41);
    std::vector<int32_t> rows(4500);
    for (auto& r : rows) r = static_cast<int32_t>(rng() % reference.size());
    rows.front() = 0;
    rows.back() = static_cast<int32_t>(reference.size() - 1);
    const storage::DeviceColumn ids = storage::UploadColumn(
        backend.stream(), Column(std::vector<int32_t>(rows)));
    Column want;
    BACKENDS_DISPATCH(reference.type(), {
      std::vector<T> v;
      for (const int32_t r : rows) v.push_back(reference.values<T>()[r]);
      want = Column(std::move(v));
    });
    ExpectSameColumn(backend.stream(), backend.GatherDecode(dev, ids), want);
  });
}

TEST_P(EncodedDecodeTest, SelectCompareColumnsEncodedMatchesHost) {
  OnEveryBackend([](core::Backend& backend,
                    const storage::EncodedDeviceColumn& dev,
                    const Column& reference) {
    // The other side is the same values rotated by one row, raw: every
    // comparison outcome occurs.
    Column rotated = reference;
    BACKENDS_DISPATCH(rotated.type(), {
      auto& v = rotated.mutable_values<T>();
      std::rotate(v.begin(), v.begin() + 1, v.end());
    });
    const storage::DeviceColumn other =
        storage::UploadColumn(backend.stream(), rotated);
    for (const CompareOp op : {CompareOp::kLt, CompareOp::kLe, CompareOp::kGt,
                               CompareOp::kGe, CompareOp::kEq,
                               CompareOp::kNe}) {
      SCOPED_TRACE(core::CompareOpName(op));
      const core::SelectionResult got = backend.SelectCompareColumnsEncoded(
          core::ScanColumnRef::Encoded(dev), op,
          core::ScanColumnRef::Raw(other));
      std::vector<int32_t> want;
      for (size_t i = 0; i < reference.size(); ++i) {
        if (core::ApplyCompareOp(op, HostValue(reference, i),
                                 HostValue(rotated, i))) {
          want.push_back(static_cast<int32_t>(i));
        }
      }
      ASSERT_EQ(got.count, want.size());
      EXPECT_EQ(got.row_ids.ToHost(backend.stream()).values<int32_t>(), want);
    }
  });
}

// ---------------------------------------------------------------------------
// Range evaluators against the per-row reference, on every pool size
// ---------------------------------------------------------------------------

/// Rows of the range-evaluator columns: on each pool size the host chunks
/// (33,334 / 17,647 / 12,000 / 4,615 rows) start off a 64-row boundary.
constexpr size_t kRangeRows = 300'007;
constexpr unsigned kRangePools[] = {1, 2, 3, 8};

/// Runs `check(backend, stream)` with each registry backend in `names` on a
/// fresh device per pool size of kRangePools.
template <typename Check>
void OnEveryPool(std::initializer_list<const char*> names, Check check) {
  core::RegisterBuiltinBackends();
  for (const unsigned threads : kRangePools) {
    SCOPED_TRACE(testing::Message() << threads << " host thread(s)");
    gpusim::Device device(gpusim::DeviceProperties(), threads);
    gpusim::Device::DeviceGuard guard(device);
    for (const char* name : names) {
      SCOPED_TRACE(name);
      auto backend = core::BackendRegistry::Instance().Create(name);
      check(*backend, backend->stream());
    }
  }
}

/// Row i of every `rows` decoded by the per-row reader, as int64.
std::vector<int64_t> PerRowInts(const storage::EncodedDeviceColumn& dev,
                                const std::vector<int32_t>& rows) {
  const core::ColumnReader rd =
      core::MakeColumnReader(core::ScanColumnRef::Encoded(dev));
  std::vector<int64_t> out;
  out.reserve(rows.size());
  for (const int32_t r : rows) out.push_back(rd.Int(static_cast<size_t>(r)));
  return out;
}

/// A device column's integer values, widened to int64.
std::vector<int64_t> HostInts(gpusim::Stream& stream,
                              const storage::DeviceColumn& c) {
  const Column host = c.ToHost(stream);
  std::vector<int64_t> out;
  BACKENDS_DISPATCH(host.type(), {
    for (const T v : host.values<T>()) out.push_back(static_cast<int64_t>(v));
  });
  return out;
}

std::vector<int32_t> AllRows(size_t n) {
  std::vector<int32_t> rows(n);
  for (size_t i = 0; i < n; ++i) rows[i] = static_cast<int32_t>(i);
  return rows;
}

TEST(RangeEvaluatorTest, PackedWidthsDecodeLikePerRow) {
  // Widths 1-31 bit-pack int32 values, 32 and 40 frame int64 values: the
  // compile-time group unpack covers 1-32, and 40 takes the per-code path.
  std::vector<std::pair<Column, EncodingChoice>> columns;
  std::mt19937_64 rng(43);
  for (unsigned bits = 1; bits <= 40; ++bits) {
    if (bits > 32 && bits != 40) continue;
    const uint64_t mask = (uint64_t{1} << bits) - 1;
    if (bits < 32) {
      std::vector<int32_t> v(kRangeRows);
      for (auto& x : v) x = static_cast<int32_t>(rng() & mask);
      columns.emplace_back(Column(std::move(v)),
                           Force(Encoding::kBitPack, bits));
    } else {
      const int64_t reference = -3'000'000'000;
      std::vector<int64_t> v(kRangeRows);
      for (auto& x : v) x = reference + static_cast<int64_t>(rng() & mask);
      columns.emplace_back(Column(std::move(v)),
                           Force(Encoding::kFor, bits, reference));
    }
  }
  const std::vector<int32_t> all = AllRows(kRangeRows);
  std::vector<int32_t> sample;  // ascending, off every boundary
  for (size_t i = 5; i < kRangeRows; i += 3) {
    sample.push_back(static_cast<int32_t>(i));
  }
  OnEveryPool({backends::kHandwritten},
              [&](core::Backend& backend, gpusim::Stream& stream) {
    for (const auto& [column, choice] : columns) {
      SCOPED_TRACE(testing::Message() << choice.bit_width << " bits");
      const storage::EncodedDeviceColumn dev =
          storage::UploadColumnEncoded(stream, EncodeColumn(column, choice));
      ASSERT_EQ(dev.bit_width, choice.bit_width);
      EXPECT_EQ(HostInts(stream, backend.DecodeColumn(dev)),
                PerRowInts(dev, all));
      const storage::DeviceColumn ids =
          storage::UploadColumn(stream, Column(std::vector<int32_t>(sample)));
      EXPECT_EQ(HostInts(stream, backend.GatherDecode(dev, ids)),
                PerRowInts(dev, sample));
    }
  });
}

TEST(RangeEvaluatorTest, RleGatherAscendingBackwardsAndRepeatedIds) {
  std::mt19937 rng(47);
  std::vector<int32_t> values;
  int32_t value = -100;
  while (values.size() < kRangeRows) {
    const size_t run = 1 + rng() % 9;
    for (size_t k = 0; k < run && values.size() < kRangeRows; ++k) {
      values.push_back(value);
    }
    value += 1 + static_cast<int32_t>(rng() % 5);
  }
  std::vector<int32_t> ascending;
  for (size_t i = 0; i < kRangeRows; ++i) {
    if (rng() % 2 == 0) ascending.push_back(static_cast<int32_t>(i));
  }
  // Every 97th id jumps back a few hundred rows, inside chunks and at their
  // boundaries alike.
  std::vector<int32_t> backwards = ascending;
  for (size_t k = 96; k < backwards.size(); k += 97) {
    backwards[k] -= std::min(backwards[k], static_cast<int32_t>(rng() % 700));
  }
  // Descending ids: every chunk starts below where the previous one ended.
  const std::vector<int32_t> descending(ascending.rbegin(), ascending.rend());
  std::vector<int32_t> repeated;
  for (size_t k = 0; k < ascending.size(); k += 2) {
    for (int r = 0; r < 3; ++r) repeated.push_back(ascending[k]);
  }
  const std::pair<const char*, const std::vector<int32_t>*> gathers[] = {
      {"ascending", &ascending},
      {"backwards", &backwards},
      {"descending", &descending},
      {"repeated", &repeated},
  };
  const EncodedColumn encoded =
      EncodeColumn(Column(std::move(values)), Force(Encoding::kRle));
  OnEveryPool({backends::kHandwritten, backends::kThrust},
              [&](core::Backend& backend, gpusim::Stream& stream) {
    const storage::EncodedDeviceColumn dev =
        storage::UploadColumnEncoded(stream, encoded);
    for (const auto& [name, rows] : gathers) {
      SCOPED_TRACE(name);
      const storage::DeviceColumn ids =
          storage::UploadColumn(stream, Column(std::vector<int32_t>(*rows)));
      EXPECT_EQ(HostInts(stream, backend.GatherDecode(dev, ids)),
                PerRowInts(dev, *rows));
    }
    EXPECT_EQ(HostInts(stream, backend.DecodeColumn(dev)),
              PerRowInts(dev, AllRows(kRangeRows)));
  });
}

/// Rows where all (`conjunctive`) or any of `matchers` hold, row by row.
std::vector<int32_t> PerRowSelection(
    const std::vector<core::ScanMatcher>& matchers, size_t n,
    bool conjunctive) {
  std::vector<int32_t> rows;
  for (size_t i = 0; i < n; ++i) {
    bool keep = conjunctive;
    for (const core::ScanMatcher& m : matchers) {
      if (m(i) != conjunctive) keep = !conjunctive;
    }
    if (keep) rows.push_back(static_cast<int32_t>(i));
  }
  return rows;
}

TEST(RangeEvaluatorTest, SelectionsMatchPerRowInRowOrder) {
  std::mt19937 rng(53);
  std::vector<int64_t> dates(kRangeRows);
  std::vector<double> discounts(kRangeRows);
  std::vector<int32_t> keys(kRangeRows), quantities(kRangeRows);
  int32_t key = 0;
  for (size_t i = 0; i < kRangeRows; ++i) {
    dates[i] = 8000 + static_cast<int64_t>(rng() % 2500);
    discounts[i] = static_cast<double>(rng() % 11) / 100.0;
    if (rng() % 4 == 0) ++key;
    keys[i] = key;
    quantities[i] = 1 + static_cast<int32_t>(rng() % 50);
  }
  const Column date_col(std::move(dates)), discount_col(std::move(discounts));
  const Column key_col(std::move(keys)), quantity_col(std::move(quantities));
  // Two predicates on each packed column and a run-length column compared
  // by value, then with predicates folded to kAlwaysTrue, kAlwaysFalse or
  // both.
  const std::vector<Predicate> base = {
      Predicate::Make("date", CompareOp::kGe, 8500.0),
      Predicate::Make("discount", CompareOp::kGe, 0.05),
      Predicate::Make("date", CompareOp::kLt, 9800.0),
      Predicate::Make("discount", CompareOp::kLe, 0.07),
      Predicate::Make("key", CompareOp::kNe, 100.0),
  };
  const Predicate always_true = Predicate::Make("date", CompareOp::kLt, 1e9);
  const Predicate always_false =
      Predicate::Make("discount", CompareOp::kGt, 0.5);
  std::vector<std::vector<Predicate>> lists(3, base);
  lists[0].insert(lists[0].begin() + 2, always_true);
  lists[1].push_back(always_false);
  lists[2].push_back(always_true);
  lists[2].insert(lists[2].begin(), always_false);

  OnEveryPool({backends::kHandwritten, backends::kThrust},
              [&](core::Backend& backend, gpusim::Stream& stream) {
    const storage::EncodedDeviceColumn date = storage::UploadColumnEncoded(
        stream, EncodeColumn(date_col, Force(Encoding::kFor, 12, 8000)));
    const storage::EncodedDeviceColumn discount = storage::UploadColumnEncoded(
        stream, EncodeColumn(discount_col, Force(Encoding::kDictionary)));
    const storage::EncodedDeviceColumn keys_rle = storage::UploadColumnEncoded(
        stream, EncodeColumn(key_col, Force(Encoding::kRle)));
    const auto ref_of = [&](const Predicate& p) {
      if (p.column == "date") return core::ScanColumnRef::Encoded(date);
      if (p.column == "discount") return core::ScanColumnRef::Encoded(discount);
      return core::ScanColumnRef::Encoded(keys_rle);
    };
    for (const std::vector<Predicate>& list : lists) {
      std::vector<core::ScanColumnRef> cols;
      std::vector<core::ScanMatcher> matchers;
      for (const Predicate& p : list) {
        cols.push_back(ref_of(p));
        matchers.push_back(core::MakeScanMatcher(cols.back(), p));
      }
      const std::vector<int32_t> want =
          PerRowSelection(matchers, kRangeRows, /*conjunctive=*/true);
      EXPECT_EQ(want.empty(), &list != &lists[0]);  // only kAlwaysFalse empties
      const core::SelectionResult got =
          backend.SelectConjunctiveEncoded(cols, list);
      ASSERT_EQ(got.count, want.size());
      EXPECT_EQ(got.row_ids.ToHost(stream).values<int32_t>(), want);

      // The same matchers, disjunctive, tile by tile from an offset off
      // every 64-row boundary.
      const std::vector<int32_t> any =
          PerRowSelection(matchers, kRangeRows, /*conjunctive=*/false);
      std::vector<int32_t> tiled;
      uint8_t keep[core::kScanTileRows];
      for (size_t t = 0; t < kRangeRows;) {
        const size_t te = std::min(kRangeRows, t + (t == 0 ? 37 : 509));
        core::MatchTile(matchers.data(), matchers.size(),
                        /*conjunctive=*/false, t, te, keep);
        for (size_t i = t; i < te; ++i) {
          if (keep[i - t]) tiled.push_back(static_cast<int32_t>(i));
        }
        t = te;
      }
      EXPECT_EQ(tiled, any);
    }

    // Raw columns through the fused kernel: two predicates on one column,
    // disjunctive and conjunctive.
    const storage::DeviceColumn quantity =
        storage::UploadColumn(stream, quantity_col);
    const storage::DeviceColumn discount_raw =
        storage::UploadColumn(stream, discount_col);
    const std::vector<const storage::DeviceColumn*> raw_cols = {
        &quantity, &quantity, &discount_raw};
    const std::vector<Predicate> raw_preds = {
        Predicate::Make("q", CompareOp::kLt, 5.0),
        Predicate::Make("q", CompareOp::kGt, 45.0),
        Predicate::Make("d", CompareOp::kEq, 0.03),
    };
    std::vector<core::ScanMatcher> raw_matchers;
    for (size_t p = 0; p < raw_preds.size(); ++p) {
      raw_matchers.push_back(core::MakeScanMatcher(
          core::ScanColumnRef::Raw(*raw_cols[p]), raw_preds[p]));
    }
    for (const bool conjunctive : {false, true}) {
      const core::SelectionResult got =
          conjunctive ? backend.SelectConjunctive(raw_cols, raw_preds)
                      : backend.SelectDisjunctive(raw_cols, raw_preds);
      const std::vector<int32_t> want =
          PerRowSelection(raw_matchers, kRangeRows, conjunctive);
      ASSERT_EQ(got.count, want.size());
      EXPECT_EQ(got.row_ids.ToHost(stream).values<int32_t>(), want);
    }
  });
}

// ---------------------------------------------------------------------------
// Encoded-vs-raw differential over the TPC-H queries, every backend
// ---------------------------------------------------------------------------

class EncodedQueryDifferentialTest
    : public ::testing::TestWithParam<const char*> {
 protected:
  static void SetUpTestSuite() {
    core::RegisterBuiltinBackends();
    tpch::Config config;
    config.scale_factor = 0.002;
    lineitem_ = new storage::Table(tpch::GenerateLineitem(config));
    orders_ = new storage::Table(tpch::GenerateOrders(config));
    customer_ = new storage::Table(tpch::GenerateCustomer(config));
    part_ = new storage::Table(tpch::GeneratePart(config));
  }
  static void TearDownTestSuite() {
    delete lineitem_;
    delete orders_;
    delete customer_;
    delete part_;
    lineitem_ = orders_ = customer_ = part_ = nullptr;
  }

  /// Runs `q`'s plan on fresh backends over raw and over encoded uploads,
  /// and EXPECTs the same answer. Float sums may re-associate (the
  /// handwritten backend aggregates encoded keys by dense code, raw keys by
  /// hash table): tolerance, not bit equality.
  static void ExpectEncodedMatchesRaw(plan::TpchQuery q) {
    const plan::TpchHostTables host = {lineitem_, orders_, customer_, part_};
    plan::TpchQueryResult out[2];
    for (const bool encoded : {false, true}) {
      auto backend = core::BackendRegistry::Instance().Create(GetParam());
      out[encoded ? 1 : 0] =
          tpch_testing::RunQuery(q, *backend, host, encoded);
    }
    std::string why;
    EXPECT_TRUE(plan::SameAnswer(q, out[1], out[0], &why)) << why;
    tpch_testing::ExpectReferenceAnswer(q, out[0], host);
  }

  static storage::Table* lineitem_;
  static storage::Table* orders_;
  static storage::Table* customer_;
  static storage::Table* part_;
};

storage::Table* EncodedQueryDifferentialTest::lineitem_ = nullptr;
storage::Table* EncodedQueryDifferentialTest::orders_ = nullptr;
storage::Table* EncodedQueryDifferentialTest::customer_ = nullptr;
storage::Table* EncodedQueryDifferentialTest::part_ = nullptr;

INSTANTIATE_TEST_SUITE_P(AllBackends, EncodedQueryDifferentialTest,
                         ::testing::Values(backends::kThrust,
                                           backends::kBoostCompute,
                                           backends::kArrayFire,
                                           backends::kHandwritten));

TEST_P(EncodedQueryDifferentialTest, Q1EncodedMatchesRaw) {
  ExpectEncodedMatchesRaw(plan::TpchQuery::kQ1);
}

TEST_P(EncodedQueryDifferentialTest, Q6EncodedMatchesRaw) {
  ExpectEncodedMatchesRaw(plan::TpchQuery::kQ6);
}

TEST_P(EncodedQueryDifferentialTest, Q3EncodedMatchesRaw) {
  ExpectEncodedMatchesRaw(plan::TpchQuery::kQ3);
}

TEST_P(EncodedQueryDifferentialTest, Q4EncodedMatchesRaw) {
  ExpectEncodedMatchesRaw(plan::TpchQuery::kQ4);
}

TEST_P(EncodedQueryDifferentialTest, Q14EncodedMatchesRaw) {
  ExpectEncodedMatchesRaw(plan::TpchQuery::kQ14);
}

// ---------------------------------------------------------------------------
// Footprint regression: encoded base tables, raw intermediates
// ---------------------------------------------------------------------------

TEST(EncodedFootprintTest, Q6EncodedFootprintBeatsRaw) {
  core::RegisterBuiltinBackends();
  tpch::Config config;
  config.scale_factor = 0.01;
  const storage::Table lineitem = tpch::GenerateLineitem(config);
  const storage::Table orders = tpch::GenerateOrders(config);
  const storage::Table customer = tpch::GenerateCustomer(config);
  const storage::Table part = tpch::GeneratePart(config);
  plan::TpchHostTables tables;
  tables.lineitem = &lineitem;
  tables.orders = &orders;
  tables.customer = &customer;
  tables.part = &part;

  const uint64_t raw = plan::EstimateQueryFootprint(
      plan::TpchQuery::kQ6, tables, backends::kHandwritten);
  const uint64_t enc = plan::EstimateQueryFootprint(
      plan::TpchQuery::kQ6, tables, backends::kHandwritten,
      /*partitions=*/1, /*use_encoding=*/true);
  EXPECT_GT(enc, 0u);
  // The regression this pins: encoded sizing applies to the base-table scan
  // terms (Q6 reads l_shipdate/l_discount/l_quantity encoded and never
  // decodes them), so the encoded estimate must be strictly below raw — the
  // old uniform 2x-headroom sizing priced both identically.
  EXPECT_LT(enc, raw);
  // The saving is bounded by the scan share of the footprint (selection and
  // gather outputs stay raw-priced), but the three packed predicate columns
  // must still show up: require at least a 10% reduction.
  EXPECT_LT(enc, raw - raw / 10);
}

TEST(EncodedFootprintTest, EncodedEstimateAdmitsWhereRawPartitions) {
  core::RegisterBuiltinBackends();
  tpch::Config config;
  config.scale_factor = 0.01;
  const storage::Table lineitem = tpch::GenerateLineitem(config);
  const storage::Table orders = tpch::GenerateOrders(config);
  const storage::Table customer = tpch::GenerateCustomer(config);
  const storage::Table part = tpch::GeneratePart(config);
  plan::TpchHostTables tables;
  tables.lineitem = &lineitem;
  tables.orders = &orders;
  tables.customer = &customer;
  tables.part = &part;

  for (const plan::TpchQuery q :
       {plan::TpchQuery::kQ1, plan::TpchQuery::kQ6, plan::TpchQuery::kQ14}) {
    const uint64_t raw = plan::EstimateQueryFootprint(
        q, tables, backends::kHandwritten, 1, false);
    const uint64_t enc = plan::EstimateQueryFootprint(
        q, tables, backends::kHandwritten, 1, true);
    EXPECT_LT(enc, raw) << plan::TpchQueryName(q);
  }
}

}  // namespace
