#include "core/backend.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <stdexcept>

#include "gpusim/algorithms.h"
#include "gpusim/kernel.h"
#include "gpusim/memory.h"

namespace core {

const std::vector<DbOperator>& AllDbOperators() {
  static const std::vector<DbOperator>* ops = new std::vector<DbOperator>{
      DbOperator::kSelection,      DbOperator::kConjunction,
      DbOperator::kDisjunction,    DbOperator::kNestedLoopsJoin,
      DbOperator::kMergeJoin,      DbOperator::kHashJoin,
      DbOperator::kGroupedAggregation, DbOperator::kReduction,
      DbOperator::kSortByKey,      DbOperator::kSort,
      DbOperator::kPrefixSum,      DbOperator::kScatterGather,
      DbOperator::kProduct,
  };
  return *ops;
}

const char* DbOperatorName(DbOperator op) {
  switch (op) {
    case DbOperator::kSelection: return "Selection";
    case DbOperator::kConjunction: return "Conjunction";
    case DbOperator::kDisjunction: return "Disjunction";
    case DbOperator::kNestedLoopsJoin: return "Nested-Loops Join";
    case DbOperator::kMergeJoin: return "Merge Join";
    case DbOperator::kHashJoin: return "Hash Join";
    case DbOperator::kGroupedAggregation: return "Grouped Aggregation";
    case DbOperator::kReduction: return "Reduction";
    case DbOperator::kSortByKey: return "Sort by Key";
    case DbOperator::kSort: return "Sort";
    case DbOperator::kPrefixSum: return "Prefix Sum";
    case DbOperator::kScatterGather: return "Scatter & Gather";
    case DbOperator::kProduct: return "Product";
  }
  return "?";
}

const char* CompareOpName(CompareOp op) {
  switch (op) {
    case CompareOp::kLt: return "<";
    case CompareOp::kLe: return "<=";
    case CompareOp::kGt: return ">";
    case CompareOp::kGe: return ">=";
    case CompareOp::kEq: return "=";
    case CompareOp::kNe: return "!=";
  }
  return "?";
}

const char* AggOpName(AggOp op) {
  switch (op) {
    case AggOp::kSum: return "sum";
    case AggOp::kCount: return "count";
    case AggOp::kMin: return "min";
    case AggOp::kMax: return "max";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Encoded-domain predicate rewriting
// ---------------------------------------------------------------------------

namespace {

using storage::DataType;
using storage::DeviceColumn;
using storage::EncodedDeviceColumn;
using storage::Encoding;

EncodedPredicate AlwaysTrue() {
  EncodedPredicate p;
  p.kind = EncodedPredicate::Kind::kAlwaysTrue;
  return p;
}

EncodedPredicate AlwaysFalse() {
  EncodedPredicate p;
  p.kind = EncodedPredicate::Kind::kAlwaysFalse;
  return p;
}

EncodedPredicate CodeCompare(CompareOp op, uint64_t code) {
  EncodedPredicate p;
  p.op = op;
  p.code = code;
  return p;
}

/// Canonicalizes an int64 threshold comparison into code space [0, max_code].
/// `t` is the literal translated into code space (kLt means code < t).
EncodedPredicate FoldThreshold(CompareOp op, int64_t t, uint64_t max_code) {
  switch (op) {
    case CompareOp::kLe: return FoldThreshold(CompareOp::kLt, t + 1, max_code);
    case CompareOp::kGt: return FoldThreshold(CompareOp::kGe, t + 1, max_code);
    case CompareOp::kLt:
      if (t <= 0) return AlwaysFalse();
      if (static_cast<uint64_t>(t) > max_code) return AlwaysTrue();
      return CodeCompare(CompareOp::kLt, static_cast<uint64_t>(t));
    case CompareOp::kGe:
      if (t <= 0) return AlwaysTrue();
      if (static_cast<uint64_t>(t) > max_code) return AlwaysFalse();
      return CodeCompare(CompareOp::kGe, static_cast<uint64_t>(t));
    case CompareOp::kEq:
      if (t < 0 || static_cast<uint64_t>(t) > max_code) return AlwaysFalse();
      return CodeCompare(CompareOp::kEq, static_cast<uint64_t>(t));
    case CompareOp::kNe:
      if (t < 0 || static_cast<uint64_t>(t) > max_code) return AlwaysTrue();
      return CodeCompare(CompareOp::kNe, static_cast<uint64_t>(t));
  }
  return AlwaysTrue();
}

/// Dictionary rewrite in terms of the literal's lower/upper bound rank.
/// `lb`/`ub` are lower_bound/upper_bound indexes of the literal in the
/// sorted dictionary of `n` entries; `found` whether the literal is present.
EncodedPredicate FoldDictionary(CompareOp op, size_t lb, size_t ub, bool found,
                                size_t n) {
  switch (op) {
    case CompareOp::kLt:  // value < lit <=> code < lb
      if (lb == 0) return AlwaysFalse();
      if (lb >= n) return AlwaysTrue();
      return CodeCompare(CompareOp::kLt, lb);
    case CompareOp::kGe:  // value >= lit <=> code >= lb
      if (lb == 0) return AlwaysTrue();
      if (lb >= n) return AlwaysFalse();
      return CodeCompare(CompareOp::kGe, lb);
    case CompareOp::kLe:  // value <= lit <=> code < ub
      if (ub == 0) return AlwaysFalse();
      if (ub >= n) return AlwaysTrue();
      return CodeCompare(CompareOp::kLt, ub);
    case CompareOp::kGt:  // value > lit <=> code >= ub
      if (ub == 0) return AlwaysTrue();
      if (ub >= n) return AlwaysFalse();
      return CodeCompare(CompareOp::kGe, ub);
    case CompareOp::kEq:
      return found ? CodeCompare(CompareOp::kEq, lb) : AlwaysFalse();
    case CompareOp::kNe:
      return found ? CodeCompare(CompareOp::kNe, lb) : AlwaysTrue();
  }
  return AlwaysTrue();
}

/// Ceil(log2(n)), at least 1 — probe count of a binary search over n runs.
uint64_t SearchSteps(size_t n) {
  uint64_t steps = 1;
  while ((size_t{1} << steps) < n) ++steps;
  return steps;
}

/// Device bytes one random access into the encoded payload reads.
uint64_t RandAccessBytes(const EncodedDeviceColumn& e) {
  switch (e.encoding) {
    case Encoding::kRle:
      return (SearchSteps(e.num_runs()) + 1) * sizeof(uint32_t);
    case Encoding::kDictionary:
      return sizeof(uint64_t) + storage::DataTypeSize(e.type);
    default:
      return sizeof(uint64_t);
  }
}

bool IsFloat(DataType t) {
  return t == DataType::kFloat64 || t == DataType::kFloat32;
}

}  // namespace

uint64_t ScanColumnSeqBytes(const ScanColumnRef& ref) {
  if (ref.raw != nullptr) return ref.raw->byte_size();
  const EncodedDeviceColumn& e = *ref.enc;
  if (e.encoding == Encoding::kRle) {
    // Row-major access binary-searches the run ends per row.
    return ref.size() * (SearchSteps(e.num_runs()) + 1) * sizeof(uint32_t);
  }
  return e.encoded_byte_size();
}

ColumnReader MakeColumnReader(const ScanColumnRef& ref) {
  ColumnReader r;
  if (ref.raw != nullptr) {
    r.type = ref.raw->type();
    r.values = ref.raw->raw_data();
    return r;
  }
  const EncodedDeviceColumn& e = *ref.enc;
  r.type = e.type;
  r.words = e.words_data();
  r.bits = e.bit_width;
  switch (e.encoding) {
    case Encoding::kBitPack:
    case Encoding::kFor:
      if (IsFloat(e.type)) break;
      r.layout = ColumnReader::Layout::kFor;
      r.reference = e.reference;
      return r;
    case Encoding::kDictionary:
      r.layout = ColumnReader::Layout::kDictionary;
      r.values = e.dict.raw_data();
      return r;
    case Encoding::kRle:
      if (IsFloat(e.type)) break;
      r.layout = ColumnReader::Layout::kRle;
      r.type = DataType::kInt32;
      r.values = e.rle_values.raw_data();
      r.ends = e.rle_ends_data();
      r.runs = e.num_runs();
      return r;
    case Encoding::kNone:
      break;
  }
  throw std::invalid_argument(
      "MakeColumnReader: bad encoding (float columns only dictionary-encode)");
}

ScanMatcher MakeScanMatcher(const ScanColumnRef& ref, const Predicate& pred) {
  ScanMatcher m;
  m.column = MakeColumnReader(ref);
  m.op = pred.op;
  m.lit_i = pred.value_i;
  m.lit_f = pred.value_f;
  if (m.column.layout == ColumnReader::Layout::kFor ||
      m.column.layout == ColumnReader::Layout::kDictionary) {
    m.domain = ScanMatcher::Domain::kCode;
    m.folded = RewritePredicate(*ref.enc, pred);
  } else if (IsFloat(m.column.type)) {
    m.domain = ScanMatcher::Domain::kFloat;
  }
  return m;
}

namespace {

/// Calls f(p) with `values` as a typed pointer of `type`.
template <typename F>
void VisitValues(DataType type, const void* values, F&& f) {
  switch (type) {
    case DataType::kInt32: f(static_cast<const int32_t*>(values)); return;
    case DataType::kInt64: f(static_cast<const int64_t*>(values)); return;
    case DataType::kFloat32: f(static_cast<const float*>(values)); return;
    case DataType::kFloat64: f(static_cast<const double*>(values)); return;
  }
}

/// Whether `a` and `b` read the same column payload.
bool SameSource(const ColumnReader& a, const ColumnReader& b) {
  return a.layout == b.layout && a.values == b.values && a.words == b.words &&
         a.ends == b.ends;
}

/// out[k] = a(k) <op> b(k) for k in [0, m), with the operator switch taken
/// once instead of per row.
template <typename A, typename B>
void CompareTile(CompareOp op, size_t m, A a, B b, uint8_t* out) {
  const auto loop = [&](auto cmp) {
    for (size_t k = 0; k < m; ++k) out[k] = cmp(a(k), b(k));
  };
  switch (op) {
    case CompareOp::kLt: return loop(std::less<>());
    case CompareOp::kLe: return loop(std::less_equal<>());
    case CompareOp::kGt: return loop(std::greater<>());
    case CompareOp::kGe: return loop(std::greater_equal<>());
    case CompareOp::kEq: return loop(std::equal_to<>());
    case CompareOp::kNe: return loop(std::not_equal_to<>());
  }
}

}  // namespace

template <typename T>
void ColumnReader::Decode(size_t begin, size_t end, T* out) const {
  switch (layout) {
    case Layout::kRaw:
      VisitValues(type, values, [&](const auto* v) {
        for (size_t i = begin; i < end; ++i) {
          out[i - begin] = static_cast<T>(v[i]);
        }
      });
      return;
    case Layout::kRle: {
      // One search for the first row, then whole runs at a time.
      const int32_t* v = static_cast<const int32_t*>(values);
      size_t r = static_cast<size_t>(
          std::upper_bound(ends, ends + runs, static_cast<uint32_t>(begin)) -
          ends);
      for (size_t i = begin; i < end; ++r) {
        const size_t stop = std::min<size_t>(end, ends[r]);
        std::fill(out + (i - begin), out + (stop - begin),
                  static_cast<T>(v[r]));
        i = stop;
      }
      return;
    }
    case Layout::kFor:
    case Layout::kDictionary: {
      uint64_t codes[kScanTileRows];
      for (size_t t = begin; t < end; t += kScanTileRows) {
        const size_t m = std::min(end - t, kScanTileRows);
        storage::UnpackBits(words, bits, t, t + m, codes);
        T* o = out + (t - begin);
        if (layout == Layout::kFor) {
          for (size_t k = 0; k < m; ++k) {
            o[k] = static_cast<T>(reference + static_cast<int64_t>(codes[k]));
          }
        } else {
          VisitValues(type, values, [&](const auto* dict) {
            for (size_t k = 0; k < m; ++k) {
              o[k] = static_cast<T>(dict[codes[k]]);
            }
          });
        }
      }
      return;
    }
  }
}

template <typename T>
void ColumnReader::Gather(const int32_t* rows, size_t m, T* out) const {
  if (layout == Layout::kRle) {
    const int32_t* v = static_cast<const int32_t*>(values);
    size_t r = 0;
    uint32_t start = UINT32_MAX;  // first row of run r; none located yet
    for (size_t k = 0; k < m; ++k) {
      const uint32_t row = static_cast<uint32_t>(rows[k]);
      if (row < start) {
        r = static_cast<size_t>(
            std::upper_bound(ends, ends + runs, row) - ends);
      } else {
        while (r + 1 < runs && ends[r] <= row) ++r;
      }
      start = r == 0 ? 0 : ends[r - 1];
      out[k] = static_cast<T>(v[r]);
    }
    return;
  }
  // Packed layouts: random rows unpack their codes one at a time.
  const auto code = [&](size_t k) {
    return storage::UnpackBit(words, bits, static_cast<size_t>(rows[k]));
  };
  if (layout == Layout::kFor) {
    for (size_t k = 0; k < m; ++k) {
      out[k] = static_cast<T>(reference + static_cast<int64_t>(code(k)));
    }
    return;
  }
  VisitValues(type, values, [&](const auto* dict) {
    for (size_t k = 0; k < m; ++k) out[k] = static_cast<T>(dict[code(k)]);
  });
}

template void ColumnReader::Decode(size_t, size_t, int32_t*) const;
template void ColumnReader::Decode(size_t, size_t, int64_t*) const;
template void ColumnReader::Decode(size_t, size_t, float*) const;
template void ColumnReader::Decode(size_t, size_t, double*) const;
template void ColumnReader::Gather(const int32_t*, size_t, int32_t*) const;
template void ColumnReader::Gather(const int32_t*, size_t, int64_t*) const;
template void ColumnReader::Gather(const int32_t*, size_t, float*) const;
template void ColumnReader::Gather(const int32_t*, size_t, double*) const;

void MatchTile(const ScanMatcher* matchers, size_t num, bool conjunctive,
               size_t begin, size_t end, uint8_t* keep) {
  const size_t m = end - begin;
  std::fill(keep, keep + m, conjunctive ? 1 : 0);
  uint64_t codes[kScanTileRows];  // kCode operands
  int64_t ints[kScanTileRows];    // kInt operands of an RLE column
  uint8_t hit[kScanTileRows];
  for (size_t p = 0; p < num; ++p) {
    const ColumnReader& col = matchers[p].column;
    bool seen = false;  // an earlier matcher's pass covered this column
    for (size_t q = 0; q < p && !seen; ++q) {
      seen = SameSource(matchers[q].column, col);
    }
    if (seen) continue;
    // One pass per column: decode its tile at most once, then evaluate every
    // matcher that reads it.
    bool loaded = false;
    for (size_t q = p; q < num; ++q) {
      const ScanMatcher& mq = matchers[q];
      if (q != p && !SameSource(mq.column, col)) continue;
      if (mq.domain == ScanMatcher::Domain::kCode &&
          mq.folded.kind != EncodedPredicate::Kind::kCodeCompare) {
        // AND with true and OR with false change nothing; the other two
        // settle the whole tile.
        const bool value =
            mq.folded.kind == EncodedPredicate::Kind::kAlwaysTrue;
        if (value != conjunctive) std::fill(keep, keep + m, value ? 1 : 0);
        continue;
      }
      switch (mq.domain) {
        case ScanMatcher::Domain::kCode: {
          if (!loaded) {
            storage::UnpackBits(col.words, col.bits, begin, end, codes);
          }
          const uint64_t lit = mq.folded.code;
          CompareTile(mq.folded.op, m, [&](size_t k) { return codes[k]; },
                      [lit](size_t) { return lit; }, hit);
          break;
        }
        case ScanMatcher::Domain::kInt: {
          const int64_t lit = mq.lit_i;
          if (col.layout != ColumnReader::Layout::kRaw) {
            if (!loaded) col.Decode(begin, end, ints);
            CompareTile(mq.op, m, [&](size_t k) { return ints[k]; },
                        [lit](size_t) { return lit; }, hit);
            break;
          }
          VisitValues(col.type, col.values, [&](const auto* v) {
            CompareTile(mq.op, m,
                        [v = v + begin](size_t k) {
                          return static_cast<int64_t>(v[k]);
                        },
                        [lit](size_t) { return lit; }, hit);
          });
          break;
        }
        case ScanMatcher::Domain::kFloat: {
          const double lit = mq.lit_f;
          VisitValues(col.type, col.values, [&](const auto* v) {
            CompareTile(mq.op, m,
                        [v = v + begin](size_t k) {
                          return static_cast<double>(v[k]);
                        },
                        [lit](size_t) { return lit; }, hit);
          });
          break;
        }
      }
      loaded = true;
      if (conjunctive) {
        for (size_t k = 0; k < m; ++k) keep[k] &= hit[k];
      } else {
        for (size_t k = 0; k < m; ++k) keep[k] |= hit[k];
      }
    }
  }
}

namespace {

/// Library-shaped tail of a selection over per-row flags: exclusive scan,
/// count readback over the link, scatter of matching row ids.
SelectionResult FinishFlagSelection(gpusim::Stream& stream,
                                    const uint32_t* flags, size_t n) {
  gpusim::Device& device = stream.device();
  gpusim::DeviceArray<uint32_t> positions(n, device);
  gpusim::ExclusiveScan(stream, flags, positions.data(), n, uint32_t{0},
                        [](uint32_t a, uint32_t b) { return a + b; });
  uint32_t last_pos = 0, last_flag = 0;
  if (n > 0) {
    gpusim::CopyDeviceToHost(stream, &last_pos, positions.data() + n - 1,
                             sizeof(uint32_t));
    gpusim::CopyDeviceToHost(stream, &last_flag, flags + n - 1,
                             sizeof(uint32_t));
  }
  const size_t count = last_pos + last_flag;

  SelectionResult out;
  out.count = count;
  out.row_ids = DeviceColumn(DataType::kInt32, count, device);
  int32_t* rows = count > 0 ? out.row_ids.data<int32_t>() : nullptr;
  const uint32_t* pos = positions.data();
  gpusim::KernelStats stats;
  stats.name = "enc::scatter_row_ids";
  stats.bytes_read = n * 2 * sizeof(uint32_t);
  stats.bytes_written = count * sizeof(int32_t);
  gpusim::ParallelFor(stream, n, stats, [=](size_t i) {
    if (flags[i] != 0) rows[pos[i]] = static_cast<int32_t>(i);
  });
  return out;
}

/// One decode kernel over `m` output rows: out[i] = src decoded at row
/// rows[i], or at row i when `rows` is null.
DeviceColumn DecodeRows(gpusim::Stream& s, const gpusim::KernelStats& stats,
                        const EncodedDeviceColumn& src, size_t m,
                        const int32_t* rows) {
  DeviceColumn out(src.type, m, s.device());
  const ColumnReader rd = MakeColumnReader(ScanColumnRef::Encoded(src));
  const auto launch = [&](auto* po) {
    gpusim::ParallelForRange(s, m, stats, [=](size_t begin, size_t end) {
      if (rows != nullptr) {
        rd.Gather(rows + begin, end - begin, po + begin);
      } else {
        rd.Decode(begin, end, po + begin);
      }
    });
  };
  switch (src.type) {
    case DataType::kInt32:
      launch(m > 0 ? out.data<int32_t>() : nullptr);
      break;
    case DataType::kInt64:
      launch(m > 0 ? out.data<int64_t>() : nullptr);
      break;
    case DataType::kFloat64:
      launch(m > 0 ? out.data<double>() : nullptr);
      break;
    case DataType::kFloat32:
      launch(m > 0 ? out.data<float>() : nullptr);
      break;
  }
  return out;
}

}  // namespace

EncodedPredicate RewritePredicate(const EncodedDeviceColumn& column,
                                  const Predicate& pred) {
  switch (column.encoding) {
    case Encoding::kBitPack:
    case Encoding::kFor: {
      const uint64_t max_code = column.bit_width >= 64
                                    ? ~uint64_t{0}
                                    : (uint64_t{1} << column.bit_width) - 1;
      return FoldThreshold(pred.op, pred.value_i - column.reference,
                           max_code);
    }
    case Encoding::kDictionary: {
      size_t lb = 0, ub = 0, n = 0;
      bool found = false;
      if (IsFloat(column.type)) {
        const auto& dict = column.host_dict_f64;
        n = dict.size();
        lb = std::lower_bound(dict.begin(), dict.end(), pred.value_f) -
             dict.begin();
        ub = std::upper_bound(dict.begin(), dict.end(), pred.value_f) -
             dict.begin();
        found = lb < n && dict[lb] == pred.value_f;
      } else {
        const auto& dict = column.host_dict_i64;
        n = dict.size();
        lb = std::lower_bound(dict.begin(), dict.end(), pred.value_i) -
             dict.begin();
        ub = std::upper_bound(dict.begin(), dict.end(), pred.value_i) -
             dict.begin();
        found = lb < n && dict[lb] == pred.value_i;
      }
      return FoldDictionary(pred.op, lb, ub, found, n);
    }
    case Encoding::kRle:
    case Encoding::kNone:
      throw std::invalid_argument(
          "RewritePredicate: no code domain for this encoding");
  }
  throw std::invalid_argument("RewritePredicate: bad encoding");
}

// ---------------------------------------------------------------------------
// Default encoded-operator realizations (library pipeline shape)
// ---------------------------------------------------------------------------

SelectionResult Backend::SelectConjunctiveEncoded(
    const std::vector<ScanColumnRef>& columns,
    const std::vector<Predicate>& preds) {
  if (columns.empty() || columns.size() != preds.size()) {
    throw std::invalid_argument(
        "SelectConjunctiveEncoded: bad predicate list");
  }
  EncodedOpPrologue("select_conjunctive_encoded", 3);
  gpusim::Stream& s = stream();
  const size_t n = columns[0].size();

  std::vector<ScanMatcher> matchers;
  matchers.reserve(preds.size());
  uint64_t bytes_per_scan = 0;
  for (size_t p = 0; p < preds.size(); ++p) {
    matchers.push_back(MakeScanMatcher(columns[p], preds[p]));
    bytes_per_scan += ScanColumnSeqBytes(columns[p]);
  }

  gpusim::DeviceArray<uint32_t> flags(n, s.device());
  uint32_t* f = flags.data();
  const ScanMatcher* ms = matchers.data();
  const size_t num_preds = matchers.size();
  gpusim::KernelStats stats;
  stats.name = "enc::pred_flags";
  stats.bytes_read = bytes_per_scan;
  stats.bytes_written = n * sizeof(uint32_t);
  stats.ops = n * num_preds;
  gpusim::ParallelForRange(s, n, stats, [=](size_t begin, size_t end) {
    uint8_t keep[kScanTileRows];
    for (size_t t = begin; t < end; t += kScanTileRows) {
      const size_t te = std::min(end, t + kScanTileRows);
      MatchTile(ms, num_preds, /*conjunctive=*/true, t, te, keep);
      for (size_t i = t; i < te; ++i) f[i] = keep[i - t];
    }
  });
  return FinishFlagSelection(s, f, n);
}

SelectionResult Backend::SelectCompareColumnsEncoded(const ScanColumnRef& a,
                                                     CompareOp op,
                                                     const ScanColumnRef& b) {
  if (IsFloat(a.type()) != IsFloat(b.type())) {
    throw std::invalid_argument(
        "SelectCompareColumnsEncoded: mixed float/int operands");
  }
  EncodedOpPrologue("select_compare_encoded", 3);
  gpusim::Stream& s = stream();
  const size_t n = a.size();

  // Integer sides decode to int64 on the fly; for FOR-vs-FOR this is the
  // folded pa + (refA - refB) vs pb comparison, wide enough not to wrap.
  const ColumnReader ra = MakeColumnReader(a);
  const ColumnReader rb = MakeColumnReader(b);
  const bool floats = IsFloat(a.type());

  gpusim::DeviceArray<uint32_t> flags(n, s.device());
  uint32_t* f = flags.data();
  gpusim::KernelStats stats;
  stats.name = "enc::cmp_cols_flags";
  stats.bytes_read = ScanColumnSeqBytes(a) + ScanColumnSeqBytes(b);
  stats.bytes_written = n * sizeof(uint32_t);
  const auto compare = [&](auto zero) {
    using V = decltype(zero);
    gpusim::ParallelForRange(s, n, stats, [=](size_t begin, size_t end) {
      V va[kScanTileRows], vb[kScanTileRows];
      uint8_t hit[kScanTileRows];
      for (size_t t = begin; t < end; t += kScanTileRows) {
        const size_t te = std::min(end, t + kScanTileRows);
        ra.Decode(t, te, va);
        rb.Decode(t, te, vb);
        CompareTile(op, te - t, [&](size_t k) { return va[k]; },
                    [&](size_t k) { return vb[k]; }, hit);
        for (size_t i = t; i < te; ++i) f[i] = hit[i - t];
      }
    });
  };
  if (floats) {
    compare(0.0);
  } else {
    compare(int64_t{0});
  }
  return FinishFlagSelection(s, f, n);
}

storage::DeviceColumn Backend::GatherDecode(
    const storage::EncodedDeviceColumn& src,
    const storage::DeviceColumn& indices) {
  EncodedOpPrologue("gather_decode", 1);
  const size_t m = indices.size();
  const int32_t* map = indices.data<int32_t>();
  gpusim::KernelStats stats;
  stats.name = "enc::gather_decode";
  stats.bytes_read = m * (sizeof(int32_t) + RandAccessBytes(src));
  stats.bytes_written = m * storage::DataTypeSize(src.type);
  return DecodeRows(stream(), stats, src, m, map);
}

storage::DeviceColumn Backend::DecodeColumn(
    const storage::EncodedDeviceColumn& src) {
  EncodedOpPrologue("decode_column", 1);
  gpusim::KernelStats stats;
  stats.name = "enc::decode_column";
  stats.bytes_read = src.encoded_byte_size();
  stats.bytes_written = src.size * storage::DataTypeSize(src.type);
  return DecodeRows(stream(), stats, src, src.size, nullptr);
}

double Backend::ReduceEncoded(const storage::EncodedDeviceColumn& values,
                              AggOp op) {
  if (op == AggOp::kCount) return static_cast<double>(values.size);
  gpusim::Stream& s = stream();

  switch (values.encoding) {
    case Encoding::kRle: {
      const size_t runs = values.num_runs();
      const int32_t* vals =
          runs > 0 ? values.rle_values.data<int32_t>() : nullptr;
      if (op == AggOp::kMin || op == AggOp::kMax) {
        // Runs carry every distinct neighborhood; min/max over runs is
        // min/max over rows.
        EncodedOpPrologue("reduce_encoded_rle", 1);
        if (runs == 0) return 0.0;
        const int32_t init = op == AggOp::kMin
                                 ? std::numeric_limits<int32_t>::max()
                                 : std::numeric_limits<int32_t>::lowest();
        const AggOp aop = op;
        return static_cast<double>(gpusim::Reduce(
            s, vals, runs, init,
            [aop](int32_t a, int32_t b) {
              return aop == AggOp::kMin ? (b < a ? b : a) : (a < b ? b : a);
            },
            "enc::reduce_rle_minmax"));
      }
      // RLE-aware sum: one pass over the runs, each contributing
      // value * run_length — never touches per-row data.
      EncodedOpPrologue("reduce_encoded_rle", 2);
      if (runs == 0) return 0.0;
      const uint32_t* ends = values.rle_ends_data();
      gpusim::DeviceArray<double> contrib(runs, s.device());
      double* c = contrib.data();
      gpusim::KernelStats stats;
      stats.name = "enc::rle_run_weights";
      stats.bytes_read = runs * (sizeof(int32_t) + 2 * sizeof(uint32_t));
      stats.bytes_written = runs * sizeof(double);
      gpusim::ParallelFor(s, runs, stats, [=](size_t r) {
        const uint32_t begin = r == 0 ? 0 : ends[r - 1];
        c[r] = static_cast<double>(vals[r]) *
               static_cast<double>(ends[r] - begin);
      });
      return gpusim::Reduce(s, c, runs, 0.0,
                            [](double a, double b) { return a + b; },
                            "enc::rle_run_sum");
    }

    case Encoding::kDictionary: {
      if (op == AggOp::kMin || op == AggOp::kMax) {
        // The sorted dictionary holds only present values: min/max is its
        // first/last entry — one element over the link.
        EncodedOpPrologue("reduce_encoded_dict", 0);
        if (values.host_dict_f64.empty() && values.host_dict_i64.empty()) {
          return 0.0;
        }
        s.ChargeTransfer(gpusim::Stream::TransferKind::kDeviceToHost,
                         storage::DataTypeSize(values.type));
        if (!values.host_dict_f64.empty()) {
          return op == AggOp::kMin ? values.host_dict_f64.front()
                                   : values.host_dict_f64.back();
        }
        return static_cast<double>(op == AggOp::kMin
                                       ? values.host_dict_i64.front()
                                       : values.host_dict_i64.back());
      }
      break;  // sum: decode fallback below
    }

    case Encoding::kBitPack:
    case Encoding::kFor: {
      // Unpack codes into per-row contributions, then tree-reduce. Sum folds
      // the reference analytically: sum = n * ref + sum(codes).
      EncodedOpPrologue("reduce_encoded_packed", 2);
      const size_t n = values.size;
      if (n == 0) return 0.0;
      const uint64_t* words = values.words_data();
      const unsigned bits = values.bit_width;
      gpusim::DeviceArray<int64_t> codes(n, s.device());
      int64_t* c = codes.data();
      gpusim::KernelStats stats;
      stats.name = "enc::unpack_codes";
      stats.bytes_read = values.encoded_byte_size();
      stats.bytes_written = n * sizeof(int64_t);
      gpusim::ParallelForRange(s, n, stats, [=](size_t begin, size_t end) {
        storage::UnpackBits(words, bits, begin, end,
                            reinterpret_cast<uint64_t*>(c + begin));
      });
      if (op == AggOp::kSum) {
        const int64_t code_sum = gpusim::Reduce(
            s, c, n, int64_t{0},
            [](int64_t a, int64_t b) { return a + b; }, "enc::code_sum");
        return static_cast<double>(code_sum) +
               static_cast<double>(n) * static_cast<double>(values.reference);
      }
      // min/max: codes are order-isomorphic to values.
      const AggOp aop = op;
      const int64_t code = gpusim::Reduce(
          s, c, n,
          aop == AggOp::kMin ? std::numeric_limits<int64_t>::max()
                             : std::numeric_limits<int64_t>::lowest(),
          [aop](int64_t a, int64_t b) {
            return aop == AggOp::kMin ? (b < a ? b : a) : (a < b ? b : a);
          },
          "enc::code_minmax");
      return static_cast<double>(values.reference + code);
    }

    case Encoding::kNone:
      throw std::invalid_argument("ReduceEncoded: column is not encoded");
  }

  // No encoded-domain shortcut (e.g. dictionary sum): decode, then reduce.
  return ReduceColumn(DecodeColumn(values), op);
}

GroupByResult Backend::GroupByAggregateEncoded(
    const storage::EncodedDeviceColumn& keys, const SelectionResult& rows,
    const storage::DeviceColumn& values, AggOp op) {
  // Library pipeline shape: the keys materialize once for the survivors
  // (reading only packed codes), then the ordinary grouped aggregation
  // runs — so only the present keys come back as groups.
  return GroupByAggregate(GatherDecode(keys, rows.row_ids), values, op);
}

}  // namespace core
