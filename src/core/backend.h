// The operator framework — the paper's contribution.
//
// A Backend realizes the column-oriented database operators of Table II
// (selection, conjunctive/disjunctive selection, joins, grouped aggregation,
// reduction, sort, sort-by-key, prefix sum, scatter/gather, product) using
// exactly the library functions the paper maps them to. New libraries plug
// in by implementing this interface and registering a factory
// (core/registry.h), which is the framework capability the paper describes:
// "a framework ... that allows a user to plug-in new libraries and
// custom-written code".
#ifndef CORE_BACKEND_H_
#define CORE_BACKEND_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "gpusim/stream.h"
#include "storage/device_column.h"
#include "storage/encoded_column.h"

namespace core {

/// Database operators studied by the paper (rows of Table II).
enum class DbOperator {
  kSelection,
  kConjunction,
  kDisjunction,
  kNestedLoopsJoin,
  kMergeJoin,
  kHashJoin,
  kGroupedAggregation,
  kReduction,
  kSortByKey,
  kSort,
  kPrefixSum,
  kScatterGather,
  kProduct,
};

/// All operators in Table II row order.
const std::vector<DbOperator>& AllDbOperators();

/// Human-readable operator name ("Selection", "Hash Join", ...).
const char* DbOperatorName(DbOperator op);

/// Support levels from Table II: + full, ~ partial, – none.
enum class SupportLevel { kFull, kPartial, kNone };

inline const char* SupportLevelSymbol(SupportLevel s) {
  switch (s) {
    case SupportLevel::kFull: return "+";
    case SupportLevel::kPartial: return "~";
    case SupportLevel::kNone: return "-";
  }
  return "?";
}

/// How a backend realizes one operator: support level plus the library
/// functions used (the Function column of Table II).
struct OperatorRealization {
  SupportLevel level = SupportLevel::kNone;
  std::string functions;  ///< e.g. "transform() & exclusive_scan() & gather()"
};

/// Comparison operators for selection predicates.
enum class CompareOp { kLt, kLe, kGt, kGe, kEq, kNe };

/// Aggregation functions for reductions and grouped aggregation.
enum class AggOp { kSum, kCount, kMin, kMax };

/// Display symbols ("<=", "sum", ...) for EXPLAIN-style output.
const char* CompareOpName(CompareOp op);
const char* AggOpName(AggOp op);

/// Evaluates `a <op> b` for ordered operand types.
template <typename T>
inline bool ApplyCompareOp(CompareOp op, T a, T b) {
  switch (op) {
    case CompareOp::kLt: return a < b;
    case CompareOp::kLe: return a <= b;
    case CompareOp::kGt: return a > b;
    case CompareOp::kGe: return a >= b;
    case CompareOp::kEq: return a == b;
    case CompareOp::kNe: return a != b;
  }
  return false;
}

/// A predicate `column <op> value` on a named column. The literal carries
/// both integral and floating representations; backends pick per column type.
struct Predicate {
  std::string column;
  CompareOp op = CompareOp::kLt;
  double value_f = 0.0;
  int64_t value_i = 0;

  static Predicate LessThan(std::string col, double v) {
    return Make(std::move(col), CompareOp::kLt, v);
  }
  static Predicate Make(std::string col, CompareOp op, double v) {
    Predicate p;
    p.column = std::move(col);
    p.op = op;
    p.value_f = v;
    p.value_i = static_cast<int64_t>(v);
    return p;
  }
};

/// A scan input that is either a raw device column or an encoded one.
/// Exactly one of the pointers is set.
struct ScanColumnRef {
  const storage::DeviceColumn* raw = nullptr;
  const storage::EncodedDeviceColumn* enc = nullptr;

  static ScanColumnRef Raw(const storage::DeviceColumn& c) {
    ScanColumnRef r;
    r.raw = &c;
    return r;
  }
  static ScanColumnRef Encoded(const storage::EncodedDeviceColumn& c) {
    ScanColumnRef r;
    r.enc = &c;
    return r;
  }

  size_t size() const { return raw != nullptr ? raw->size() : enc->size; }
  storage::DataType type() const {
    return raw != nullptr ? raw->type() : enc->type;
  }
  /// Device bytes a full scan of this column reads.
  uint64_t scan_bytes() const {
    return raw != nullptr ? raw->byte_size() : enc->encoded_byte_size();
  }
};

/// A predicate rewritten into the encoded code domain. Because all packed
/// encodings (bit-pack, FOR, sorted dictionary) are order-isomorphic to the
/// decoded values, `column <op> literal` constant-folds into a comparison
/// against a code threshold — or vanishes entirely when the literal falls
/// outside the column's frame.
struct EncodedPredicate {
  enum class Kind { kAlwaysTrue, kAlwaysFalse, kCodeCompare };
  Kind kind = Kind::kCodeCompare;
  CompareOp op = CompareOp::kLt;  ///< canonical: kLt, kGe, kEq, or kNe
  uint64_t code = 0;              ///< folded threshold in code space

  bool Matches(uint64_t c) const {
    if (kind == Kind::kAlwaysTrue) return true;
    if (kind == Kind::kAlwaysFalse) return false;
    return ApplyCompareOp(op, c, code);
  }
};

/// Folds `pred` through the column's encoding (host-side metadata only;
/// nothing is decoded). Valid for kBitPack/kFor/kDictionary columns.
EncodedPredicate RewritePredicate(const storage::EncodedDeviceColumn& column,
                                  const Predicate& pred);

/// Rows per tile of the range evaluators: ColumnReader::Decode and
/// MatchTile work on at most this many rows at a time, into buffers on the
/// host stack.
inline constexpr size_t kScanTileRows = 512;

/// Plain-data reader of a raw or encoded scan column. Kernels capture it by
/// value. The range reads (Decode, Gather) take the layout switch once per
/// call and decode many rows: packed codes unpack 64 at a time, and RLE
/// reads walk the runs forward. The per-row reads (Int, Float) are the
/// reference the range reads are tested against.
struct ColumnReader {
  enum class Layout : uint8_t {
    kRaw,         ///< values[i]
    kFor,         ///< reference + packed code (bit-pack and FOR)
    kDictionary,  ///< values[packed code]
    kRle,         ///< values[run containing i], by binary search of `ends`
  };
  Layout layout = Layout::kRaw;
  storage::DataType type = storage::DataType::kInt32;  ///< of `values`
  const void* values = nullptr;  ///< raw values, dictionary or run values
  const uint64_t* words = nullptr;
  unsigned bits = 0;
  int64_t reference = 0;
  const uint32_t* ends = nullptr;  ///< cumulative run ends
  size_t runs = 0;

  uint64_t Code(size_t i) const { return storage::UnpackBit(words, bits, i); }

  int64_t Int(size_t i) const {
    if (layout == Layout::kFor) {
      return reference + static_cast<int64_t>(Code(i));
    }
    const size_t k = Element(i);
    return type == storage::DataType::kInt32
               ? static_cast<const int32_t*>(values)[k]
               : static_cast<const int64_t*>(values)[k];
  }

  double Float(size_t i) const {
    const size_t k = Element(i);
    return type == storage::DataType::kFloat64
               ? static_cast<const double*>(values)[k]
               : static_cast<double>(static_cast<const float*>(values)[k]);
  }

  /// Rows [begin, end) decoded into out[0, end - begin): integer columns as
  /// static_cast<T>(Int(i)), float columns as static_cast<T>(Float(i)).
  /// Defined for T in {int32_t, int64_t, float, double}.
  template <typename T>
  void Decode(size_t begin, size_t end, T* out) const;

  /// Rows rows[0, m) of an encoded layout (kFor, kDictionary, kRle)
  /// decoded into out[0, m), as Decode does. An RLE read searches the runs
  /// for the first row, then walks forward while the rows ascend and
  /// searches again when one goes backwards.
  template <typename T>
  void Gather(const int32_t* rows, size_t m, T* out) const;

 private:
  /// Index into `values` that row i reads.
  size_t Element(size_t i) const {
    switch (layout) {
      case Layout::kDictionary: return Code(i);
      case Layout::kRle:
        return static_cast<size_t>(
            std::upper_bound(ends, ends + runs, static_cast<uint32_t>(i)) -
            ends);
      default: return i;
    }
  }
};

/// Plain-data evaluator of `pred` on a raw or encoded scan column, shared
/// by backends that fuse their own selection kernels. Packed encodings
/// (bit-pack, FOR, dictionary) compare codes against the predicate folded
/// by RewritePredicate; raw and RLE columns compare decoded values,
/// integers in int64 and floats in double. Kernels evaluate matchers a tile
/// at a time through MatchTile; operator() is the per-row reference.
struct ScanMatcher {
  enum class Domain : uint8_t { kCode, kInt, kFloat };
  ColumnReader column;
  Domain domain = Domain::kInt;
  EncodedPredicate folded;  ///< kCode
  CompareOp op = CompareOp::kLt;
  int64_t lit_i = 0;
  double lit_f = 0.0;

  bool operator()(size_t i) const {
    switch (domain) {
      case Domain::kCode: return folded.Matches(column.Code(i));
      case Domain::kInt: return ApplyCompareOp(op, column.Int(i), lit_i);
      case Domain::kFloat: return ApplyCompareOp(op, column.Float(i), lit_f);
    }
    return false;
  }
};

/// keep[k] = whether row begin + k satisfies all (`conjunctive`) or any of
/// the `num` matchers, for rows [begin, end), at most kScanTileRows of them.
/// The matchers evaluate one at a time over the whole tile; a column that
/// several of them read decodes once, and a predicate folded to a constant
/// costs at most one fill.
void MatchTile(const ScanMatcher* matchers, size_t num, bool conjunctive,
               size_t begin, size_t end, uint8_t* keep);

/// Evaluators of `ref`. Both throw std::invalid_argument for an encoded
/// float column that is not dictionary-encoded.
ColumnReader MakeColumnReader(const ScanColumnRef& ref);
ScanMatcher MakeScanMatcher(const ScanColumnRef& ref, const Predicate& pred);

/// Device bytes one sequential scan of the column reads.
uint64_t ScanColumnSeqBytes(const ScanColumnRef& ref);

/// Result of a selection: matching row ids (int32, device-resident).
struct SelectionResult {
  storage::DeviceColumn row_ids;  ///< DataType::kInt32
  size_t count = 0;
};

/// Result of a join: matching row-id pairs.
struct JoinResult {
  storage::DeviceColumn left_rows;   ///< kInt32
  storage::DeviceColumn right_rows;  ///< kInt32
  size_t count = 0;
};

/// Result of grouped aggregation: group keys plus one aggregate column.
struct GroupByResult {
  storage::DeviceColumn keys;       ///< same type as input keys
  storage::DeviceColumn aggregate;  ///< kFloat64 for sum/min/max, kInt64 count
  size_t num_groups = 0;
};

/// Thrown when an operator has no realization in a library (Table II "-"),
/// e.g. hash join in all three libraries.
class UnsupportedOperator : public std::runtime_error {
 public:
  UnsupportedOperator(const std::string& backend, DbOperator op)
      : std::runtime_error("operator '" + std::string(DbOperatorName(op)) +
                           "' is not supported by backend '" + backend + "'") {
  }
};

/// A pluggable library binding realizing the Table II operator set.
class Backend {
 public:
  virtual ~Backend() = default;

  /// Library name as in the paper ("Thrust", "Boost.Compute", "ArrayFire",
  /// "Handwritten").
  virtual std::string name() const = 0;

  /// The stream all of this backend's work is charged to: the instance's
  /// own, on the device that was current when it was constructed.
  virtual gpusim::Stream& stream() = 0;

  /// Table II entry for `op`.
  virtual OperatorRealization Realization(DbOperator op) const = 0;

  // -- Selection ----------------------------------------------------------

  /// Single-predicate selection; returns matching row ids.
  virtual SelectionResult Select(const storage::DeviceColumn& column,
                                 const Predicate& pred) = 0;

  /// Conjunctive selection over per-column predicates (pred[i] applies to
  /// columns[i]); all must hold.
  virtual SelectionResult SelectConjunctive(
      const std::vector<const storage::DeviceColumn*>& columns,
      const std::vector<Predicate>& preds) = 0;

  /// Disjunctive selection; any predicate may hold.
  virtual SelectionResult SelectDisjunctive(
      const std::vector<const storage::DeviceColumn*>& columns,
      const std::vector<Predicate>& preds) = 0;

  /// Column-vs-column selection: row ids where `a[i] <op> b[i]` (same-typed
  /// columns). Used for e.g. TPC-H Q4's l_commitdate < l_receiptdate.
  virtual SelectionResult SelectCompareColumns(const storage::DeviceColumn& a,
                                               CompareOp op,
                                               const storage::DeviceColumn& b) = 0;

  // -- Joins ---------------------------------------------------------------

  /// Equi-join via nested loops (the only join all libraries can express).
  /// Keys must be kInt32.
  virtual JoinResult NestedLoopsJoin(const storage::DeviceColumn& left_keys,
                                     const storage::DeviceColumn& right_keys) = 0;

  /// Hash equi-join (left side unique keys). Libraries lack hashing; only
  /// the handwritten backend overrides this.
  virtual JoinResult HashJoin(const storage::DeviceColumn& left_keys,
                              const storage::DeviceColumn& right_keys) {
    (void)right_keys;
    (void)left_keys;
    throw UnsupportedOperator(name(), DbOperator::kHashJoin);
  }

  /// Sort-merge join; unsupported everywhere (Table II).
  virtual JoinResult MergeJoin(const storage::DeviceColumn& left_keys,
                               const storage::DeviceColumn& right_keys) {
    (void)right_keys;
    (void)left_keys;
    throw UnsupportedOperator(name(), DbOperator::kMergeJoin);
  }

  // -- Aggregation ---------------------------------------------------------

  /// Grouped aggregation of `values` by kInt32 `keys` (arbitrary key order;
  /// backends sort or hash as their library dictates). kCount ignores
  /// `values`' contents.
  virtual GroupByResult GroupByAggregate(const storage::DeviceColumn& keys,
                                         const storage::DeviceColumn& values,
                                         AggOp op) = 0;

  /// Full-column reduction; result as double (count as exact integer value).
  virtual double ReduceColumn(const storage::DeviceColumn& values,
                              AggOp op) = 0;

  // -- Sorting -------------------------------------------------------------

  /// Ascending sort; returns a new sorted column.
  virtual storage::DeviceColumn Sort(const storage::DeviceColumn& column) = 0;

  /// Key-value sort; returns (sorted keys, reordered values).
  virtual std::pair<storage::DeviceColumn, storage::DeviceColumn> SortByKey(
      const storage::DeviceColumn& keys,
      const storage::DeviceColumn& values) = 0;

  /// Distinct values, ascending (duplicate elimination; sorts internally).
  /// Used to realize semi-joins (e.g. TPC-H Q4's EXISTS).
  virtual storage::DeviceColumn Unique(const storage::DeviceColumn& column) = 0;

  // -- Parallel primitives (materialization) --------------------------------

  /// Exclusive prefix sum.
  virtual storage::DeviceColumn PrefixSum(
      const storage::DeviceColumn& column) = 0;

  /// out[i] = src[indices[i]]; indices kInt32.
  virtual storage::DeviceColumn Gather(const storage::DeviceColumn& src,
                                       const storage::DeviceColumn& indices) = 0;

  /// out[indices[i]] = src[i]; out has out_size rows (zero-initialized).
  virtual storage::DeviceColumn Scatter(const storage::DeviceColumn& src,
                                        const storage::DeviceColumn& indices,
                                        size_t out_size) = 0;

  /// Element-wise product (projection arithmetic), same-typed columns.
  virtual storage::DeviceColumn Product(const storage::DeviceColumn& a,
                                        const storage::DeviceColumn& b) = 0;

  /// out[i] = a[i] + alpha (projection arithmetic, e.g. 1 + l_tax).
  virtual storage::DeviceColumn AddScalar(const storage::DeviceColumn& a,
                                          double alpha) = 0;

  /// out[i] = alpha - a[i] (projection arithmetic, e.g. 1 - l_discount).
  virtual storage::DeviceColumn SubtractFromScalar(
      double alpha, const storage::DeviceColumn& a) = 0;

  // -- Encoded-domain operators --------------------------------------------
  //
  // The compressed-scan path: predicates are constant-folded into code-space
  // comparisons (RewritePredicate), the selection kernels read only the
  // encoded payload, and survivors are decoded late by GatherDecode. The
  // base-class defaults realize the library pipeline shape (flags ->
  // exclusive scan -> scatter, with the count read back over PCIe); backends
  // override to reflect their own idiom and pricing.

  /// Conjunctive selection over mixed raw/encoded scan columns. Predicates
  /// on encoded columns are evaluated in the encoded domain; nothing is
  /// decoded.
  virtual SelectionResult SelectConjunctiveEncoded(
      const std::vector<ScanColumnRef>& columns,
      const std::vector<Predicate>& preds);

  /// Column-vs-column selection where either side may be encoded (e.g. Q4's
  /// l_commitdate < l_receiptdate with both dates frame-of-reference
  /// encoded: the comparison folds to pa + (refA - refB) vs pb in int64).
  virtual SelectionResult SelectCompareColumnsEncoded(const ScanColumnRef& a,
                                                      CompareOp op,
                                                      const ScanColumnRef& b);

  /// Late materialization: out[i] = decode(src[indices[i]]). Reads only the
  /// codes (or RLE runs, via binary search) for the surviving rows.
  virtual storage::DeviceColumn GatherDecode(
      const storage::EncodedDeviceColumn& src,
      const storage::DeviceColumn& indices);

  /// Full decode of an encoded column to its logical type (the fallback for
  /// operators with no encoded-domain realization, e.g. a join build side).
  virtual storage::DeviceColumn DecodeColumn(
      const storage::EncodedDeviceColumn& src);

  /// Encoded-domain reduction. RLE sums run as one pass over the runs
  /// (sum += value * run_length); dictionary min/max touch only the
  /// dictionary. Falls back to DecodeColumn + ReduceColumn where no
  /// encoded-domain shortcut exists.
  virtual double ReduceEncoded(const storage::EncodedDeviceColumn& values,
                               AggOp op);

  /// Grouped aggregation whose keys never decode: group codes are read
  /// straight from the packed payload for the selected rows (`rows.row_ids`
  /// aligned with `values`), and each output group carries the decoded key
  /// value. Realizations over a small dense code domain may return EVERY
  /// code as a group, including ones absent from the selection (identity
  /// aggregate, zero count) — callers must treat absent and empty groups
  /// alike. The default decodes the surviving keys (one gather-decode
  /// kernel) and runs the ordinary grouped aggregation.
  virtual GroupByResult GroupByAggregateEncoded(
      const storage::EncodedDeviceColumn& keys, const SelectionResult& rows,
      const storage::DeviceColumn& values, AggOp op);

 protected:
  /// Per-operator hook the defaults call once before launching encoded
  /// kernels; backends charge their library's fixed costs here (OpenCL
  /// program compiles, lazy-JIT graph nodes). `kernels` is the number of
  /// device kernels the default pipeline will launch for the op.
  virtual void EncodedOpPrologue(const char* op, int kernels) {
    (void)op;
    (void)kernels;
  }
};

}  // namespace core

#endif  // CORE_BACKEND_H_
