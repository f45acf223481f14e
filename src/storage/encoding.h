// Lightweight per-column encodings: dictionary, run-length, bit-packing,
// and frame-of-reference.
//
// The encoder follows mapd-core's NoneEncoder shape: a column is analyzed
// once on the host, encoded at upload time, and the device sees only the
// encoded buffer plus a small metadata block. All four schemes are
// order-preserving on the encoded domain, which is what lets the hot scan
// paths rewrite predicates into encoded-space comparisons and decode only
// the surviving rows (see core::Backend::SelectConjunctiveEncoded).
//
// Encoded layouts (all bit-packed streams are little-endian within 64-bit
// words, lowest bit first):
//   kBitPack     value = packed code            (non-negative ints)
//   kFor         value = reference + packed code (frame-of-reference)
//   kDictionary  value = dict[packed code], dict sorted ascending
//   kRle         runs of (value, cumulative end row), int32 values only
#ifndef STORAGE_ENCODING_H_
#define STORAGE_ENCODING_H_

#include <cstdint>
#include <vector>

#include "storage/column.h"

namespace storage {

enum class Encoding {
  kNone,        ///< raw typed values
  kDictionary,  ///< sorted dictionary + bit-packed codes
  kRle,         ///< run-length: values[] + cumulative run ends[]
  kBitPack,     ///< bit-packed non-negative integers (FOR with reference 0)
  kFor,         ///< frame-of-reference + bit-packed deltas
};

const char* EncodingName(Encoding e);

// ---------------------------------------------------------------------------
// Bit packing primitives (shared by kBitPack / kFor / kDictionary codes)
// ---------------------------------------------------------------------------

/// Number of 64-bit words needed to hold n codes of `bits` bits each.
inline size_t PackedWordCount(size_t n, unsigned bits) {
  return (n * bits + 63) / 64;
}

/// Smallest width able to represent `max_code` (at least 1 bit).
unsigned BitsForMax(uint64_t max_code);

/// Packs codes little-endian into 64-bit words. `out` must hold
/// PackedWordCount(n, bits) words and be zero-initialized by the caller.
void PackBits(const uint64_t* codes, size_t n, unsigned bits, uint64_t* out);

/// Extracts code i from a packed stream.
inline uint64_t UnpackBit(const uint64_t* words, unsigned bits, size_t i) {
  const size_t bit = i * bits;
  const size_t w = bit >> 6;
  const unsigned off = static_cast<unsigned>(bit & 63);
  const uint64_t mask = bits == 64 ? ~uint64_t{0} : ((uint64_t{1} << bits) - 1);
  uint64_t v = words[w] >> off;
  if (off + bits > 64) v |= words[w + 1] << (64 - off);
  return v & mask;
}

/// Unpacks codes [begin, end) into out[0, end - begin). Whole groups of 64
/// codes, which start on a word boundary, unpack with the width fixed at
/// compile time (widths up to 32); codes off a 64-code boundary and wider
/// codes go through UnpackBit.
void UnpackBits(const uint64_t* words, unsigned bits, size_t begin,
                size_t end, uint64_t* out);

// ---------------------------------------------------------------------------
// Column statistics and encoding selection
// ---------------------------------------------------------------------------

/// One pass of lightweight statistics driving encoding selection.
struct ColumnStats {
  bool is_float = false;     ///< f32/f64 column (int stats meaningless)
  int64_t min_i = 0;         ///< integer min (int columns only)
  int64_t max_i = 0;         ///< integer max (int columns only)
  size_t distinct = 0;       ///< distinct values, capped at kMaxDictSize+1
  size_t runs = 0;           ///< number of equal-value runs
  bool monotonic = false;    ///< nondecreasing front to back
};

/// Distinct-value cap for dictionary encoding (2^16 entries).
constexpr size_t kMaxDictSize = 1u << 16;

ColumnStats AnalyzeColumn(const Column& column);

/// The outcome of encoding selection: what to use and what it will cost.
/// encoded_bytes is computable from stats alone (no packing required), which
/// is what lets EstimateQueryFootprint price encoded uploads before any data
/// moves.
struct EncodingChoice {
  Encoding encoding = Encoding::kNone;
  unsigned bit_width = 0;      ///< code width for packed schemes
  int64_t reference = 0;       ///< FOR frame base
  uint64_t encoded_bytes = 0;  ///< total device bytes after encoding
};

/// Picks the cheapest applicable encoding for a column of n rows, or kNone
/// when nothing beats the raw layout. Monotonic int columns with an average
/// run length >= 2 prefer RLE even when bit-packing is narrower: RLE keeps
/// random access O(log runs) AND gives run-level aggregation, the encoded-
/// domain operation the scan paths exploit.
EncodingChoice ChooseEncoding(const ColumnStats& stats, size_t n,
                              DataType type);

// ---------------------------------------------------------------------------
// Host-side encoded column (encode before upload, decode for verification)
// ---------------------------------------------------------------------------

/// An encoded column in host memory, ready for upload.
struct EncodedColumn {
  Encoding encoding = Encoding::kNone;
  DataType type = DataType::kInt32;  ///< decoded (logical) type
  size_t size = 0;                   ///< logical row count
  unsigned bit_width = 0;
  int64_t reference = 0;

  std::vector<uint64_t> words;    ///< bit-packed codes (pack/for/dict)
  std::vector<double> dict_f64;   ///< dictionary, sorted ascending (floats)
  std::vector<int64_t> dict_i64;  ///< dictionary, sorted ascending (ints)
  std::vector<int32_t> rle_values;
  std::vector<uint32_t> rle_ends;  ///< cumulative run end rows

  uint64_t encoded_byte_size() const;
  uint64_t raw_byte_size() const { return size * DataTypeSize(type); }
};

/// Encodes per `choice` (pass ChooseEncoding's result, or force a scheme for
/// testing). Throws std::invalid_argument if the scheme cannot represent the
/// column.
EncodedColumn EncodeColumn(const Column& column, const EncodingChoice& choice);

/// Convenience: analyze + choose + encode in one call.
EncodedColumn EncodeColumn(const Column& column);

/// Full decode back to a host column (round-trip testing / verification).
Column DecodeColumnHost(const EncodedColumn& encoded);

}  // namespace storage

#endif  // STORAGE_ENCODING_H_
