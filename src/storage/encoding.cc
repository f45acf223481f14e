#include "storage/encoding.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <utility>

namespace storage {
namespace {

bool IsFloatType(DataType t) {
  return t == DataType::kFloat64 || t == DataType::kFloat32;
}

/// Applies `fn(const std::vector<T>&)` to the column's typed storage.
template <typename Fn>
void VisitColumn(const Column& column, Fn&& fn) {
  switch (column.type()) {
    case DataType::kInt32: fn(column.values<int32_t>()); break;
    case DataType::kInt64: fn(column.values<int64_t>()); break;
    case DataType::kFloat64: fn(column.values<double>()); break;
    case DataType::kFloat32: fn(column.values<float>()); break;
  }
}

template <typename T>
size_t CountDistinctCapped(const std::vector<T>& v, size_t cap) {
  std::unordered_set<T> seen;
  for (const T& x : v) {
    seen.insert(x);
    if (seen.size() > cap) return cap + 1;
  }
  return seen.size();
}

/// Sorted distinct values of v; empty when there are more than cap.
template <typename T>
std::vector<T> SortedDict(const std::vector<T>& v, size_t cap) {
  std::unordered_set<T> seen;
  for (const T& x : v) {
    seen.insert(x);
    if (seen.size() > cap) return {};
  }
  std::vector<T> dict(seen.begin(), seen.end());
  std::sort(dict.begin(), dict.end());
  return dict;
}

template <typename T>
void PackValueCodes(const std::vector<T>& v, int64_t reference, unsigned bits,
                    std::vector<uint64_t>* words) {
  std::vector<uint64_t> codes(v.size());
  for (size_t i = 0; i < v.size(); ++i) {
    const int64_t x = static_cast<int64_t>(v[i]);
    if (x < reference) {
      throw std::invalid_argument(
          "EncodeColumn: value below frame-of-reference base");
    }
    codes[i] = static_cast<uint64_t>(x - reference);
  }
  words->assign(PackedWordCount(v.size(), bits), 0);
  PackBits(codes.data(), v.size(), bits, words->data());
}

template <typename T>
void PackDictCodes(const std::vector<T>& v, const std::vector<T>& dict,
                   unsigned bits, std::vector<uint64_t>* words) {
  std::vector<uint64_t> codes(v.size());
  for (size_t i = 0; i < v.size(); ++i) {
    const auto it = std::lower_bound(dict.begin(), dict.end(), v[i]);
    if (it == dict.end() || *it != v[i]) {
      throw std::invalid_argument("EncodeColumn: value missing from dict");
    }
    codes[i] = static_cast<uint64_t>(it - dict.begin());
  }
  words->assign(PackedWordCount(v.size(), bits), 0);
  PackBits(codes.data(), v.size(), bits, words->data());
}

}  // namespace

const char* EncodingName(Encoding e) {
  switch (e) {
    case Encoding::kNone: return "none";
    case Encoding::kDictionary: return "dict";
    case Encoding::kRle: return "rle";
    case Encoding::kBitPack: return "bitpack";
    case Encoding::kFor: return "for";
  }
  return "?";
}

unsigned BitsForMax(uint64_t max_code) {
  unsigned bits = 1;
  while (bits < 64 && (max_code >> bits) != 0) ++bits;
  return bits;
}

void PackBits(const uint64_t* codes, size_t n, unsigned bits, uint64_t* out) {
  const uint64_t mask =
      bits == 64 ? ~uint64_t{0} : ((uint64_t{1} << bits) - 1);
  for (size_t i = 0; i < n; ++i) {
    const uint64_t c = codes[i] & mask;
    const size_t bit = i * bits;
    const size_t w = bit >> 6;
    const unsigned off = static_cast<unsigned>(bit & 63);
    out[w] |= c << off;
    if (off + bits > 64) out[w + 1] |= c >> (64 - off);
  }
}

namespace {

/// Unpacks one group of 64 B-bit codes, which fills words w[0, B): every
/// word index, shift and straddle is a compile-time constant.
template <unsigned B, size_t... K>
void UnpackGroup(const uint64_t* w, uint64_t* out,
                 std::index_sequence<K...>) {
  constexpr uint64_t kMask = (uint64_t{1} << B) - 1;
  const auto code = [w](auto k) {
    constexpr size_t kBit = decltype(k)::value * B;
    constexpr unsigned kOff = kBit % 64;
    uint64_t v = w[kBit / 64] >> kOff;
    if constexpr (kOff + B > 64) v |= w[kBit / 64 + 1] << (64 - kOff);
    return v & kMask;
  };
  ((out[K] = code(std::integral_constant<size_t, K>{})), ...);
}

/// Unpacks groups [first, first + groups) of 64 B-bit codes.
template <unsigned B>
void UnpackGroups(const uint64_t* words, size_t first, size_t groups,
                  uint64_t* out) {
  for (size_t g = 0; g < groups; ++g) {
    UnpackGroup<B>(words + (first + g) * B, out + g * 64,
                   std::make_index_sequence<64>{});
  }
}

using GroupUnpacker = void (*)(const uint64_t*, size_t, size_t, uint64_t*);

template <size_t... I>
constexpr std::array<GroupUnpacker, sizeof...(I)> GroupUnpackers(
    std::index_sequence<I...>) {
  return {&UnpackGroups<static_cast<unsigned>(I + 1)>...};
}

/// kGroupUnpackers[b - 1] unpacks b-bit groups, b in [1, 32].
constexpr auto kGroupUnpackers =
    GroupUnpackers(std::make_index_sequence<32>{});

}  // namespace

void UnpackBits(const uint64_t* words, unsigned bits, size_t begin,
                size_t end, uint64_t* out) {
  size_t i = begin;
  const size_t first = (begin + 63) / 64;  // first whole group
  const size_t last = end / 64;            // one past the last whole group
  if (bits >= 1 && bits <= kGroupUnpackers.size() && first < last) {
    for (; i < first * 64; ++i) out[i - begin] = UnpackBit(words, bits, i);
    kGroupUnpackers[bits - 1](words, first, last - first, out + (i - begin));
    i = last * 64;
  }
  for (; i < end; ++i) out[i - begin] = UnpackBit(words, bits, i);
}

ColumnStats AnalyzeColumn(const Column& column) {
  ColumnStats stats;
  stats.is_float = IsFloatType(column.type());
  VisitColumn(column, [&](const auto& v) {
    using T = typename std::decay_t<decltype(v)>::value_type;
    if (v.empty()) return;
    stats.runs = 1;
    stats.monotonic = true;
    T lo = v[0], hi = v[0];
    for (size_t i = 1; i < v.size(); ++i) {
      if (v[i] < lo) lo = v[i];
      if (hi < v[i]) hi = v[i];
      if (v[i] != v[i - 1]) ++stats.runs;
      if (v[i] < v[i - 1]) stats.monotonic = false;
    }
    if (!stats.is_float) {
      stats.min_i = static_cast<int64_t>(lo);
      stats.max_i = static_cast<int64_t>(hi);
    }
    stats.distinct = CountDistinctCapped(v, kMaxDictSize);
  });
  return stats;
}

EncodingChoice ChooseEncoding(const ColumnStats& stats, size_t n,
                              DataType type) {
  EncodingChoice best;  // kNone
  if (n == 0) return best;
  const uint64_t raw = static_cast<uint64_t>(n) * DataTypeSize(type);
  best.encoded_bytes = raw;

  // RLE: int32 columns that arrive sorted (orderkeys) with real runs. Taken
  // outright when the runs amortize — the run-level layout is what enables
  // run-aware aggregation and O(log runs) random access, worth more to the
  // scan paths than a few bits of extra width.
  if (type == DataType::kInt32 && stats.monotonic && stats.runs > 0 &&
      n / stats.runs >= 2) {
    const uint64_t rle_bytes =
        static_cast<uint64_t>(stats.runs) * (sizeof(int32_t) +
                                             sizeof(uint32_t));
    if (rle_bytes < raw) {
      best.encoding = Encoding::kRle;
      best.encoded_bytes = rle_bytes;
      return best;
    }
  }

  // Frame-of-reference / bit-pack for integer columns.
  if (!stats.is_float &&
      (type == DataType::kInt32 || type == DataType::kInt64)) {
    const uint64_t range =
        static_cast<uint64_t>(stats.max_i - stats.min_i);
    const unsigned bits = BitsForMax(range);
    const uint64_t packed = PackedWordCount(n, bits) * sizeof(uint64_t);
    if (packed < best.encoded_bytes) {
      best.encoding =
          stats.min_i == 0 ? Encoding::kBitPack : Encoding::kFor;
      best.bit_width = bits;
      best.reference = stats.min_i;
      best.encoded_bytes = packed;
    }
  }

  // Dictionary for low-cardinality columns of any type.
  if (stats.distinct > 0 && stats.distinct <= kMaxDictSize) {
    const unsigned bits =
        BitsForMax(static_cast<uint64_t>(stats.distinct - 1));
    const uint64_t bytes = PackedWordCount(n, bits) * sizeof(uint64_t) +
                           static_cast<uint64_t>(stats.distinct) *
                               DataTypeSize(type);
    if (bytes < best.encoded_bytes) {
      best.encoding = Encoding::kDictionary;
      best.bit_width = bits;
      best.reference = 0;
      best.encoded_bytes = bytes;
    }
  }

  if (best.encoding == Encoding::kNone) best.encoded_bytes = raw;
  return best;
}

uint64_t EncodedColumn::encoded_byte_size() const {
  const size_t dict_entries = dict_f64.size() + dict_i64.size();
  return words.size() * sizeof(uint64_t) +
         static_cast<uint64_t>(dict_entries) * DataTypeSize(type) +
         rle_values.size() * sizeof(int32_t) +
         rle_ends.size() * sizeof(uint32_t);
}

EncodedColumn EncodeColumn(const Column& column,
                           const EncodingChoice& choice) {
  EncodedColumn out;
  out.encoding = choice.encoding;
  out.type = column.type();
  out.size = column.size();
  out.bit_width = choice.bit_width;
  out.reference = choice.reference;

  switch (choice.encoding) {
    case Encoding::kNone:
      throw std::invalid_argument("EncodeColumn: nothing to encode (kNone)");

    case Encoding::kBitPack:
    case Encoding::kFor:
      if (IsFloatType(column.type())) {
        throw std::invalid_argument(
            "EncodeColumn: bit-pack/FOR need integer columns");
      }
      VisitColumn(column, [&](const auto& v) {
        using T = typename std::decay_t<decltype(v)>::value_type;
        if constexpr (std::is_integral_v<T>) {
          PackValueCodes(v, choice.reference, choice.bit_width, &out.words);
        }
      });
      break;

    case Encoding::kDictionary:
      VisitColumn(column, [&](const auto& v) {
        using T = typename std::decay_t<decltype(v)>::value_type;
        auto dict = SortedDict(v, kMaxDictSize);
        if (dict.empty() && !v.empty()) {
          throw std::invalid_argument("EncodeColumn: dictionary too large");
        }
        out.bit_width = dict.empty()
                            ? 1
                            : BitsForMax(static_cast<uint64_t>(
                                  dict.size() - 1));
        PackDictCodes(v, dict, out.bit_width, &out.words);
        if constexpr (std::is_integral_v<T>) {
          out.dict_i64.assign(dict.begin(), dict.end());
        } else {
          out.dict_f64.assign(dict.begin(), dict.end());
        }
      });
      break;

    case Encoding::kRle: {
      if (column.type() != DataType::kInt32) {
        throw std::invalid_argument("EncodeColumn: RLE needs int32 columns");
      }
      const auto& v = column.values<int32_t>();
      for (size_t i = 0; i < v.size(); ++i) {
        if (out.rle_values.empty() || v[i] != out.rle_values.back()) {
          out.rle_values.push_back(v[i]);
          out.rle_ends.push_back(static_cast<uint32_t>(i + 1));
        } else {
          out.rle_ends.back() = static_cast<uint32_t>(i + 1);
        }
      }
      break;
    }
  }
  return out;
}

EncodedColumn EncodeColumn(const Column& column) {
  const EncodingChoice choice =
      ChooseEncoding(AnalyzeColumn(column), column.size(), column.type());
  if (choice.encoding == Encoding::kNone) {
    throw std::invalid_argument(
        "EncodeColumn: no encoding beats the raw layout for this column");
  }
  return EncodeColumn(column, choice);
}

Column DecodeColumnHost(const EncodedColumn& encoded) {
  const size_t n = encoded.size;
  switch (encoded.encoding) {
    case Encoding::kNone:
      throw std::invalid_argument("DecodeColumnHost: kNone has no payload");

    case Encoding::kBitPack:
    case Encoding::kFor: {
      std::vector<uint64_t> codes(n);
      UnpackBits(encoded.words.data(), encoded.bit_width, 0, n, codes.data());
      if (encoded.type == DataType::kInt64) {
        std::vector<int64_t> v(n);
        for (size_t i = 0; i < n; ++i) {
          v[i] = encoded.reference + static_cast<int64_t>(codes[i]);
        }
        return Column(std::move(v));
      }
      std::vector<int32_t> v(n);
      for (size_t i = 0; i < n; ++i) {
        v[i] = static_cast<int32_t>(encoded.reference +
                                    static_cast<int64_t>(codes[i]));
      }
      return Column(std::move(v));
    }

    case Encoding::kDictionary: {
      std::vector<uint64_t> codes(n);
      UnpackBits(encoded.words.data(), encoded.bit_width, 0, n, codes.data());
      switch (encoded.type) {
        case DataType::kInt32: {
          std::vector<int32_t> v(n);
          for (size_t i = 0; i < n; ++i) {
            v[i] = static_cast<int32_t>(encoded.dict_i64[codes[i]]);
          }
          return Column(std::move(v));
        }
        case DataType::kInt64: {
          std::vector<int64_t> v(n);
          for (size_t i = 0; i < n; ++i) v[i] = encoded.dict_i64[codes[i]];
          return Column(std::move(v));
        }
        case DataType::kFloat64: {
          std::vector<double> v(n);
          for (size_t i = 0; i < n; ++i) v[i] = encoded.dict_f64[codes[i]];
          return Column(std::move(v));
        }
        case DataType::kFloat32: {
          std::vector<float> v(n);
          for (size_t i = 0; i < n; ++i) {
            v[i] = static_cast<float>(encoded.dict_f64[codes[i]]);
          }
          return Column(std::move(v));
        }
      }
      break;
    }

    case Encoding::kRle: {
      std::vector<int32_t> v(n);
      size_t row = 0;
      for (size_t r = 0; r < encoded.rle_values.size(); ++r) {
        while (row < encoded.rle_ends[r]) v[row++] = encoded.rle_values[r];
      }
      return Column(std::move(v));
    }
  }
  throw std::invalid_argument("DecodeColumnHost: bad encoding");
}

}  // namespace storage
