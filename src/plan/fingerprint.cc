#include "plan/fingerprint.h"

#include "storage/encoded_column.h"

namespace plan {
namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

uint64_t FnvBytes(uint64_t h, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

uint64_t FnvU64(uint64_t h, uint64_t v) { return FnvBytes(h, &v, sizeof(v)); }

uint64_t FnvStr(uint64_t h, const std::string& s) {
  h = FnvU64(h, s.size());
  return FnvBytes(h, s.data(), s.size());
}

}  // namespace

uint64_t QueryShapeHash(const QueryShape& shape) {
  uint64_t h = kFnvOffset;
  h = FnvU64(h, static_cast<uint64_t>(shape.query));
  h = FnvU64(h, shape.use_encoding ? 1 : 0);
  return h;
}

uint64_t TableStatsFingerprint(const storage::Table& host,
                               const storage::DeviceTable& resident) {
  uint64_t h = kFnvOffset;
  h = FnvStr(h, host.name());
  h = FnvU64(h, host.num_rows());
  for (const std::string& name : host.column_names()) {
    h = FnvStr(h, name);
    h = FnvU64(h, static_cast<uint64_t>(host.column(name).type()));
    if (resident.HasEncoded(name)) {
      const storage::EncodedDeviceColumn& enc = resident.encoded(name);
      h = FnvU64(h, static_cast<uint64_t>(enc.encoding));
      h = FnvU64(h, enc.bit_width);
      h = FnvU64(h, enc.encoded_bytes);
      h = FnvU64(h, enc.size);
    } else if (resident.HasColumn(name)) {
      h = FnvU64(h, 0);  // raw residency
      h = FnvU64(h, resident.column(name).size());
    }
  }
  return h;
}

uint64_t CombineFingerprint(uint64_t seed, uint64_t value) {
  return FnvU64(seed == 0 ? kFnvOffset : seed, value);
}

size_t PlanCacheKeyHash::operator()(const PlanCacheKey& k) const {
  uint64_t h = kFnvOffset;
  h = FnvU64(h, k.shape_hash);
  h = FnvU64(h, k.stats_fingerprint);
  h = FnvStr(h, k.backend);
  h = FnvU64(h, k.generation);
  return static_cast<size_t>(h);
}

}  // namespace plan
