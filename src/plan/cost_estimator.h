// Per-backend operator cost estimates for the plan optimizer.
//
// Each estimate mirrors the command sequence the named backend's binding
// actually issues for the operator (kernels, host<->device transfers,
// program compiles) and prices it with the same gpusim::CostModel the
// simulator charges at run time, under the backend's ApiProfile (CUDA-style
// for Thrust/ArrayFire/Handwritten, OpenCL-style for Boost.Compute). The
// estimates drive per-operator backend dispatch; they do not need to be
// exact, but they must preserve the orderings the paper measured (e.g.
// hand-written fused selection beats transform+scan+scatter chains, nested
// loops explode quadratically, OpenCL pays per-program compiles).
#ifndef PLAN_COST_ESTIMATOR_H_
#define PLAN_COST_ESTIMATOR_H_

#include <cstdint>
#include <string>

#include "gpusim/device.h"
#include "plan/ir.h"

namespace plan {

/// ArrayFire-style lazy-JIT bookkeeping overhead per expression node
/// (mirrors afsim::kJitNodeOverheadNs).
inline constexpr uint64_t kAfJitNodeOverheadNs = 700;

class CostEstimator {
 public:
  explicit CostEstimator(gpusim::Device& device = gpusim::Device::Default())
      : model_(&device.cost_model()) {}

  /// API profile a backend's stream runs under ("Boost.Compute" is
  /// OpenCL-style, everything else CUDA-style).
  static gpusim::ApiProfile ProfileFor(const std::string& backend);

  // -- Operator estimates ---------------------------------------------------
  // n: input rows; m: estimated output rows; *_bytes: bytes per element.

  /// Single- or multi-predicate selection; pred_bytes_per_row sums the
  /// predicate columns' element sizes.
  uint64_t Select(const std::string& b, size_t n, size_t m,
                  uint64_t pred_bytes_per_row, size_t num_preds) const;

  uint64_t SelectCompare(const std::string& b, size_t n, size_t m,
                         uint64_t elem_bytes) const;

  uint64_t Gather(const std::string& b, size_t m, uint64_t elem_bytes) const;

  /// Late-materializing gather out of an encoded base column
  /// (Backend::GatherDecode): reads the packed payload per survivor, pays
  /// per-element decode arithmetic, writes decoded values. Pricing this —
  /// instead of assuming encoded == raw — is what lets dispatch weigh an
  /// encoded scan's cheaper selection against its decode tail.
  uint64_t GatherDecode(const std::string& b, size_t m,
                        uint64_t encoded_elem_bytes,
                        uint64_t decoded_elem_bytes) const;

  /// Full-column decode (Backend::DecodeColumn), charged when an encoded
  /// scan feeds an operator with no encoded-domain realization. The executor
  /// caches the decode per column; the estimator prices it per consuming
  /// node (a deliberate over-bound, like the footprint estimator's).
  uint64_t DecodeColumn(const std::string& b, size_t n,
                        uint64_t encoded_bytes,
                        uint64_t decoded_bytes) const;

  /// Element-wise arithmetic with `inputs` (1 or 2) input columns.
  uint64_t Map(const std::string& b, size_t n, uint64_t elem_bytes,
               int inputs) const;

  uint64_t Join(const std::string& b, JoinAlgo algo, size_t n_build,
                size_t n_probe, size_t m) const;

  uint64_t GroupBy(const std::string& b, size_t n, size_t groups,
                   uint64_t val_bytes) const;

  uint64_t Reduce(const std::string& b, size_t n, uint64_t elem_bytes) const;

  uint64_t Sort(const std::string& b, size_t n, uint64_t elem_bytes) const;

  uint64_t SortByKey(const std::string& b, size_t n, uint64_t key_bytes,
                     uint64_t val_bytes) const;

  uint64_t Unique(const std::string& b, size_t n, size_t m,
                  uint64_t elem_bytes) const;

  uint64_t FetchGroups(const std::string& b, size_t groups,
                       uint64_t agg_bytes) const;

  uint64_t FetchPair(const std::string& b, size_t n) const;

  /// Fused rewrites always run as handwritten CUDA kernels.
  uint64_t FusedMap(size_t n) const;
  uint64_t FusedFilterSum(size_t n, uint64_t bytes_per_row) const;

  /// Materialization cost charged when a node consumes a column produced by
  /// a different backend: a device-to-device copy on the consumer's profile.
  uint64_t BoundaryTransfer(const std::string& consumer,
                            uint64_t bytes) const;

 private:
  uint64_t K(const gpusim::ApiProfile& api, uint64_t read, uint64_t written,
             uint64_t ops = 0, uint64_t serial_ns = 0) const;
  uint64_t D2H(const gpusim::ApiProfile& api, uint64_t bytes) const;
  uint64_t D2D(const gpusim::ApiProfile& api, uint64_t bytes) const;
  /// One OpenCL program build when the profile compiles at run time.
  uint64_t Compile(const gpusim::ApiProfile& api) const {
    return api.program_compile_ns;
  }

  const gpusim::CostModel* model_;
};

}  // namespace plan

#endif  // PLAN_COST_ESTIMATOR_H_
