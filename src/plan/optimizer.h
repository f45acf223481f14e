// Rule- and cost-based plan optimizer.
//
// Passes, in order:
//  1. Filter merging / predicate pushdown: adjacent conjunctive Filter nodes
//     (chains built from single-predicate sigmas) fold into one
//     multi-predicate node that executes as a single SelectConjunctive call —
//     the library call a chain of operator calls makes, and a prerequisite for
//     the golden timing-equivalence property of pinned plans.
//  2. Fusion rewrites (hybrid plans only): eligible Filter->Gather->Map->
//     Reduce chains become one handwritten fused filter+sum pass
//     (kFusedFilterSum), and Map(mul, a, Map(+-scalar, b)) chains become one
//     kernel (kFusedMap) — the rewrites a plan-driven layer can apply that
//     chained per-call library execution cannot.
//  3. Join-algorithm selection: kAuto joins resolve to hash join when the
//     assigned backend's Realization(kHashJoin) is not kNone, else nested
//     loops. Joins a caller forced onto nested loops stay there.
//  4. Cost-based backend dispatch: each node is assigned the candidate
//     backend minimizing estimated operator cost plus boundary
//     materialization cost (a priced device-to-device copy for every input
//     produced by a differently-assigned backend). Ties go to the earlier
//     candidate, making dispatch deterministic. Optimizing reads no health
//     state and changes none: a backend that fails at run time is routed
//     around by the executor (plan/executor.h), not by a later Optimize.
#ifndef PLAN_OPTIMIZER_H_
#define PLAN_OPTIMIZER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "plan/cost_estimator.h"
#include "plan/ir.h"

namespace plan {

struct OptimizerOptions {
  /// Pin every node to this registry backend (the golden-equivalence mode).
  /// Empty selects hybrid per-operator dispatch over `candidates`, which
  /// also applies the fusion rewrites (a pinned plan must replay the chain
  /// of library calls verbatim).
  std::string pin_backend;

  /// Dispatch candidates in preference (tie-break) order.
  std::vector<std::string> candidates = {"Handwritten", "Thrust", "ArrayFire",
                                         "Boost.Compute"};

};

/// An optimized plan: the rewritten node list plus per-node backend
/// assignment and cost estimates (indexed by node id; dead and scan nodes
/// have empty backend and zero cost).
struct PhysicalPlan {
  Plan plan;
  bool hybrid = false;
  std::vector<std::string> node_backend;
  /// Dispatch candidates the plan was optimized over (hybrid mode); the
  /// executor uses them as fallback targets when an assigned backend fails
  /// fatally at run time.
  std::vector<std::string> candidates;
  std::vector<uint64_t> est_ns;           ///< operator + boundary estimate
  std::vector<uint64_t> est_boundary_ns;  ///< boundary share of est_ns
  std::vector<size_t> est_rows;           ///< estimated output cardinality

  uint64_t total_est_ns() const {
    uint64_t t = 0;
    for (uint64_t e : est_ns) t += e;
    return t;
  }
};

/// Optimizes a logical plan. Backends named in `options` (pin or candidates)
/// must be registered with core::BackendRegistry (capability queries
/// instantiate them). Throws std::invalid_argument for unknown names.
PhysicalPlan Optimize(const Plan& logical, const OptimizerOptions& options,
                      const CostEstimator& estimator = CostEstimator());

}  // namespace plan

#endif  // PLAN_OPTIMIZER_H_
