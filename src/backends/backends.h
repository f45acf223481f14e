// Factories for the built-in library backends.
#ifndef BACKENDS_BACKENDS_H_
#define BACKENDS_BACKENDS_H_

#include <memory>

#include "core/backend.h"

namespace backends {

/// Thrust binding: eager CUDA-style execution, one kernel per algorithm call.
std::unique_ptr<core::Backend> CreateThrustBackend();

/// Boost.Compute binding: OpenCL-style execution with run-time program
/// compilation. Each instance owns a fresh context (cold program cache).
std::unique_ptr<core::Backend> CreateBoostComputeBackend();

/// ArrayFire binding: lazy arrays with JIT fusion of element-wise chains.
std::unique_ptr<core::Backend> CreateArrayFireBackend();

/// Handwritten binding: fused custom kernels, hash join, hash aggregation.
std::unique_ptr<core::Backend> CreateHandwrittenBackend();

/// Canonical registry names.
inline constexpr const char* kThrust = "Thrust";
inline constexpr const char* kBoostCompute = "Boost.Compute";
inline constexpr const char* kArrayFire = "ArrayFire";
inline constexpr const char* kHandwritten = "Handwritten";

}  // namespace backends

#endif  // BACKENDS_BACKENDS_H_
