// Backend registry: the plug-in point of the framework.
//
// Library bindings register a named factory at static-initialization time
// (or tests/examples register custom ones at run time); benchmarks, the
// support-matrix tool, and queries instantiate backends by name.
#ifndef CORE_REGISTRY_H_
#define CORE_REGISTRY_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/backend.h"

namespace core {

using BackendFactory = std::function<std::unique_ptr<Backend>()>;

/// Global name -> factory map. Thread-compatible (registration happens
/// before concurrent use).
class BackendRegistry {
 public:
  static BackendRegistry& Instance();

  /// Registers a factory; returns false (and ignores the call) if the name
  /// is taken.
  bool Register(const std::string& name, BackendFactory factory);

  /// Instantiates a backend; throws std::out_of_range for unknown names.
  std::unique_ptr<Backend> Create(const std::string& name) const;

  bool Contains(const std::string& name) const;

  /// Registered names in registration order.
  std::vector<std::string> Names() const;

  /// Table II entry for `op` of the backend registered as `name`. The
  /// first call for a name reads every entry from one instance and keeps
  /// them for the life of the process, so a caller that only asks what a
  /// backend supports (the optimizer) creates no backend, and so no stream,
  /// per call. Throws std::out_of_range for unknown names. Safe to call
  /// concurrently.
  OperatorRealization Realization(const std::string& name,
                                  DbOperator op) const;

 private:
  std::vector<std::pair<std::string, BackendFactory>> factories_;
  mutable std::mutex realizations_mu_;
  mutable std::map<std::string, std::map<DbOperator, OperatorRealization>>
      realizations_;
};

/// Registers the four built-in backends (Thrust, Boost.Compute, ArrayFire,
/// Handwritten). Idempotent. Called by tools/benches/tests on startup.
void RegisterBuiltinBackends();

}  // namespace core

#endif  // CORE_REGISTRY_H_
