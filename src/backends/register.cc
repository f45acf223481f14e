// Registration of the built-in backends with the framework registry.
#include "backends/backends.h"
#include "core/registry.h"

namespace core {

void RegisterBuiltinBackends() {
  auto& registry = BackendRegistry::Instance();
  registry.Register(backends::kThrust, backends::CreateThrustBackend);
  registry.Register(backends::kBoostCompute,
                    backends::CreateBoostComputeBackend);
  registry.Register(backends::kArrayFire, backends::CreateArrayFireBackend);
  registry.Register(backends::kHandwritten,
                    backends::CreateHandwrittenBackend);
}

}  // namespace core
