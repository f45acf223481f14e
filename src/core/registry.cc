#include "core/registry.h"

#include <stdexcept>

namespace core {

BackendRegistry& BackendRegistry::Instance() {
  static BackendRegistry* registry = new BackendRegistry();
  return *registry;
}

bool BackendRegistry::Register(const std::string& name,
                               BackendFactory factory) {
  if (Contains(name)) return false;
  factories_.emplace_back(name, std::move(factory));
  return true;
}

std::unique_ptr<Backend> BackendRegistry::Create(const std::string& name) const {
  for (const auto& [n, factory] : factories_) {
    if (n == name) return factory();
  }
  throw std::out_of_range("BackendRegistry: unknown backend '" + name + "'");
}

bool BackendRegistry::Contains(const std::string& name) const {
  for (const auto& [n, factory] : factories_) {
    if (n == name) return true;
  }
  return false;
}

std::vector<std::string> BackendRegistry::Names() const {
  std::vector<std::string> out;
  out.reserve(factories_.size());
  for (const auto& [n, factory] : factories_) out.push_back(n);
  return out;
}

OperatorRealization BackendRegistry::Realization(const std::string& name,
                                                 DbOperator op) const {
  std::lock_guard<std::mutex> lock(realizations_mu_);
  auto it = realizations_.find(name);
  if (it == realizations_.end()) {
    const std::unique_ptr<Backend> backend = Create(name);
    std::map<DbOperator, OperatorRealization> table;
    for (const DbOperator o : AllDbOperators()) {
      table[o] = backend->Realization(o);
    }
    it = realizations_.emplace(name, std::move(table)).first;
  }
  return it->second.at(op);
}

}  // namespace core
