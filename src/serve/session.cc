#include "serve/session.h"

#include <utility>

#include "core/registry.h"

namespace serve {

ResidentCatalog::ResidentCatalog(CatalogOptions options)
    : options_(std::move(options)),
      backend_(core::BackendRegistry::Instance().Create(options_.backend)) {
  Generate();
  resident_ =
      plan::MakeResident(backend_->stream(), host(), options_.use_encoding);
}

plan::TpchHostTables ResidentCatalog::host() const {
  plan::TpchHostTables t;
  t.lineitem = &lineitem_;
  t.orders = &orders_;
  t.customer = &customer_;
  t.part = &part_;
  return t;
}

CatalogSnapshot ResidentCatalog::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {resident_, generation_};
}

std::shared_ptr<const plan::ResidentTpchTables> ResidentCatalog::resident()
    const {
  return snapshot().resident;
}

uint64_t ResidentCatalog::generation() const { return snapshot().generation; }

void ResidentCatalog::Reload(double scale_factor) {
  options_.scale_factor = scale_factor;
  Generate();
  std::shared_ptr<const plan::ResidentTpchTables> fresh =
      plan::MakeResident(backend_->stream(), host(), options_.use_encoding);
  std::lock_guard<std::mutex> lock(mu_);
  resident_ = std::move(fresh);
  ++generation_;
}

void ResidentCatalog::Rebalance(gpusim::Device* device) {
  // Build the new upload backend on the target device (the backend's stream
  // binds to the thread's current device at construction).
  std::unique_ptr<core::Backend> fresh;
  if (device != nullptr) {
    gpusim::Device::DeviceGuard guard(*device);
    fresh = core::BackendRegistry::Instance().Create(options_.backend);
  } else {
    fresh = core::BackendRegistry::Instance().Create(options_.backend);
  }
  // Upload outside the lock: queries read snapshot() throughout, and the
  // host tables are untouched, so nothing here needs the server to drain.
  std::shared_ptr<const plan::ResidentTpchTables> uploaded =
      plan::MakeResident(fresh->stream(), host(), options_.use_encoding);
  std::lock_guard<std::mutex> lock(mu_);
  retired_backends_.push_back(std::move(backend_));
  backend_ = std::move(fresh);
  resident_ = std::move(uploaded);
  ++generation_;
}

void ResidentCatalog::Generate() {
  tpch::Config config;
  config.scale_factor = options_.scale_factor;
  config.seed = options_.seed;
  lineitem_ = tpch::GenerateLineitem(config);
  orders_ = tpch::GenerateOrders(config);
  customer_ = tpch::GenerateCustomer(config);
  part_ = tpch::GeneratePart(config);
}

}  // namespace serve
