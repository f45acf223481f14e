#include "serve/session.h"

#include <utility>

#include "core/registry.h"
#include "tpch/datagen.h"

namespace serve {
namespace {

// Uploads on a backend that lives only for this call: the residency's
// buffers hold their Device, never the stream that filled them.
std::shared_ptr<const plan::ResidentTpchTables> Upload(
    const CatalogOptions& options, gpusim::Device& device,
    const HostTables& tables) {
  gpusim::Device::DeviceGuard guard(device);  // the stream binds to it
  const std::unique_ptr<core::Backend> backend =
      core::BackendRegistry::Instance().Create(options.backend);
  return plan::MakeResident(backend->stream(), tables.view(),
                            options.use_encoding);
}

}  // namespace

PlanSlots::PlanSlots(std::shared_ptr<const plan::ResidentTpchTables> resident,
                     std::string backend)
    : resident_(std::move(resident)),
      backend_(std::move(backend)),
      slots_(plan::QueryTable().size()) {}

std::shared_ptr<const plan::PreparedTpchQuery> PlanSlots::Get(
    plan::TpchQuery query, bool* prepared) {
  *prepared = false;
  Slot& slot = slots_[static_cast<size_t>(query)];  // table is in enum order
  if (!slot.filled.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(slot.mu);
    if (!slot.filled.load(std::memory_order_relaxed)) {
      slot.plan = plan::PrepareTpchQuery({query, resident_->encoded}, resident_,
                                         backend_);
      slot.filled.store(true, std::memory_order_release);
      *prepared = true;
    }
  }
  return slot.plan;
}

size_t PlanSlots::size() const {
  size_t filled = 0;
  for (const Slot& slot : slots_) filled += slot.filled.load() ? 1 : 0;
  return filled;
}

plan::TpchHostTables HostTables::view() const {
  plan::TpchHostTables t;
  t.lineitem = &lineitem;
  t.orders = &orders;
  t.customer = &customer;
  t.part = &part;
  return t;
}

std::shared_ptr<const HostTables> GenerateHostTables(double scale_factor,
                                                     uint64_t seed) {
  tpch::Config config;
  config.scale_factor = scale_factor;
  config.seed = seed;
  auto tables = std::make_shared<HostTables>();
  tables->scale_factor = scale_factor;
  tables->lineitem = tpch::GenerateLineitem(config);
  tables->orders = tpch::GenerateOrders(config);
  tables->customer = tpch::GenerateCustomer(config);
  tables->part = tpch::GeneratePart(config);
  return tables;
}

ResidentCatalog::ResidentCatalog(CatalogOptions options)
    : options_(std::move(options)), device_(gpusim::Device::Current()) {
  current_.host = GenerateHostTables(options_.scale_factor, options_.seed);
  current_.resident = Upload(options_, device_, *current_.host);
  current_.plans = std::make_shared<PlanSlots>(current_.resident,
                                               options_.backend);
}

CatalogSnapshot ResidentCatalog::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_;
}

std::shared_ptr<const plan::ResidentTpchTables> ResidentCatalog::resident()
    const {
  return snapshot().resident;
}

plan::TpchHostTables ResidentCatalog::host() const {
  return snapshot().host->view();
}

uint64_t ResidentCatalog::generation() const { return snapshot().generation; }

void ResidentCatalog::Refresh(std::shared_ptr<const HostTables> tables) {
  std::lock_guard<std::mutex> refresh(refresh_mu_);
  CatalogSnapshot next = snapshot();
  next.host = std::move(tables);
  // Upload outside mu_: readers keep taking snapshots throughout, and an
  // upload that throws leaves the catalog as it was.
  next.resident = Upload(options_, device_, *next.host);
  next.plans = std::make_shared<PlanSlots>(next.resident, options_.backend);
  ++next.generation;
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::swap(current_, next);
  }
  // `next` now holds the replaced snapshot; whatever of it no reader still
  // holds is freed here, outside mu_.
}

}  // namespace serve
