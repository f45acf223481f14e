#include "plan/prepared.h"

#include <stdexcept>
#include <utility>

#include "plan/executor.h"
#include "plan/partition_detail.h"
#include "storage/encoded_column.h"

namespace plan {
namespace {

uint64_t ResidentBytes(const storage::Table& host,
                       const storage::DeviceTable& resident) {
  uint64_t bytes = 0;
  for (const std::string& name : host.column_names()) {
    if (resident.HasEncoded(name)) {
      bytes += resident.encoded(name).encoded_byte_size();
    } else if (resident.HasColumn(name)) {
      bytes += resident.column(name).byte_size();
    }
  }
  return bytes;
}

}  // namespace

std::shared_ptr<const ResidentTpchTables> MakeResident(
    gpusim::Stream& stream, const TpchHostTables& host, bool use_encoding) {
  if (host.lineitem == nullptr) {
    throw std::invalid_argument("MakeResident: lineitem table is required");
  }
  auto out = std::make_shared<ResidentTpchTables>();
  out->encoded = use_encoding;

  const auto upload = [&](const storage::Table& t) {
    uint64_t bytes = 0;
    storage::DeviceTable dev =
        use_encoding ? storage::UploadTableEncoded(stream, t, &bytes)
                     : storage::UploadTable(stream, t);
    if (!use_encoding) bytes = detail::HostTableBytes(t);
    out->uploaded_bytes += bytes;
    out->resident_bytes += ResidentBytes(t, dev);
    return dev;
  };

  out->lineitem = upload(*host.lineitem);
  if (host.orders != nullptr) {
    out->orders = upload(*host.orders);
    out->has_orders = true;
  }
  if (host.customer != nullptr) {
    out->customer = upload(*host.customer);
    out->has_customer = true;
  }
  if (host.part != nullptr) {
    out->part = upload(*host.part);
    out->has_part = true;
  }
  return out;
}

TpchDeviceTables ResidentTpchTables::view() const {
  TpchDeviceTables t;
  t.lineitem = &lineitem;
  if (has_orders) t.orders = &orders;
  if (has_customer) t.customer = &customer;
  if (has_part) t.part = &part;
  return t;
}

PreparedTpchQuery::PreparedTpchQuery(
    QueryShape shape, std::shared_ptr<const ResidentTpchTables> tables,
    QueryPlanBundle bundle, PhysicalPlan physical)
    : shape_(shape),
      tables_(std::move(tables)),
      bundle_(std::move(bundle)),
      physical_(std::move(physical)),
      footprint_bytes_(
          detail::FootprintOfPlan(physical_, /*include_scans=*/false)) {}

TpchQueryResult PreparedTpchQuery::Run(core::Backend& backend) const {
  return FinalizeRun(shape_.query, bundle_, RunPinned(physical_, backend));
}

std::shared_ptr<const PreparedTpchQuery> PrepareTpchQuery(
    const QueryShape& shape,
    std::shared_ptr<const ResidentTpchTables> tables,
    const std::string& backend_name) {
  if (tables == nullptr) {
    throw std::invalid_argument("PrepareTpchQuery: null resident tables");
  }
  QueryPlanBundle bundle = BuildTpchPlan(shape.query, tables->view());
  OptimizerOptions opt;
  opt.pin_backend = backend_name;
  PhysicalPlan physical = Optimize(bundle.plan, opt);
  return std::make_shared<const PreparedTpchQuery>(
      shape, std::move(tables), std::move(bundle), std::move(physical));
}

}  // namespace plan
