// The server's resident catalog: host tables plus their device residency.
//
// A serving process generates (or, in a real system, loads) its tables once
// and keeps them device-resident across every request — the coordinator/
// long-lived-GPU-worker shape of "Accelerating Presto with GPUs" (PAPERS.md).
// The catalog's state is one immutable snapshot: the host tables with their
// scale factor, their residency (plan::ResidentTpchTables), and the
// generation that names the pair. Refresh() is the only way that state
// changes: it uploads new host tables, or the current ones onto another
// device, swaps the next snapshot in and bumps the generation, and the
// server keys its plan cache by that generation. Snapshots are refcounted,
// so a query prepared against an old generation keeps computing against its
// own (consistent) snapshot while new requests see the new one: a refresh
// never waits for queries, and a query never waits for an upload.
#ifndef SERVE_SESSION_H_
#define SERVE_SESSION_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "core/scheduler.h"
#include "gpusim/device.h"
#include "plan/prepared.h"
#include "serve/tenant.h"
#include "storage/table.h"

namespace serve {

/// The host TPC-H tables a residency is uploaded from, at one scale factor.
/// Immutable once generated; snapshots share it as shared_ptr<const>.
struct HostTables {
  double scale_factor = 0.0;
  storage::Table lineitem;
  storage::Table orders;
  storage::Table customer;
  storage::Table part;

  /// The tables as a plan or a host reference reads them.
  plan::TpchHostTables view() const;
};

/// Generates all four tables at `scale_factor` from `seed`.
std::shared_ptr<const HostTables> GenerateHostTables(double scale_factor,
                                                     uint64_t seed);

/// One catalog state: host tables, their residency, and its generation,
/// read together.
struct CatalogSnapshot {
  std::shared_ptr<const HostTables> host;                    ///< never null
  std::shared_ptr<const plan::ResidentTpchTables> resident;  ///< never null
  uint64_t generation = 0;
};

struct CatalogOptions {
  double scale_factor = 0.01;
  uint64_t seed = 42;
  /// Upload via storage::UploadTableEncoded (encoded residency).
  bool use_encoding = true;
  /// Backend whose stream carries the uploads; also the backend every
  /// cached plan is pinned to (must match the scheduler's backend).
  std::string backend = "Handwritten";
};

/// Owns the TPC-H tables — host and device-resident — the server queries.
/// Thread-safe: readers never wait for a Refresh's upload.
class ResidentCatalog {
 public:
  /// Generates the tables at options.scale_factor and uploads them to the
  /// calling thread's current device as generation 0.
  explicit ResidentCatalog(CatalogOptions options);

  /// Current snapshot, under a lock held only to copy its pointers.
  CatalogSnapshot snapshot() const;
  /// Current residency snapshot (never null).
  std::shared_ptr<const plan::ResidentTpchTables> resident() const;
  /// Current host tables as plans read them. The pointers stay valid until
  /// a Refresh replaces the tables; hold a snapshot() to keep them longer.
  plan::TpchHostTables host() const;
  /// Bumps on every Refresh; generation 0 is the construction upload.
  uint64_t generation() const;

  /// The one refresh path. Uploads `tables` (null: the current ones) to
  /// `device` (null: the current one) on a backend that lives only for the
  /// call, then swaps the new snapshot in and bumps the generation.
  /// Refreshes run one at a time, each reading the latest snapshot, so a
  /// readmission that follows a reload re-uploads the reloaded tables.
  /// Readers keep whatever snapshot they hold: until the last in-flight
  /// plan drops the old residency, the old and the new one are both on the
  /// device.
  void Refresh(std::shared_ptr<const HostTables> tables,
               gpusim::Device* device);

 private:
  CatalogOptions options_;

  std::mutex refresh_mu_;   ///< serializes Refresh; guards device_
  gpusim::Device* device_;  ///< where the current residency lives

  mutable std::mutex mu_;  ///< guards current_; held only for pointer copies
  CatalogSnapshot current_;
};

/// One client connection's registered identity.
struct Session {
  uint64_t id = 0;
  core::TenantSpec tenant;
  TenantClass cls = TenantClass::kBestEffort;
};

}  // namespace serve

#endif  // SERVE_SESSION_H_
