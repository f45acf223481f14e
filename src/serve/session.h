// The server's resident catalog: host tables plus their device residency.
//
// A serving process generates (or, in a real system, loads) its tables once
// and keeps them device-resident across every request — the coordinator/
// long-lived-GPU-worker shape of "Accelerating Presto with GPUs" (PAPERS.md).
// The catalog's state is one immutable snapshot: the host tables with their
// scale factor, their residency (plan::ResidentTpchTables), the generation
// that names the pair, and one prepared-plan slot per query (PlanSlots).
// The residency always lives on the device that was current when the
// catalog was built, the one the server's scheduler clients run on.
// Refresh() is the only way that state changes: it uploads new host tables
// and swaps in the next snapshot with a bumped generation and empty slots.
// A plan is therefore only ever served against the residency it was
// prepared on: a refresh retires every plan by construction, and a request
// that read the old snapshot can only fill the old snapshot's slot.
// Snapshots are refcounted, so a query prepared against an old generation
// keeps computing against its own (consistent) snapshot while new requests
// see the new one: a refresh never waits for queries, and a query never
// waits for an upload.
#ifndef SERVE_SESSION_H_
#define SERVE_SESSION_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

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

/// One residency's prepared plans: a slot per TpchQuery, filled at most
/// once, by plan::PrepareTpchQuery against that residency. Thread-safe.
class PlanSlots {
 public:
  /// Empty slots for plans over `resident`, pinned to `backend`.
  PlanSlots(std::shared_ptr<const plan::ResidentTpchTables> resident,
            std::string backend);

  /// The query's plan. An empty slot is filled by this call, which then sets
  /// `*prepared`; concurrent first calls wait for that one prepare. A
  /// prepare that throws leaves the slot empty, so the next call tries
  /// again.
  std::shared_ptr<const plan::PreparedTpchQuery> Get(plan::TpchQuery query,
                                                     bool* prepared);

  /// Slots filled so far: 0 up to one per TpchQuery.
  size_t size() const;

 private:
  struct Slot {
    std::mutex mu;  ///< held by the one prepare; waiters block on it
    std::atomic<bool> filled{false};
    /// Written once, under `mu`, before `filled` is set; read-only after.
    std::shared_ptr<const plan::PreparedTpchQuery> plan;
  };

  const std::shared_ptr<const plan::ResidentTpchTables> resident_;
  const std::string backend_;
  std::vector<Slot> slots_;  ///< indexed by TpchQuery
};

/// One catalog state: host tables, their residency, its generation, and the
/// plans prepared against it, read together.
struct CatalogSnapshot {
  std::shared_ptr<const HostTables> host;                    ///< never null
  std::shared_ptr<const plan::ResidentTpchTables> resident;  ///< never null
  uint64_t generation = 0;
  /// Plans over `resident`, shared by every copy of this snapshot; a
  /// refresh starts the next snapshot with empty slots. Never null.
  std::shared_ptr<PlanSlots> plans;
};

struct CatalogOptions {
  double scale_factor = 0.01;
  uint64_t seed = 42;
  /// Upload via storage::UploadTableEncoded (encoded residency).
  bool use_encoding = true;
  /// Backend whose stream carries the uploads; also the backend every
  /// prepared plan is pinned to (must match the scheduler's backend).
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

  /// The one refresh path. Uploads `tables` to the catalog's device on a
  /// backend that lives only for the call, then swaps the new snapshot in,
  /// with a bumped generation and empty plan slots. An upload that throws
  /// leaves the catalog as it was. Refreshes run one at a time, so
  /// concurrent reloads swap in one after another, each bumping the
  /// generation.
  /// Readers keep whatever snapshot they hold: until the last in-flight
  /// plan drops the old residency, the old and the new one are both on the
  /// device.
  void Refresh(std::shared_ptr<const HostTables> tables);

 private:
  CatalogOptions options_;
  gpusim::Device& device_;  ///< where every residency lives

  std::mutex refresh_mu_;  ///< serializes Refresh

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
