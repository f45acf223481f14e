// The server's resident catalog: host tables plus their device residency.
//
// A serving process generates (or, in a real system, loads) its tables once
// and keeps them device-resident across every request — the coordinator/
// long-lived-GPU-worker shape of "Accelerating Presto with GPUs" (PAPERS.md).
// The catalog owns the host source of truth, the resident upload
// (plan::ResidentTpchTables), and a generation counter: Reload() and
// Rebalance() swap in a new residency and bump the generation in one step,
// and the server keys its plan cache by that generation. Residency
// snapshots are handed out as shared_ptr<const>, so queries prepared
// against an old generation keep computing against their own (consistent)
// snapshot while new requests see the new one.
#ifndef SERVE_SESSION_H_
#define SERVE_SESSION_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/backend.h"
#include "core/scheduler.h"
#include "plan/prepared.h"
#include "serve/tenant.h"
#include "storage/table.h"
#include "tpch/datagen.h"

namespace serve {

/// A residency snapshot and the generation it belongs to, read together.
struct CatalogSnapshot {
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
/// Thread-safe for snapshot() against a concurrent Reload() or Rebalance();
/// the host-table accessors are only safe while no Reload is in flight (the
/// server serializes reloads behind its own lock).
class ResidentCatalog {
 public:
  explicit ResidentCatalog(CatalogOptions options);

  const CatalogOptions& options() const { return options_; }

  const storage::Table& lineitem() const { return lineitem_; }
  const storage::Table& orders() const { return orders_; }
  const storage::Table& customer() const { return customer_; }
  const storage::Table& part() const { return part_; }
  plan::TpchHostTables host() const;

  /// Current residency snapshot and its generation, under one lock.
  CatalogSnapshot snapshot() const;
  /// Current residency snapshot (never null).
  std::shared_ptr<const plan::ResidentTpchTables> resident() const;
  /// Bumps on every Reload and Rebalance; generation 0 is the construction
  /// upload.
  uint64_t generation() const;

  /// Regenerates the tables at `scale_factor` (same seed) and replaces the
  /// residency. Old snapshots stay alive as long as prepared plans hold
  /// them.
  void Reload(double scale_factor);

  /// Re-uploads the *same* host tables as a fresh residency snapshot,
  /// optionally onto `device` (a readmitted ordinal of a fleet) — the
  /// drain-free half of recovery. Unlike Reload the host source of truth
  /// never changes, so queries keep running throughout: in-flight prepared
  /// plans hold the old snapshot by shared_ptr (its upload stream is
  /// retired, not destroyed), new prepares see the new one, and the bumped
  /// generation keeps the server's plan cache from serving plans bound to
  /// the old one. Safe to call from a background thread concurrently with
  /// snapshot().
  void Rebalance(gpusim::Device* device = nullptr);

  /// The stream the residency lives on (uploads are charged here).
  gpusim::Stream& stream() { return backend_->stream(); }

 private:
  void Generate();  ///< fills host tables from options_.scale_factor

  CatalogOptions options_;
  std::unique_ptr<core::Backend> backend_;  ///< owns the upload stream
  storage::Table lineitem_;
  storage::Table orders_;
  storage::Table customer_;
  storage::Table part_;

  mutable std::mutex mu_;  ///< guards resident_, generation_, backends
  std::shared_ptr<const plan::ResidentTpchTables> resident_;
  uint64_t generation_ = 0;
  /// Upload streams of superseded residencies: a snapshot an in-flight
  /// prepared plan still holds must outlive neither its stream nor its
  /// device, so Rebalance retires the old backend here instead of
  /// destroying it.
  std::vector<std::unique_ptr<core::Backend>> retired_backends_;
};

/// One client connection's registered identity.
struct Session {
  uint64_t id = 0;
  core::TenantSpec tenant;
  TenantClass cls = TenantClass::kBestEffort;
};

}  // namespace serve

#endif  // SERVE_SESSION_H_
