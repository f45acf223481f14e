// A group of N simulated devices with a topology-aware transfer model.
//
// Production multi-GPU machines are not flat: devices sit on peer islands
// (NVLink bridges, PCIe switches) where direct peer-to-peer copies run at
// link bandwidth, while cross-island traffic bounces through host memory and
// pays both PCIe hops. DeviceGroup models exactly that: it owns N Device
// instances (each with its own allocator, capacity, counters, and fault
// hook — a single-device group is byte-for-byte the existing Device) plus a
// GroupTopology describing which pairs are peers and what each path costs.
//
// Exchange traffic between devices is charged with ChargeExchange: the
// source stream pays the send, the destination stream synchronizes on its
// completion (Record/Wait) and is then charged nothing extra — matching how
// cudaMemcpyPeerAsync serializes against both streams. Per-device p2p and
// via-host byte counters feed the multi-device benches.
//
// Fleet health is first-class: each device can carry its own seeded
// FaultInjector (ArmFaultInjector), so fault rules — a sticky DeviceLost, a
// transient p2p-link TransferFault — are scoped to one device of the group.
// ChargeExchange consults the source device's injector at the transfer site
// BEFORE pricing anything, so a faulted exchange leaves both timelines
// untouched and a replay charges exactly once.
//
// A device's health is one flag:
//
//           MarkLost
//   Alive ----------> Lost
//     ^                 |
//     '--- MarkReset ---'
//
// MarkLost is what the executor calls when a sticky DeviceLost surfaces;
// MarkReset models the operator power-cycling the device between runs: the
// injector's sticky loss is cleared but its rules and call counts survive,
// and the device takes work again at once. Nothing here checks that the
// reset cured it: a device that is still sick fails its first slice of the
// next plan::RunSharded, whose recovery rounds route around it as they do
// around any loss mid-run. Nothing device-resident survives a loss, and
// RunSharded uploads broadcast state on a device before it runs a slice
// there. Each transition is recorded once, as a zero-duration
// "fault"-category event on the device's tracer.
#ifndef GPUSIM_DEVICE_GROUP_H_
#define GPUSIM_DEVICE_GROUP_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "gpusim/device.h"
#include "gpusim/fault.h"
#include "gpusim/stream.h"

namespace gpusim {

/// Shape and speed of the inter-device fabric.
struct GroupTopology {
  /// Devices [k*peer_island_size, (k+1)*peer_island_size) form one peer
  /// island; pairs inside an island exchange over a direct link, pairs in
  /// different islands route through host memory. island size 1 = no p2p.
  int peer_island_size = 4;
  /// Direct peer link bandwidth (bytes/second), NVLink-bridge class.
  double p2p_bandwidth_bps = 48.0e9;
  /// Per-exchange latency on a direct peer link.
  uint64_t p2p_latency_ns = 3'000;
};

/// One resolved source->destination path through the fabric.
struct LinkPath {
  bool peer = false;          ///< direct p2p link (same island)?
  bool same_device = false;   ///< src == dst: an ordinary device copy
  double bandwidth_bps = 0;   ///< effective end-to-end bandwidth
  uint64_t latency_ns = 0;    ///< end-to-end latency per exchange
  int hops = 0;               ///< 0 local, 1 peer, 2 via host
};

/// N simulated devices plus the links between them. Thread-safe after
/// construction; per-device state lives on the Devices themselves.
class DeviceGroup {
 public:
  /// Creates `num_devices` identical devices. `host_threads_per_device`
  /// sizes each device's kernel thread pool (kept small by default so an
  /// 8-device group does not oversubscribe the host; simulated timings do
  /// not depend on it).
  explicit DeviceGroup(int num_devices,
                       const GroupTopology& topology = GroupTopology(),
                       const DeviceProperties& props = DeviceProperties(),
                       unsigned host_threads_per_device = 2);

  int size() const { return static_cast<int>(devices_.size()); }
  Device& device(int i) { return *devices_[static_cast<size_t>(i)]; }
  const Device& device(int i) const { return *devices_[static_cast<size_t>(i)]; }
  const GroupTopology& topology() const { return topology_; }

  /// True when src and dst sit on the same peer island (and differ).
  bool IsPeer(int src, int dst) const;

  /// Resolves the path an exchange from src to dst takes.
  LinkPath Link(int src, int dst) const;

  /// Prices an exchange of `bytes` from src to dst in simulated ns without
  /// charging anything (the cost-estimator hook). Peer paths pay link
  /// latency + bytes at p2p bandwidth; via-host paths pay a D2H hop on the
  /// source PCIe link plus an H2D hop on the destination's.
  uint64_t TransferNs(int src, int dst, uint64_t bytes) const;

  /// Charges an exchange to both streams: the source stream advances by the
  /// priced path time, the destination stream waits for the source's new
  /// front (an event sync), and per-device exchange counters are bumped on
  /// both ends. src_stream/dst_stream must belong to device(src)/device(dst).
  void ChargeExchange(int src, Stream& src_stream, int dst,
                      Stream& dst_stream, uint64_t bytes);

  // -- Fleet health ---------------------------------------------------------

  /// Creates (or returns) a group-owned FaultInjector for device `i`, seeded
  /// from `seed` mixed with the device index, and attaches it to the device.
  /// Rules added to it are scoped to that device alone. The injector lives
  /// as long as the group.
  FaultInjector& ArmFaultInjector(int i, uint64_t seed);

  /// The injector attached to device `i` (owned or external), or nullptr.
  FaultInjector* fault_injector(int i) const {
    return device(i).fault_injector();
  }

  /// Takes the device out of placement. Called when a sticky DeviceLost
  /// surfaces. Idempotent; the only way back is MarkReset.
  void MarkLost(int i);

  /// Models a device reset between runs: clears the attached injector's
  /// sticky loss, leaving rules and call counts in place, and puts the
  /// device back into placement. Returns false (no-op) unless it was Lost.
  bool MarkReset(int i);

  /// True unless the device was lost and not reset since.
  bool IsAlive(int i) const {
    return alive_[static_cast<size_t>(i)]->load(std::memory_order_acquire);
  }

  /// Alive devices, in ascending order (possibly empty).
  std::vector<int> AliveDevices() const;

  int AliveCount() const;

 private:
  GroupTopology topology_;
  std::vector<std::unique_ptr<Device>> devices_;
  /// Per-device health flags. Reads are lock-free (IsAlive sits on hot
  /// paths); transitions serialize on lifecycle_mu_.
  std::vector<std::unique_ptr<std::atomic<bool>>> alive_;
  std::vector<std::unique_ptr<FaultInjector>> injectors_;
  std::mutex lifecycle_mu_;
};

}  // namespace gpusim

#endif  // GPUSIM_DEVICE_GROUP_H_
