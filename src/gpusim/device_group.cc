#include "gpusim/device_group.h"

#include <algorithm>
#include <stdexcept>

#include "gpusim/trace.h"

namespace gpusim {

namespace {
/// Per-hop launch latency of a staged copy through host memory. Matches the
/// CUDA-profile transfer latency so a via-host exchange prices exactly like
/// the two explicit cudaMemcpy calls it stands in for.
constexpr uint64_t kHostHopLatencyNs = 10'000;

/// SplitMix64 finalizer for the per-device injector seeds.
uint64_t Mix64(uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Records a health transition as a zero-duration "fault" event on the
/// device's tracer, next to the injected faults that caused it.
void TraceTransition(Device& device, const char* name) {
  if (Tracer* tracer = device.tracer()) {
    tracer->Record(TraceEvent{name, "fault", 0, 0, 0});
  }
}
}  // namespace

DeviceGroup::DeviceGroup(int num_devices, const GroupTopology& topology,
                         const DeviceProperties& props,
                         unsigned host_threads_per_device)
    : topology_(topology) {
  if (num_devices < 1) {
    throw std::invalid_argument("DeviceGroup needs at least one device");
  }
  devices_.reserve(static_cast<size_t>(num_devices));
  alive_.reserve(static_cast<size_t>(num_devices));
  injectors_.resize(static_cast<size_t>(num_devices));
  for (int i = 0; i < num_devices; ++i) {
    devices_.push_back(
        std::make_unique<Device>(props, host_threads_per_device));
    alive_.push_back(std::make_unique<std::atomic<bool>>(true));
  }
}

FaultInjector& DeviceGroup::ArmFaultInjector(int i, uint64_t seed) {
  auto& slot = injectors_[static_cast<size_t>(i)];
  if (slot == nullptr) {
    // Mix the device index into the seed (SplitMix64 finalizer) so sibling
    // devices armed from one base seed draw independent schedules.
    const uint64_t mixed = Mix64(
        seed + 0x9e3779b97f4a7c15ULL * (static_cast<uint64_t>(i) + 1));
    slot = std::make_unique<FaultInjector>(mixed);
    device(i).set_fault_injector(slot.get());
  }
  return *slot;
}

void DeviceGroup::MarkLost(int i) {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (!IsAlive(i)) return;  // idempotent
  alive_[static_cast<size_t>(i)]->store(false, std::memory_order_release);
  TraceTransition(device(i), "device_lost");
}

bool DeviceGroup::MarkReset(int i) {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (IsAlive(i)) return false;
  // The reset brings the context back: clear the injector's sticky loss but
  // keep its rules and per-stream call counts — an at_call kill that already
  // fired stays fired, while probability rules keep drawing.
  if (FaultInjector* inj = device(i).fault_injector()) inj->ClearStickyLoss();
  alive_[static_cast<size_t>(i)]->store(true, std::memory_order_release);
  TraceTransition(device(i), "device_reset");
  return true;
}

std::vector<int> DeviceGroup::AliveDevices() const {
  std::vector<int> alive;
  for (int i = 0; i < size(); ++i) {
    if (IsAlive(i)) alive.push_back(i);
  }
  return alive;
}

int DeviceGroup::AliveCount() const {
  return static_cast<int>(AliveDevices().size());
}

bool DeviceGroup::IsPeer(int src, int dst) const {
  if (src == dst) return false;
  const int island = std::max(topology_.peer_island_size, 1);
  return src / island == dst / island;
}

LinkPath DeviceGroup::Link(int src, int dst) const {
  LinkPath path;
  if (src == dst) {
    path.same_device = true;
    path.bandwidth_bps = device(src).properties().memory_bandwidth_bps;
    path.hops = 0;
    return path;
  }
  if (IsPeer(src, dst)) {
    path.peer = true;
    path.bandwidth_bps = topology_.p2p_bandwidth_bps;
    path.latency_ns = topology_.p2p_latency_ns;
    path.hops = 1;
    return path;
  }
  // Through host: store-and-forward over both PCIe links. The effective
  // end-to-end bandwidth is the harmonic combination (each byte crosses
  // both links serially); latency is one hop's worth per link.
  const double src_bw = device(src).properties().pcie_bandwidth_bps;
  const double dst_bw = device(dst).properties().pcie_bandwidth_bps;
  path.bandwidth_bps = 1.0 / (1.0 / src_bw + 1.0 / dst_bw);
  path.latency_ns = 2 * kHostHopLatencyNs;
  path.hops = 2;
  return path;
}

uint64_t DeviceGroup::TransferNs(int src, int dst, uint64_t bytes) const {
  const LinkPath path = Link(src, dst);
  if (path.same_device) {
    // An ordinary on-device copy: read + write through global memory.
    return device(src).cost_model().DeviceCopyTime(bytes, ApiProfile::Cuda());
  }
  const double body = static_cast<double>(bytes) / path.bandwidth_bps * 1e9;
  return path.latency_ns + static_cast<uint64_t>(body);
}

void DeviceGroup::ChargeExchange(int src, Stream& src_stream, int dst,
                                 Stream& dst_stream, uint64_t bytes) {
  if (&src_stream.device() != &device(src) ||
      &dst_stream.device() != &device(dst)) {
    throw std::invalid_argument(
        "ChargeExchange: stream does not belong to the named device");
  }
  if (src == dst) {
    src_stream.ChargeTransfer(Stream::TransferKind::kDeviceToDevice, bytes);
    return;
  }
  // Consult the source device's fault plan BEFORE pricing anything: a faulted
  // exchange leaves both timelines untouched, so a replay charges exactly
  // once. (ChargeOverhead below has no fault hook of its own.)
  if (FaultInjector* inj = device(src).fault_injector()) {
    const FaultKind kind =
        inj->Check(FaultSite::kTransfer, src_stream.id(), src_stream.label());
    if (kind != FaultKind::kNone) ThrowFault(kind, FaultSite::kTransfer);
  }
  const LinkPath path = Link(src, dst);
  const uint64_t t = TransferNs(src, dst, bytes);
  // The sender's queue pays the wire time; the receiver's queue may not run
  // ahead of the data (event sync), but is charged no additional time.
  src_stream.ChargeOverhead(t);
  dst_stream.Wait(src_stream.Record());

  auto& sc = device(src).counters();
  auto& dc = device(dst).counters();
  if (path.peer) {
    sc.bytes_p2p.fetch_add(bytes, std::memory_order_relaxed);
    dc.bytes_p2p.fetch_add(bytes, std::memory_order_relaxed);
  } else {
    sc.bytes_via_host.fetch_add(bytes, std::memory_order_relaxed);
    dc.bytes_via_host.fetch_add(bytes, std::memory_order_relaxed);
  }
  sc.exchanges.fetch_add(1, std::memory_order_relaxed);
  dc.exchanges.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace gpusim
