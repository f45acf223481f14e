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
}  // namespace

const char* DeviceStateName(DeviceState state) {
  switch (state) {
    case DeviceState::kAlive:
      return "alive";
    case DeviceState::kLost:
      return "lost";
    case DeviceState::kProbing:
      return "probing";
  }
  return "unknown";
}

const char* LifecycleEventName(LifecycleEvent::Kind kind) {
  switch (kind) {
    case LifecycleEvent::Kind::kLost:
      return "device_lost";
    case LifecycleEvent::Kind::kReset:
      return "device_reset";
    case LifecycleEvent::Kind::kProbeFailed:
      return "probe_failed";
    case LifecycleEvent::Kind::kReadmitted:
      return "device_readmitted";
  }
  return "unknown";
}

DeviceGroup::DeviceGroup(int num_devices, const GroupTopology& topology,
                         const DeviceProperties& props,
                         unsigned host_threads_per_device)
    : topology_(topology) {
  if (num_devices < 1) {
    throw std::invalid_argument("DeviceGroup needs at least one device");
  }
  devices_.reserve(static_cast<size_t>(num_devices));
  state_.reserve(static_cast<size_t>(num_devices));
  injectors_.resize(static_cast<size_t>(num_devices));
  for (int i = 0; i < num_devices; ++i) {
    devices_.push_back(
        std::make_unique<Device>(props, host_threads_per_device));
    state_.push_back(std::make_unique<std::atomic<uint8_t>>(
        static_cast<uint8_t>(DeviceState::kAlive)));
  }
  exchanged_.reserve(static_cast<size_t>(num_devices) * num_devices);
  for (int i = 0; i < num_devices * num_devices; ++i) {
    exchanged_.push_back(std::make_unique<std::atomic<uint64_t>>(0));
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

void DeviceGroup::Transition(int i, DeviceState next,
                             LifecycleEvent::Kind kind) {
  // Caller holds lifecycle_mu_.
  state_[static_cast<size_t>(i)]->store(static_cast<uint8_t>(next),
                                        std::memory_order_release);
  LifecycleEvent event;
  event.kind = kind;
  event.device = i;
  event.sequence = lifecycle_sequence_++;
  lifecycle_log_.push_back(event);
  // Lifecycle transitions show up on the device's trace in the fault
  // category (zero duration), next to the injected faults that caused them.
  if (Tracer* tracer = device(i).tracer()) {
    tracer->Record(TraceEvent{LifecycleEventName(kind), "fault", 0, 0, 0});
  }
}

void DeviceGroup::MarkLost(int i) {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (state(i) == DeviceState::kLost) return;  // idempotent
  Transition(i, DeviceState::kLost, LifecycleEvent::Kind::kLost);
  ++fleet_stats_.losses;
}

bool DeviceGroup::MarkReset(int i) {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (state(i) != DeviceState::kLost) return false;
  // The reset brings the context back: clear the injector's sticky loss but
  // keep its rules and per-stream call counts — an at_call kill that already
  // fired stays fired, while probability rules keep drawing.
  if (FaultInjector* inj = device(i).fault_injector()) inj->ClearStickyLoss();
  Transition(i, DeviceState::kProbing, LifecycleEvent::Kind::kReset);
  ++fleet_stats_.resets;
  return true;
}

bool DeviceGroup::Probe(int i) {
  {
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    if (state(i) != DeviceState::kProbing) return false;
    ++fleet_stats_.probes;
  }
  // Charge a real (small, fixed-size) probe kernel on a fresh stream labelled
  // "probe": fault rules see the launch like any other, so a rule scoped to
  // the probe can fail it, and a re-armed DeviceLost sends the device back to
  // Lost — the half-open-probe contract.
  Stream probe_stream(device(i));
  probe_stream.set_label("probe");
  KernelStats probe;
  probe.name = "fleet_probe";
  probe.bytes_read = 1u << 20;
  probe.ops = 1u << 20;
  try {
    probe_stream.ChargeKernel(probe);
  } catch (const DeviceLost&) {
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    ++fleet_stats_.probe_failures;
    Transition(i, DeviceState::kLost, LifecycleEvent::Kind::kProbeFailed);
    return false;
  } catch (const std::exception&) {
    // Transient probe failure: stay Probing for a later probe.
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    ++fleet_stats_.probe_failures;
    LifecycleEvent event;
    event.kind = LifecycleEvent::Kind::kProbeFailed;
    event.device = i;
    event.sequence = lifecycle_sequence_++;
    lifecycle_log_.push_back(event);
    return false;
  }
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  Transition(i, DeviceState::kAlive, LifecycleEvent::Kind::kReadmitted);
  ++fleet_stats_.readmissions;
  return true;
}

bool DeviceGroup::IsAlive(int i) const {
  return state(i) == DeviceState::kAlive;
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

std::vector<int> DeviceGroup::ProbingDevices() const {
  std::vector<int> probing;
  for (int i = 0; i < size(); ++i) {
    if (state(i) == DeviceState::kProbing) probing.push_back(i);
  }
  return probing;
}

FleetStats DeviceGroup::fleet_stats() const {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  return fleet_stats_;
}

std::vector<LifecycleEvent> DeviceGroup::lifecycle_log() const {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  return lifecycle_log_;
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
  exchanged_[PairIndex(src, dst)]->fetch_add(bytes,
                                             std::memory_order_relaxed);
}

uint64_t DeviceGroup::ExchangedBytes(int src, int dst) const {
  return exchanged_[PairIndex(src, dst)]->load(std::memory_order_relaxed);
}

std::vector<uint64_t> DeviceGroup::PerDevicePeakBytes() const {
  std::vector<uint64_t> peaks;
  peaks.reserve(devices_.size());
  for (const auto& d : devices_) peaks.push_back(d->peak_bytes());
  return peaks;
}

}  // namespace gpusim
