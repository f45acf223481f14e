// Deterministic fault injection for the simulated device.
//
// A FaultInjector is attached to a Device (Device::set_fault_injector) and
// consulted at the three call sites real GPU deployments fail at: device
// allocation (cudaMalloc), kernel launch, and explicit transfers (memcpy).
// When no injector is attached the hot-path cost is a single relaxed pointer
// load — the fault-free simulated timeline is bit-identical with the
// machinery compiled in, even with a rule-less injector attached
// (MultiDeviceQueryTest.ArmedRulelessInjectorsKeepTimelineBitIdentical and
// bench_chaos's golden passes pin this).
//
// Rules are typed (which fault), sited (which call path), optionally scoped
// to a stream label (so one backend's streams can "die" while others stay
// healthy), and triggered either by per-stream call count (at_call /
// every_calls) or by a per-stream seeded Bernoulli draw (probability).
// Per-stream trigger state makes a stream's fault schedule a pure function
// of the seed and that stream's own call sequence, independent of how the
// host interleaves concurrent streams.
//
// DeviceLost is sticky: once fired for a label, every later check from a
// stream with that label reports DeviceLost again (an empty label kills the
// whole device) — modelling a context that never comes back.
#ifndef GPUSIM_FAULT_H_
#define GPUSIM_FAULT_H_

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace gpusim {

/// A kernel launch that failed transiently (the cudaErrorLaunchFailure /
/// ECC-retry class): the same launch is expected to succeed if replayed.
class TransientKernelFault : public std::runtime_error {
 public:
  explicit TransientKernelFault(const std::string& what)
      : std::runtime_error(what) {}
};

/// A host<->device or device<->device copy that failed transiently.
class TransferFault : public std::runtime_error {
 public:
  explicit TransferFault(const std::string& what)
      : std::runtime_error(what) {}
};

/// The device (or one backend's view of it) is gone and will not recover —
/// the cudaErrorDevicesUnavailable / sticky-context-error class.
class DeviceLost : public std::runtime_error {
 public:
  explicit DeviceLost(const std::string& what) : std::runtime_error(what) {}
};

/// Instrumented call paths.
enum class FaultSite : uint8_t { kMalloc = 0, kKernel = 1, kTransfer = 2 };

/// Typed faults an injector can fire. kOutOfMemory maps to the existing
/// gpusim::OutOfDeviceMemory (device.h) so callers cannot tell an injected
/// OOM from a genuine capacity miss.
enum class FaultKind : uint8_t {
  kNone = 0,
  kTransientKernel,
  kTransfer,
  kOutOfMemory,
  kDeviceLost,
};

const char* FaultSiteName(FaultSite site);
const char* FaultKindName(FaultKind kind);

/// Throws the exception type mapped to `kind`; no-op for kNone.
void ThrowFault(FaultKind kind, FaultSite site);

/// One entry of a fault plan. Trigger precedence: at_call, then every_calls,
/// then probability (exactly one should be set). Counts and draws are kept
/// per stream, so concurrent streams each see a deterministic schedule.
struct FaultRule {
  FaultSite site = FaultSite::kKernel;
  FaultKind kind = FaultKind::kTransientKernel;
  /// Only streams whose label matches fire this rule; empty matches any
  /// stream. Malloc-site checks are device-scoped (label ""), so OOM rules
  /// should leave this empty.
  std::string stream_label;
  uint64_t at_call = 0;      ///< fire on the Nth matching call (1-based)
  uint64_t every_calls = 0;  ///< fire on every Nth matching call
  double probability = 0.0;  ///< per-call Bernoulli draw, seeded per stream
  int64_t max_fires = -1;    ///< total fires across all streams; -1 unlimited
};

/// One fired fault (the injector's event log).
struct InjectedFault {
  FaultSite site = FaultSite::kKernel;
  FaultKind kind = FaultKind::kNone;
  uint64_t stream_id = 0;
  std::string stream_label;
  uint64_t call_index = 0;  ///< per-stream call count at `site` when fired
  size_t rule = 0;          ///< index returned by AddRule
};

/// Plain-value counters of injector activity.
struct FaultInjectorStats {
  uint64_t checks = 0;            ///< calls inspected while attached
  uint64_t injected_kernel = 0;
  uint64_t injected_transfer = 0;
  uint64_t injected_oom = 0;
  uint64_t injected_device_lost = 0;
  uint64_t sticky_replays = 0;    ///< DeviceLost re-reported after the fire

  uint64_t injected_total() const {
    return injected_kernel + injected_transfer + injected_oom +
           injected_device_lost;
  }
};

/// Seeded, thread-safe fault plan. Attach with Device::set_fault_injector;
/// the injector must outlive its attachment.
class FaultInjector {
 public:
  /// Streams with no id (device-scoped malloc checks) use this sentinel.
  static constexpr uint64_t kDeviceScopeId = ~uint64_t{0};

  explicit FaultInjector(uint64_t seed = 0) : seed_(seed) {}

  /// Appends a rule; returns its index (stable, used in the event log).
  size_t AddRule(const FaultRule& rule);

  /// Consulted by the instrumented call sites. Returns the fault to fire at
  /// this call (kNone almost always). First matching rule wins; a fired
  /// DeviceLost becomes sticky for the rule's label scope.
  FaultKind Check(FaultSite site, uint64_t stream_id,
                  const std::string& stream_label);

  /// True once a sticky DeviceLost fired for `label` (or device-wide).
  bool IsLost(const std::string& label) const;

  FaultInjectorStats stats() const;
  std::vector<InjectedFault> log() const;

  /// Clears trigger state, sticky losses, stats, and the log; keeps rules.
  void Reset();

  /// Clears only the sticky DeviceLost state (device-wide and per-label) —
  /// the model of a device reset: the context comes back, but per-stream
  /// call counts, rules, stats, and the log all survive, so an `at_call`
  /// rule that already fired does not fire again while `every_calls` /
  /// `probability` rules keep drawing from the same schedule.
  void ClearStickyLoss();

 private:
  struct StreamState {
    uint64_t rng = 0;
    bool rng_seeded = false;
    std::unordered_map<size_t, uint64_t> calls;  ///< rule index -> call count
  };

  uint64_t seed_ = 0;
  mutable std::mutex mu_;
  std::vector<FaultRule> rules_;
  std::vector<uint64_t> rule_fires_;
  std::unordered_map<uint64_t, StreamState> streams_;
  std::unordered_set<std::string> lost_labels_;
  bool device_lost_ = false;
  std::vector<InjectedFault> log_;
  FaultInjectorStats stats_;
};

}  // namespace gpusim

#endif  // GPUSIM_FAULT_H_
