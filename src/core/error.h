// Error taxonomy for the backend boundary.
//
// Every failure escaping a backend call is classified into one of three
// classes. Each class, at each site, has exactly one retry owner (the table
// in DESIGN.md §7, "Fault model & resilience"):
//
//   kTransient  the same call is expected to succeed if replayed
//               (TransientKernelFault, TransferFault)   -> the slice runner
//               inside a governed or sharded run, else the scheduler's
//               whole-query retry with capped exponential backoff
//   kResource   the device is out of memory but reclaim can help
//               (OutOfDeviceMemory)                     -> RunGoverned's
//               re-slicing ladder, else the scheduler's TrimPool + one re-run
//   kFatal      replaying cannot help (DeviceLost, UnsupportedOperator,
//               logic errors, anything unclassified)    -> fail fast, feed
//               the backend's circuit breaker; a hybrid plan re-routes the
//               node, a sharded run re-places the lost device's slices
//
// An owner that spends its budget rethrows the fault as BackendError of
// class kFatal with the original message, so no outer layer replays it
// again.
//
// Unknown exception types default to kFatal: retrying an error we do not
// understand risks re-corrupting state, and it keeps pre-taxonomy behaviour
// (a plain std::runtime_error fails the query exactly once).
#ifndef CORE_ERROR_H_
#define CORE_ERROR_H_

#include <exception>
#include <stdexcept>
#include <string>

#include "gpusim/device.h"
#include "gpusim/fault.h"

namespace core {

enum class ErrorClass : uint8_t { kTransient = 0, kResource = 1, kFatal = 2 };

inline const char* ErrorClassName(ErrorClass c) {
  switch (c) {
    case ErrorClass::kTransient:
      return "transient";
    case ErrorClass::kResource:
      return "resource";
    case ErrorClass::kFatal:
      return "fatal";
  }
  return "unknown";
}

/// A backend failure with an explicit class, for call sites that want to
/// raise a pre-classified error instead of relying on type inspection.
class BackendError : public std::runtime_error {
 public:
  BackendError(ErrorClass error_class, const std::string& what)
      : std::runtime_error(what), class_(error_class) {}
  ErrorClass error_class() const { return class_; }

 private:
  ErrorClass class_;
};

/// Maps an in-flight exception to its ErrorClass.
inline ErrorClass Classify(std::exception_ptr error) {
  if (!error) return ErrorClass::kFatal;
  try {
    std::rethrow_exception(error);
  } catch (const BackendError& e) {
    return e.error_class();
  } catch (const gpusim::TransientKernelFault&) {
    return ErrorClass::kTransient;
  } catch (const gpusim::TransferFault&) {
    return ErrorClass::kTransient;
  } catch (const gpusim::OutOfDeviceMemory&) {
    return ErrorClass::kResource;
  } catch (const gpusim::DeviceLost&) {
    return ErrorClass::kFatal;
  } catch (...) {
    return ErrorClass::kFatal;
  }
}

/// What() of an in-flight exception, for error reporting.
inline std::string ErrorMessage(std::exception_ptr error) {
  if (!error) return "";
  try {
    std::rethrow_exception(error);
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown error";
  }
}

}  // namespace core

#endif  // CORE_ERROR_H_
