#ifndef YVER_UTIL_FAULT_INJECTOR_H_
#define YVER_UTIL_FAULT_INJECTOR_H_

#include <array>
#include <atomic>
#include <cstdint>

#include "util/status.h"

namespace yver::util {

/// The catalog of named injection points compiled into the library. Every
/// point is a fixed enumerator (not a free-form string) so the disabled
/// check is one relaxed atomic load and the chaos test can enumerate the
/// registry exhaustively. DESIGN.md §11 documents what each point gates.
enum class FaultPoint : uint8_t {
  kIndexLoadOpen = 0,   // serve: opening the .yvx artifact
  kIndexLoadRead,       // serve: per-match reads of the .yvx arena
  kMatchesCsvLoad,      // core: reading the matches CSV
  kMatchesCsvSave,      // core: writing the matches CSV
  kDatasetCsvLoad,      // data: reading the dataset CSV
  kServiceCompute,      // serve: the query compute path (latency only)
  kSocketRead,          // net: per-read() of the wire transport
  kSocketWrite,         // net: per-write() of the wire transport
  kIndexPublish,        // serve: installing a new index generation
  kIndexSave,           // serve: writing the .yvx artifact
  kWalAppend,           // serve: appending a record to the write-ahead log
  kWalFsync,            // serve: the group-commit fsync of a WAL batch
  kWalReplay,           // serve: per-record reads during WAL recovery
  kNumPoints,           // sentinel — keep last
};

constexpr size_t kNumFaultPoints =
    static_cast<size_t>(FaultPoint::kNumPoints);

/// Stable name of a point ("serve.index_load.open", ...), used in injected
/// Status messages and the DESIGN.md catalog.
const char* FaultPointName(FaultPoint point);

/// What a fault-injection point resolved to for one hit.
enum class FaultKind : uint8_t {
  kNone = 0,
  kIoError,    // the operation fails with UNAVAILABLE
  kLatency,    // the operation stalls (sleep applied inside Evaluate)
  kShortRead,  // the read sees fewer bytes than asked -> DATA_LOSS
};

/// Fault mix for an armed injector. Probabilities are per-hit and drawn
/// from a deterministic stream seeded by (seed, point, per-point ordinal),
/// so a serial run replays the exact same fault sequence and concurrent
/// runs stay race-free (the ordinal is an atomic counter).
struct FaultConfig {
  uint64_t seed = 1;
  double io_error_probability = 0.0;
  double latency_probability = 0.0;
  double short_read_probability = 0.0;
  /// Stall length of an injected latency spike.
  uint32_t latency_micros = 100;
  /// Total faults the injector may fire while armed; 0 = unbounded. Keeps
  /// chaos runs time-bounded when latency spikes are in the mix.
  uint64_t max_injections = 0;
};

/// Process-global deterministic fault-injection registry.
///
/// Disarmed (the default and the production state) every injection point
/// costs one relaxed atomic load — there is nothing to configure, link, or
/// ifdef out. Tests arm it with a FaultConfig, run the scenario, and
/// disarm; Arm/Disarm must not race with in-flight evaluations (arm before
/// spawning workers, join before disarming — see ScopedFaultInjection in
/// the tests).
class FaultInjector {
 public:
  static FaultInjector& Global();

  /// Arms the injector with `config` and zeroes all counters.
  void Arm(const FaultConfig& config);
  /// Returns the injector to the zero-cost disarmed state.
  void Disarm();
  bool armed() const { return armed_.load(std::memory_order_acquire); }

  /// Resolves one hit of `point`. Disarmed: kNone. An injected latency
  /// spike sleeps here and then reports kLatency; error kinds are returned
  /// for the caller to surface. Thread-safe.
  FaultKind Evaluate(FaultPoint point);

  /// Convenience for Status-returning I/O paths: kIoError becomes
  /// UNAVAILABLE, kShortRead becomes DATA_LOSS (a truncated read), latency
  /// has already been applied. OK otherwise.
  Status InjectIo(FaultPoint point);

  /// Faults fired since the last Arm (all points / one point).
  uint64_t injections() const {
    return injected_.load(std::memory_order_relaxed);
  }
  uint64_t injections(FaultPoint point) const {
    return per_point_injected_[static_cast<size_t>(point)].load(
        std::memory_order_relaxed);
  }
  /// Hits evaluated at `point` since the last Arm (fired or not).
  uint64_t hits(FaultPoint point) const {
    return ordinals_[static_cast<size_t>(point)].load(
        std::memory_order_relaxed);
  }

 private:
  FaultInjector() = default;

  std::atomic<bool> armed_{false};
  FaultConfig config_;  // written in Arm, read only while armed
  std::array<std::atomic<uint64_t>, kNumFaultPoints> ordinals_{};
  std::array<std::atomic<uint64_t>, kNumFaultPoints> per_point_injected_{};
  std::atomic<uint64_t> injected_{0};
};

}  // namespace yver::util

#endif  // YVER_UTIL_FAULT_INJECTOR_H_
