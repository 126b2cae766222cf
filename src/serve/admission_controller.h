#ifndef YVER_SERVE_ADMISSION_CONTROLLER_H_
#define YVER_SERVE_ADMISSION_CONTROLLER_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>

#include "util/deadline.h"
#include "util/status.h"

namespace yver::serve {

/// Load-shedding knobs. The zero defaults disable admission control
/// entirely, preserving the pre-robustness behaviour for embedders that
/// never configure it.
struct AdmissionOptions {
  /// Queries allowed to execute concurrently; 0 = unlimited.
  size_t max_in_flight = 0;
  /// Callers allowed to wait for a slot once the budget is full. The
  /// queue is bounded: caller max_queue_depth+1 is shed immediately with
  /// RESOURCE_EXHAUSTED instead of queuing unboundedly.
  size_t max_queue_depth = 0;
};

/// Whether a caller may queue for an in-flight slot.
enum class AdmissionWait : uint8_t {
  kQueue,  // wait in the bounded queue, up to the caller's deadline
  kNever,  // no free slot sheds at once, as a full queue does (callers
           // that must never block, like the wire server's event loop)
};

/// Point-in-time admission counters.
struct AdmissionSnapshot {
  uint64_t admitted = 0;
  uint64_t shed = 0;              // rejected: queue full
  uint64_t deadline_expired = 0;  // gave up waiting for a slot
  size_t in_flight = 0;
  size_t queued = 0;
};

/// Bounded-concurrency gate in front of ResolutionService's query path:
/// overload turns into a typed RESOURCE_EXHAUSTED (load shedding) or
/// DEADLINE_EXCEEDED (bounded waiting) answer instead of an unbounded
/// queue of blocked callers. Thread-safe.
class AdmissionController {
 public:
  explicit AdmissionController(AdmissionOptions options)
      : options_(options) {}

  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  /// True when admission control is disabled (max_in_flight == 0): Admit
  /// always succeeds without touching the lock.
  bool unlimited() const { return options_.max_in_flight == 0; }

  /// Takes one in-flight slot. Returns OK immediately when a slot is free;
  /// otherwise waits — bounded by `deadline` and by the queue depth:
  ///  - queue already holds max_queue_depth waiters, or `wait` is kNever
  ///    -> RESOURCE_EXHAUSTED without waiting (the shed path);
  ///  - `deadline` expires while queued -> DEADLINE_EXCEEDED.
  /// Every OK must be paired with exactly one Release().
  util::Status Admit(const util::Deadline& deadline,
                     AdmissionWait wait = AdmissionWait::kQueue);

  /// Returns the slot taken by a successful Admit.
  void Release();

  /// True when every in-flight slot and every queue slot is taken — the
  /// next Admit would shed. Always false when unlimited. The wire front
  /// end polls this to pause connection reads (DESIGN.md §15) instead of
  /// decoding queries that would only be shed.
  bool Saturated() const;

  AdmissionSnapshot snapshot() const;

  const AdmissionOptions& options() const { return options_; }

 private:
  AdmissionOptions options_;
  mutable std::mutex mu_;
  std::condition_variable slot_free_;
  size_t in_flight_ = 0;
  size_t queued_ = 0;
  uint64_t admitted_ = 0;
  uint64_t shed_ = 0;
  uint64_t deadline_expired_ = 0;
};

}  // namespace yver::serve

#endif  // YVER_SERVE_ADMISSION_CONTROLLER_H_
