#ifndef YVER_SERVE_INDEX_MANAGER_H_
#define YVER_SERVE_INDEX_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>

#include "serve/resolution_index.h"
#include "util/status.h"

namespace yver::serve {

/// Versioned, hot-swappable home of the served ResolutionIndex
/// (DESIGN.md §13): a mutex-guarded `shared_ptr` to the current immutable
/// snapshot plus its monotonically increasing generation. `Acquire()`
/// copies both into a PinnedIndex; `Publish()` swaps in the next snapshot.
/// A retired generation lives exactly as long as some pin shares its
/// `shared_ptr`, so an in-flight query never sees a torn swap or a freed
/// index.
class IndexManager {
 public:
  /// Movable pin on one index generation. While alive, the snapshot it
  /// points at cannot be freed; destruction (or Release) drops the pin.
  class PinnedIndex {
   public:
    PinnedIndex() = default;
    PinnedIndex(PinnedIndex&& other) noexcept { *this = std::move(other); }
    PinnedIndex& operator=(PinnedIndex&& other) noexcept {
      if (this != &other) {
        Release();
        manager_ = std::exchange(other.manager_, nullptr);
        index_ = std::move(other.index_);
        generation_ = other.generation_;
      }
      return *this;
    }
    ~PinnedIndex() { Release(); }

    /// Drops the pin early (idempotent; the dtor does this otherwise).
    void Release();

    const ResolutionIndex& operator*() const { return *index_; }
    const ResolutionIndex* operator->() const { return index_.get(); }
    uint64_t generation() const { return generation_; }
    bool valid() const { return index_ != nullptr; }

   private:
    friend class IndexManager;
    const IndexManager* manager_ = nullptr;
    std::shared_ptr<const ResolutionIndex> index_;
    uint64_t generation_ = 1;
  };

  /// Seeds the manager with the initial snapshot as generation 1.
  explicit IndexManager(std::shared_ptr<const ResolutionIndex> initial);

  /// Pins the current snapshot. Generations observed by repeated Acquire
  /// calls on any one thread are non-decreasing.
  PinnedIndex Acquire() const;

  /// Installs `next` as the new current snapshot and returns its
  /// generation. The previous generation is retired (no new pins) and
  /// freed once its last pin drops. Fault seam: an injected I/O error at
  /// util::FaultPoint::kIndexPublish fails the publish with a typed
  /// UNAVAILABLE *without* installing anything — the previous generation
  /// stays current and the caller may retry.
  util::StatusOr<uint64_t> Publish(
      std::shared_ptr<const ResolutionIndex> next);

  /// Generation of the snapshot Acquire() would pin right now.
  uint64_t generation() const;
  /// Successful Publish() calls since construction.
  uint64_t publishes() const { return generation() - 1; }
  /// Currently outstanding pins across all generations — the gauge the
  /// chaos harness drives back to zero to prove retired snapshots free.
  uint64_t pinned_readers() const { return pinned_.load(); }

 private:
  mutable std::mutex mu_;
  std::shared_ptr<const ResolutionIndex> current_;  // guarded by mu_
  uint64_t generation_ = 1;                         // guarded by mu_
  mutable std::atomic<uint64_t> pinned_{0};
};

using PinnedIndex = IndexManager::PinnedIndex;

}  // namespace yver::serve

#endif  // YVER_SERVE_INDEX_MANAGER_H_
