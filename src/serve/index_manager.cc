#include "serve/index_manager.h"

#include <algorithm>
#include <utility>

#include "util/check.h"
#include "util/fault_injector.h"

namespace yver::serve {

IndexManager::IndexManager(std::shared_ptr<const ResolutionIndex> initial) {
  YVER_CHECK_MSG(initial != nullptr, "IndexManager needs an initial index");
  slots_[0].index = std::move(initial);
  slots_[0].generation = 1;
  // current_ starts as slot 0 with a zero pin counter.
}

IndexManager::~IndexManager() = default;

IndexManager::PinnedIndex IndexManager::Acquire() const {
  // The one-instruction pin: bump the counter half and learn the slot half
  // of the packed word atomically. Because the counter rides the same word
  // as the slot index, this pin is attributed to exactly the snapshot that
  // was current at this instant — Publish() will see it in the grant total
  // it swaps out, so the slot below cannot be reclaimed or reused before
  // our matching release. That is what makes the plain shared_ptr copy
  // safe without a validate-retry loop.
  uint64_t packed = current_.fetch_add(kOnePin, std::memory_order_acquire);
  size_t slot = static_cast<size_t>(packed & kSlotMask);
  const Slot& s = slots_[slot];
  return PinnedIndex(this, slot, s.index, s.generation);
}

void IndexManager::PinnedIndex::Release() {
  if (manager_ == nullptr) return;
  const IndexManager* manager = manager_;
  size_t slot = slot_;
  manager_ = nullptr;
  // Drop our reference before counting the release: once the slot's last
  // release lands, "reclaimed" means the snapshot is genuinely freeable.
  index_.reset();
  manager->ReleasePin(slot);
}

void IndexManager::ReleasePin(size_t slot) const {
  Slot& s = slots_[slot];
  // seq_cst, paired with Publish's retire: each side stores (releases
  // here, limit there) and then loads the other's word. That is a
  // store→load (Dekker) pattern; with acquire/release orders both loads
  // may miss the other side's store, nobody reclaims, and the slot leaks
  // for good. In the single total order of seq_cst operations one of the
  // two loads must see the other store, so at least one side reclaims.
  uint64_t released = s.releases.fetch_add(1, std::memory_order_seq_cst) + 1;
  // If the slot is retired and we were its last pinned reader, free it.
  // The publisher races this check from the retire side; MaybeReclaim is
  // idempotent under slots_mu_, so double reclaim attempts are benign.
  if (released == s.limit.load(std::memory_order_seq_cst)) {
    MaybeReclaim(slot);
  }
}

void IndexManager::MaybeReclaim(size_t slot) const {
  Slot& s = slots_[slot];
  std::shared_ptr<const ResolutionIndex> dropped;
  {
    std::lock_guard<std::mutex> lock(slots_mu_);
    if (s.index == nullptr) return;  // already reclaimed
    uint64_t limit = s.limit.load(std::memory_order_acquire);
    if (limit == kNoLimit) return;  // current (or reinstalled) — keep
    if (s.releases.load(std::memory_order_acquire) != limit) return;
    dropped = std::move(s.index);
  }
  slot_freed_.notify_all();
  // `dropped` destroys the snapshot outside the lock.
}

util::StatusOr<uint64_t> IndexManager::Publish(
    std::shared_ptr<const ResolutionIndex> next) {
  YVER_CHECK_MSG(next != nullptr, "Publish needs an index");
  // Chaos seam: an injected failure aborts the publish before anything is
  // installed — the previous generation stays current and fully served.
  util::Status injected =
      util::FaultInjector::Global().InjectIo(util::FaultPoint::kIndexPublish);
  if (!injected.ok()) return injected;

  std::lock_guard<std::mutex> publish_lock(publish_mu_);
  size_t cur =
      static_cast<size_t>(current_.load(std::memory_order_relaxed) & kSlotMask);
  size_t target = kNumSlots;
  {
    // Stage the new snapshot into a quiescent slot. Waiting here (ring
    // exhausted by slow readers) blocks only publishers — Acquire never
    // touches these locks.
    std::unique_lock<std::mutex> lock(slots_mu_);
    slot_freed_.wait(lock, [&] {
      for (size_t i = 1; i < kNumSlots; ++i) {
        size_t cand = (cur + i) % kNumSlots;
        if (slots_[cand].index == nullptr) {
          target = cand;
          return true;
        }
      }
      return false;
    });
    Slot& s = slots_[target];
    s.index = std::move(next);
    s.generation = generation_.load(std::memory_order_relaxed) + 1;
    s.releases.store(0, std::memory_order_relaxed);
    s.limit.store(kNoLimit, std::memory_order_relaxed);
  }
  // The swap: from here on every Acquire pins the new generation. The
  // packed word we swap out carries the exact number of pins granted
  // against the retired snapshot.
  uint64_t old_packed = current_.exchange(static_cast<uint64_t>(target),
                                          std::memory_order_acq_rel);
  size_t old_slot = static_cast<size_t>(old_packed & kSlotMask);
  uint64_t granted = old_packed >> kSlotBits;
  uint64_t new_generation = slots_[target].generation;
  generation_.store(new_generation, std::memory_order_release);
  publishes_.fetch_add(1, std::memory_order_relaxed);
  // Retire the old snapshot: fix its grant total so the release side
  // knows when it has fully drained, then reclaim right away if it
  // already has. Both operations are seq_cst; see ReleasePin.
  Slot& old_s = slots_[old_slot];
  old_s.limit.store(granted, std::memory_order_seq_cst);
  if (old_s.releases.load(std::memory_order_seq_cst) == granted) {
    MaybeReclaim(old_slot);
  }
  return new_generation;
}

uint64_t IndexManager::pinned_readers() const {
  std::lock_guard<std::mutex> lock(slots_mu_);
  uint64_t packed = current_.load(std::memory_order_acquire);
  size_t cur = static_cast<size_t>(packed & kSlotMask);
  uint64_t granted = packed >> kSlotBits;
  uint64_t released = slots_[cur].releases.load(std::memory_order_acquire);
  // Saturating: a release can land between the two loads above.
  uint64_t total = granted > released ? granted - released : 0;
  for (size_t i = 0; i < kNumSlots; ++i) {
    if (i == cur) continue;
    const Slot& s = slots_[i];
    if (s.index == nullptr) continue;
    uint64_t limit = s.limit.load(std::memory_order_acquire);
    if (limit == kNoLimit) continue;
    uint64_t rel = s.releases.load(std::memory_order_acquire);
    if (limit > rel) total += limit - rel;
  }
  return total;
}

size_t IndexManager::retained_snapshots() const {
  std::lock_guard<std::mutex> lock(slots_mu_);
  size_t n = 0;
  for (const Slot& s : slots_) n += (s.index != nullptr) ? 1 : 0;
  return n;
}

}  // namespace yver::serve
