#include "serve/index_manager.h"

#include "util/check.h"
#include "util/fault_injector.h"

namespace yver::serve {

IndexManager::IndexManager(std::shared_ptr<const ResolutionIndex> initial)
    : current_(std::move(initial)) {
  YVER_CHECK_MSG(current_ != nullptr, "IndexManager needs an initial index");
}

IndexManager::PinnedIndex IndexManager::Acquire() const {
  PinnedIndex pin;
  {
    std::lock_guard<std::mutex> lock(mu_);
    pin.index_ = current_;
    pin.generation_ = generation_;
  }
  pin.manager_ = this;
  ++pinned_;
  return pin;
}

void IndexManager::PinnedIndex::Release() {
  if (manager_ == nullptr) return;
  // Drop the reference before the gauge: once pinned_readers() reads 0,
  // every retired generation no pin holds has been freed.
  index_.reset();
  --std::exchange(manager_, nullptr)->pinned_;
}

util::StatusOr<uint64_t> IndexManager::Publish(
    std::shared_ptr<const ResolutionIndex> next) {
  YVER_CHECK_MSG(next != nullptr, "Publish needs an index");
  // Chaos seam: an injected failure aborts the publish before anything is
  // installed — the previous generation stays current and fully served.
  util::Status injected =
      util::FaultInjector::Global().InjectIo(util::FaultPoint::kIndexPublish);
  if (!injected.ok()) return injected;

  std::lock_guard<std::mutex> lock(mu_);
  // `next` takes the retired snapshot; unless a pin still shares it, it
  // is freed when this returns.
  current_.swap(next);
  return ++generation_;
}

uint64_t IndexManager::generation() const {
  std::lock_guard<std::mutex> lock(mu_);
  return generation_;
}

}  // namespace yver::serve
