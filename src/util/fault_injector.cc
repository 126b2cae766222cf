#include "util/fault_injector.h"

#include <chrono>
#include <string>
#include <thread>

namespace yver::util {

namespace {

// splitmix64: the same mixer util::Rng seeds from. One step per hit keeps
// the per-(point, ordinal) draw independent of every other hit.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double ToUnitDouble(uint64_t x) {
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

}  // namespace

const char* FaultPointName(FaultPoint point) {
  switch (point) {
    case FaultPoint::kIndexLoadOpen:
      return "serve.index_load.open";
    case FaultPoint::kIndexLoadRead:
      return "serve.index_load.read";
    case FaultPoint::kMatchesCsvLoad:
      return "core.matches_csv.load";
    case FaultPoint::kMatchesCsvSave:
      return "core.matches_csv.save";
    case FaultPoint::kDatasetCsvLoad:
      return "data.dataset_csv.load";
    case FaultPoint::kServiceCompute:
      return "serve.service.compute";
    case FaultPoint::kSocketRead:
      return "net.socket.read";
    case FaultPoint::kSocketWrite:
      return "net.socket.write";
    case FaultPoint::kIndexPublish:
      return "serve.index.publish";
    case FaultPoint::kIndexSave:
      return "serve.index.save";
    case FaultPoint::kWalAppend:
      return "serve.wal.append";
    case FaultPoint::kWalFsync:
      return "serve.wal.fsync";
    case FaultPoint::kWalReplay:
      return "serve.wal.replay";
    case FaultPoint::kNumPoints:
      break;
  }
  return "unknown";
}

FaultInjector& FaultInjector::Global() {
  static FaultInjector* injector = new FaultInjector();
  return *injector;
}

void FaultInjector::Arm(const FaultConfig& config) {
  config_ = config;
  for (auto& o : ordinals_) o.store(0, std::memory_order_relaxed);
  for (auto& c : per_point_injected_) c.store(0, std::memory_order_relaxed);
  injected_.store(0, std::memory_order_relaxed);
  armed_.store(true, std::memory_order_release);
}

void FaultInjector::Disarm() {
  armed_.store(false, std::memory_order_release);
}

FaultKind FaultInjector::Evaluate(FaultPoint point) {
  if (!armed()) return FaultKind::kNone;
  size_t p = static_cast<size_t>(point);
  uint64_t ordinal = ordinals_[p].fetch_add(1, std::memory_order_relaxed);
  if (((config_.points >> p) & 1u) == 0) return FaultKind::kNone;
  double u = ToUnitDouble(
      Mix(config_.seed ^ (0x100000001b3ULL * (p + 1)) ^ ordinal));
  FaultKind kind = FaultKind::kNone;
  double edge = config_.io_error_probability;
  if (u < edge) {
    kind = FaultKind::kIoError;
  } else if (u < (edge += config_.latency_probability)) {
    kind = FaultKind::kLatency;
  } else if (u < (edge += config_.short_read_probability)) {
    kind = FaultKind::kShortRead;
  }
  if (kind == FaultKind::kNone) return kind;
  if (config_.max_injections > 0) {
    uint64_t prev = injected_.fetch_add(1, std::memory_order_relaxed);
    if (prev >= config_.max_injections) {
      injected_.fetch_sub(1, std::memory_order_relaxed);
      return FaultKind::kNone;
    }
  } else {
    injected_.fetch_add(1, std::memory_order_relaxed);
  }
  per_point_injected_[p].fetch_add(1, std::memory_order_relaxed);
  if (kind == FaultKind::kLatency && config_.latency_micros > 0) {
    std::this_thread::sleep_for(
        std::chrono::microseconds(config_.latency_micros));
  }
  return kind;
}

Status FaultInjector::InjectIo(FaultPoint point) {
  switch (Evaluate(point)) {
    case FaultKind::kIoError:
      return Status::Unavailable(std::string("injected I/O error at ") +
                                 FaultPointName(point));
    case FaultKind::kShortRead:
      return Status::DataLoss(std::string("injected short read at ") +
                              FaultPointName(point));
    case FaultKind::kLatency:
    case FaultKind::kNone:
      break;
  }
  return Status::Ok();
}

}  // namespace yver::util
