#include "serve/admission_controller.h"

#include <string>

namespace yver::serve {

util::Status AdmissionController::Admit(const util::Deadline& deadline,
                                        AdmissionWait wait) {
  if (unlimited()) return util::Status::Ok();
  std::unique_lock<std::mutex> lock(mu_);
  if (in_flight_ < options_.max_in_flight) {
    ++in_flight_;
    ++admitted_;
    return util::Status::Ok();
  }
  if (wait == AdmissionWait::kNever) {
    ++shed_;
    return util::Status::ResourceExhausted(
        "in-flight budget (" + std::to_string(options_.max_in_flight) +
        ") is full and the caller may not wait");
  }
  if (queued_ >= options_.max_queue_depth) {
    ++shed_;
    return util::Status::ResourceExhausted(
        "in-flight budget (" + std::to_string(options_.max_in_flight) +
        ") and wait queue (" + std::to_string(options_.max_queue_depth) +
        ") are full");
  }
  ++queued_;
  bool got_slot;
  if (deadline.is_infinite()) {
    slot_free_.wait(lock,
                    [this] { return in_flight_ < options_.max_in_flight; });
    got_slot = true;
  } else {
    got_slot = slot_free_.wait_until(
        lock, deadline.time_point(),
        [this] { return in_flight_ < options_.max_in_flight; });
  }
  --queued_;
  if (!got_slot) {
    ++deadline_expired_;
    return deadline.Exceeded("admission queue");
  }
  ++in_flight_;
  ++admitted_;
  return util::Status::Ok();
}

void AdmissionController::Release() {
  if (unlimited()) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (in_flight_ > 0) --in_flight_;
  }
  slot_free_.notify_one();
}

bool AdmissionController::Saturated() const {
  if (unlimited()) return false;
  std::lock_guard<std::mutex> lock(mu_);
  return in_flight_ >= options_.max_in_flight &&
         queued_ >= options_.max_queue_depth;
}

AdmissionSnapshot AdmissionController::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  AdmissionSnapshot s;
  s.admitted = admitted_;
  s.shed = shed_;
  s.deadline_expired = deadline_expired_;
  s.in_flight = in_flight_;
  s.queued = queued_;
  return s;
}

}  // namespace yver::serve
