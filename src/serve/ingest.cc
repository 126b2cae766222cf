#include "serve/ingest.h"

#include <algorithm>
#include <chrono>
#include <span>
#include <utility>
#include <vector>

#include "util/check.h"

namespace yver::serve {

util::StatusOr<std::unique_ptr<WriteAheadLog>> RecoverWal(
    const std::string& dir, const WalOptions& options,
    core::IncrementalResolver* resolver) {
  std::vector<WalRecoveredRecord> recovered;
  auto wal = WriteAheadLog::Open(dir, options, &recovered);
  if (!wal.ok()) {
    return util::Status(wal.status().code(), "wal recovery in " + dir +
                                                 ": " + wal.status().message());
  }
  // Sequence order is ack order: the determinism contract of replay.
  for (WalRecoveredRecord& record : recovered) {
    resolver->AddRecord(std::move(record.record));
  }
  return wal;
}

LiveIndexBuilder::LiveIndexBuilder(
    std::shared_ptr<ResolutionService> service,
    std::unique_ptr<core::IncrementalResolver> resolver,
    IngestOptions options)
    : service_(std::move(service)),
      resolver_(std::move(resolver)),
      options_(options) {
  YVER_CHECK_MSG(service_ != nullptr, "LiveIndexBuilder needs a service");
  YVER_CHECK_MSG(resolver_ != nullptr, "LiveIndexBuilder needs a resolver");
  if (options_.publish_batch == 0) options_.publish_batch = 1;
  base_records_ = resolver_->dataset().size();
  published_records_ = base_records_;
  if (options_.wal != nullptr) {
    YVER_CHECK_MSG(options_.wal_base_records <= base_records_,
                   "wal_base_records exceeds the seeded corpus");
  }
  builder_ = std::thread([this] { Run(); });
}

LiveIndexBuilder::~LiveIndexBuilder() { Stop(); }

util::StatusOr<data::RecordIdx> LiveIndexBuilder::Submit(
    data::Record record) {
  // Submitters serialize through submit_mu_, so with a WAL its sequence
  // order is exactly the queue's arrival order — the property that lets
  // replay reassign the same corpus indices the acks promised. It also
  // means at most one record is ever unacked: the newest. The fsync
  // happens under submit_mu_ only; queries, stats, and the builder never
  // block on it.
  std::lock_guard<std::mutex> submit_lock(submit_mu_);
  // The index is assigned here, at enqueue: base corpus + arrival
  // position. The builder applies strictly in queue order, so the record
  // is guaranteed to land at exactly this index in every generation that
  // contains it.
  data::RecordIdx idx = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      return util::Status::Unavailable("live ingest is shutting down");
    }
    if (queue_.size() >= options_.max_queue_depth) {
      return util::Status::ResourceExhausted("ingest queue is full");
    }
    idx = static_cast<data::RecordIdx>(base_records_ + submitted_);
    if (!durable()) {
      ++submitted_;
      queue_.push_back(std::move(record));
      work_cv_.notify_one();
      return idx;
    }
    // Durable: the builder gets a copy now and applies it while the log
    // syncs, but publishes nothing that holds it until the ack below.
    queue_.push_back(record);
    work_cv_.notify_one();
  }
  auto appended = options_.wal->Append(record);
  std::lock_guard<std::mutex> lock(mu_);
  // Stop may have begun during the append. A durable record will replay
  // (and take this same index) on the next startup, but the caller still
  // gets a typed refusal — an ack must mean "in the index soon", not
  // "maybe after a restart".
  util::Status refused =
      !appended.ok() ? appended.status()
      : stopping_    ? util::Status::Unavailable("live ingest is shutting down")
                     : util::Status::Ok();
  if (refused.ok()) {
    YVER_CHECK_MSG(WalSequenceFor(idx) == *appended,
                   "wal sequence diverged from the corpus index");
    ++submitted_;
    work_cv_.notify_one();  // the builder may be waiting for this ack
    return idx;
  }
  // Not acked, so it must leave the builder. It is the newest record:
  // still the back of the queue, or — when the queue is empty — already
  // taken by the builder, which then undoes it before anything else.
  if (!queue_.empty()) {
    queue_.pop_back();
    idle_cv_.notify_all();
  } else {
    retract_ = true;
    work_cv_.notify_one();
  }
  return refused;
}

util::Status LiveIndexBuilder::WaitForIdle(const util::Deadline& deadline) {
  std::unique_lock<std::mutex> lock(mu_);
  auto idle = [this] {
    return queue_.empty() && !retract_ &&
           published_records_ == base_records_ + submitted_;
  };
  if (deadline.is_infinite()) {
    idle_cv_.wait(lock, idle);
    return util::Status::Ok();
  }
  while (!idle()) {
    if (deadline.HasExpired()) return deadline.Exceeded("ingest idle wait");
    idle_cv_.wait_for(lock, std::chrono::milliseconds(5));
  }
  return util::Status::Ok();
}

void LiveIndexBuilder::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_ && !builder_.joinable()) return;
    stopping_ = true;
  }
  work_cv_.notify_all();
  if (builder_.joinable()) builder_.join();
}

IngestStats LiveIndexBuilder::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  IngestStats s;
  s.submitted = submitted_;
  s.applied = applied_;
  s.retracted = retracted_;
  s.published = published_;
  s.publish_failures = publish_failures_;
  return s;
}

std::shared_ptr<const ResolutionIndex> LiveIndexBuilder::NextGeneration()
    const {
  // Generations are immutable, so the next one is a new index: the last
  // one this builder built, extended by the matches found since — a merge
  // of the few new matches, not a re-sort of all of them. The first one is
  // built whole, here rather than at startup, so an idle builder holds no
  // second copy of the served index. It comes from the resolver alone,
  // never from the service: what another writer installed there must not
  // leak into this builder's generations.
  size_t num_records = resolver_->dataset().size();
  if (built_ == nullptr) {
    return std::make_shared<const ResolutionIndex>(resolver_->Resolution(),
                                                   num_records);
  }
  std::span<const core::RankedMatch> all(resolver_->matches());
  if (num_records == built_->num_records() && all.size() == built_matches_) {
    return built_;
  }
  return std::make_shared<const ResolutionIndex>(ResolutionIndex::Extend(
      *built_, all.subspan(built_matches_), num_records));
}

void LiveIndexBuilder::Run() {
  for (;;) {
    std::vector<data::Record> batch;
    bool retry = false;
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (dirty_) {
        // A publish failed: retry shortly, or sooner if work arrives.
        work_cv_.wait_for(lock, std::chrono::milliseconds(2), [this] {
          return stopping_ || !queue_.empty();
        });
      } else {
        work_cv_.wait(lock,
                      [this] { return stopping_ || !queue_.empty(); });
      }
      if (stopping_ && queue_.empty() && !dirty_) return;
      size_t take = std::min(options_.publish_batch, queue_.size());
      batch.reserve(take);
      for (size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      retry = dirty_;
    }
    if (batch.empty() && !retry) continue;
    // Apply in arrival order — the whole determinism contract of live
    // ingest rests on this being the only order records ever enter the
    // resolver in. With a WAL, the last record of the batch may still be
    // in its fsync; applying it and building the next generation overlap
    // that wait.
    for (data::Record& record : batch) {
      resolver_->AddRecord(std::move(record));
    }
    std::shared_ptr<const ResolutionIndex> next = NextGeneration();
    bool retracted = false;
    {
      // Publish only acked records. Every record but the last in the
      // batch is acked already (one append is in flight at a time), so
      // this waits for at most the last one's fsync, never the next's.
      std::unique_lock<std::mutex> lock(mu_);
      applied_ += batch.size();
      work_cv_.wait(lock, [this] {
        return retract_ ||
               base_records_ + submitted_ >= resolver_->dataset().size();
      });
      retracted = std::exchange(retract_, false);
      if (retracted) ++retracted_;
    }
    if (retracted) {
      resolver_->RetractLastRecord();
      batch.pop_back();
      if (!batch.empty() || retry) next = NextGeneration();
    }
    if (!batch.empty() || retry) Publish(std::move(next));
    idle_cv_.notify_all();
  }
}

void LiveIndexBuilder::Publish(std::shared_ptr<const ResolutionIndex> next) {
  // The built generation becomes the next base whether or not the publish
  // succeeds, so a retry republishes it as is.
  built_ = std::move(next);
  built_matches_ = resolver_->num_matches();
  auto published = service_->PublishIndex(built_);
  std::lock_guard<std::mutex> lock(mu_);
  if (published.ok()) {
    dirty_ = false;
    ++published_;
    published_records_ = built_->num_records();
  } else {
    // Resolver state is cumulative; the next round republishes
    // everything applied so far. Nothing is lost.
    dirty_ = true;
    ++publish_failures_;
  }
}

}  // namespace yver::serve
