#ifndef YVER_SERVE_INGEST_H_
#define YVER_SERVE_INGEST_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "core/incremental.h"
#include "data/record.h"
#include "serve/resolution_service.h"
#include "serve/wal.h"
#include "util/deadline.h"
#include "util/status.h"

namespace yver::serve {

/// Tuning knobs for a LiveIndexBuilder.
struct IngestOptions {
  /// Records drained from the queue per builder round; every round that
  /// applied at least one record ends in a publish, so this is the
  /// publish granularity (1 = a generation per record, larger batches
  /// amortize the snapshot build under bursty ingest).
  size_t publish_batch = 1;
  /// Submissions beyond this many undrained records are shed with
  /// RESOURCE_EXHAUSTED (ingest backpressure).
  size_t max_queue_depth = 4096;
  /// Durable ingest (DESIGN.md §14): when set, Submit appends the record
  /// to this log and returns only once it is fsync'd — the returned index
  /// (and the wire ack built from it) means *durable*, not *enqueued*.
  /// The builder applies the record during the fsync but publishes it
  /// only after the ack, so every visible record is durable too.
  /// Not owned; must outlive the builder.
  WriteAheadLog* wal = nullptr;
  /// Corpus records that are NOT in the WAL (the seed corpus the log's
  /// first record lands after): WAL sequence s occupies corpus index
  /// wal_base_records + s - 1. Only meaningful with `wal`.
  size_t wal_base_records = 0;
};

/// Crash recovery for durable live ingest (DESIGN.md §14), and the only
/// restart path: the WAL is the one durable record of appends. `resolver`
/// must be seeded with exactly the corpus the log's first record lands
/// after (the builder's IngestOptions::wal_base_records). Replays every
/// log record into `resolver` in sequence order — the order the records
/// were acked in — so afterwards the resolver holds the seed corpus plus
/// the acked prefix at the corpus indices the acks promised, and an index
/// built from it equals the one served before the crash. Returns the
/// reopened log, ready to back IngestOptions::wal; its
/// stats().recovered_records is the replayed count. Errors are
/// WriteAheadLog::Open's, typed (DATA_LOSS on corruption or a missing
/// segment, UNAVAILABLE on I/O failure).
util::StatusOr<std::unique_ptr<WriteAheadLog>> RecoverWal(
    const std::string& dir, const WalOptions& options,
    core::IncrementalResolver* resolver);

/// Point-in-time ingest counters.
struct IngestStats {
  uint64_t submitted = 0;        // records acked (with a WAL: fsync'd)
  uint64_t applied = 0;          // records run through the resolver
  uint64_t retracted = 0;        // applied records undone: never acked
  uint64_t published = 0;        // successful index publishes
  uint64_t publish_failures = 0; // failed publishes (retried next round)
};

/// The live half of the archive (DESIGN.md §13): a single background
/// builder thread that turns appended reports into published index
/// generations. `Submit` assigns the record its corpus index at enqueue
/// time (base corpus size + arrival position) and returns at once (with a
/// WAL: once the record is fsync'd);
/// the builder drains the queue in arrival order, feeds each record
/// through core::IncrementalResolver (item interning, candidate
/// generation, scoring — the paper's trickle-ingest path), extends the
/// last generation it built by the new matches (ResolutionIndex::Extend)
/// into an immutable ResolutionIndex, and installs it via
/// ResolutionService::PublishIndex.
///
/// Determinism contract: the final published index is a pure function of
/// (seed corpus, submission order) — batch boundaries and publish
/// failures only change *which intermediate* generations exist, never
/// the bytes of the final one. The builder is deliberately one thread:
/// arrival order is the only order.
///
/// Failure model: a publish that fails (fault injection at
/// serve.index.publish) leaves the resolver state intact and the builder
/// dirty; the built snapshot stays the base, and the next round publishes
/// it (extended by whatever was applied meanwhile), so a transiently
/// failing publish delays visibility but never loses or reorders records.
/// With a WAL, the builder applies a record while its append is still
/// in flight and publishes only once every record it applied is acked.
/// An append that fails, or that Stop overtakes, is not acked and leaves
/// no trace: Submit pops the record if it is still queued, and otherwise
/// the builder undoes it (IncrementalResolver::RetractLastRecord) before
/// anything else. So the served index always equals a serial replay of
/// the acked records, and no generation ever holds an unacked one.
class LiveIndexBuilder {
 public:
  /// Takes ownership of a seeded resolver and starts the builder thread.
  /// Its first publish builds a whole index from the resolver's
  /// resolution; later ones extend the last index it built.
  /// The resolver must be seeded with exactly the corpus the service's
  /// current index was built over.
  LiveIndexBuilder(std::shared_ptr<ResolutionService> service,
                   std::unique_ptr<core::IncrementalResolver> resolver,
                   IngestOptions options = {});
  ~LiveIndexBuilder();

  LiveIndexBuilder(const LiveIndexBuilder&) = delete;
  LiveIndexBuilder& operator=(const LiveIndexBuilder&) = delete;

  /// Enqueues one report and returns the corpus index it will occupy once
  /// published. RESOURCE_EXHAUSTED when the queue is full, UNAVAILABLE
  /// after Stop. Thread-safe; arrival order across concurrent submitters
  /// is whatever order they won the submit lock in — each caller's records
  /// keep their relative order.
  ///
  /// With a WAL configured, Submit enqueues a copy of the record, then
  /// appends it to the log and blocks on the fsync; a successful return
  /// means the record survives a crash. The builder applies the copy
  /// during the fsync, but no generation holds it before this ack. A
  /// failed append (its typed status is returned) or one that Stop
  /// overtook (UNAVAILABLE) takes the record out of the builder again,
  /// and its index goes to the next submit. Submitters serialize around
  /// the append: WAL order *is* arrival order, which is what makes replay
  /// reproduce the exact corpus indices that were acked.
  util::StatusOr<data::RecordIdx> Submit(data::Record record);

  /// True when appends are written through a WAL (the ack means durable).
  bool durable() const { return options_.wal != nullptr; }

  /// The WAL sequence that produced (or will produce) corpus index `idx`.
  /// Only meaningful when durable().
  uint64_t WalSequenceFor(data::RecordIdx idx) const {
    return static_cast<uint64_t>(idx) - options_.wal_base_records + 1;
  }

  /// Blocks until everything acked so far is applied AND published
  /// (the service is serving a generation that contains it) and no
  /// refused record is left to retract, or the
  /// deadline expires (DEADLINE_EXCEEDED). Publish faults make this wait
  /// through the retry rounds.
  util::Status WaitForIdle(const util::Deadline& deadline = {});

  /// Drains the queue, publishes what it can, and joins the builder
  /// thread. Idempotent; the dtor calls it. New Submits are refused from
  /// the moment Stop begins.
  void Stop();

  IngestStats stats() const;

  /// Records in the seed corpus (the first appended record gets this
  /// index).
  size_t base_records() const { return base_records_; }

 private:
  void Run();

  /// Builder-thread only: the generation over the resolver's current
  /// state, extended from built_ (built_ itself when nothing changed).
  std::shared_ptr<const ResolutionIndex> NextGeneration() const;

  /// Builder-thread only: makes `next` the built generation and
  /// publishes it.
  void Publish(std::shared_ptr<const ResolutionIndex> next);

  std::shared_ptr<ResolutionService> service_;
  std::unique_ptr<core::IncrementalResolver> resolver_;  // builder thread only
  /// The last generation this builder built (published or not; null
  /// before the first publish) and how many of the resolver's matches()
  /// it holds; the next publish extends it by the rest. Builder thread
  /// only.
  std::shared_ptr<const ResolutionIndex> built_;
  size_t built_matches_ = 0;
  IngestOptions options_;
  size_t base_records_ = 0;

  /// Serializes submits: the enqueue and the WAL append (including its
  /// fsync) happen under this lock so the log order equals the queue
  /// order and at most one record is unacked. The fsync wait happens
  /// here, not under mu_, so nothing else that wants mu_ waits on the
  /// disk.
  std::mutex submit_mu_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   // builder wakes on submit/ack/stop
  std::condition_variable idle_cv_;   // waiters wake on publish
  std::deque<data::Record> queue_;
  bool stopping_ = false;
  /// Applied-but-not-yet-published records exist (a publish failed).
  bool dirty_ = false;
  /// The unacked record's append failed after the builder took it; the
  /// builder must retract it.
  bool retract_ = false;
  uint64_t submitted_ = 0;            // acked records
  /// Corpus size of the last generation this builder published.
  size_t published_records_ = 0;
  uint64_t applied_ = 0;
  uint64_t retracted_ = 0;
  uint64_t published_ = 0;
  uint64_t publish_failures_ = 0;

  std::thread builder_;
};

}  // namespace yver::serve

#endif  // YVER_SERVE_INGEST_H_
