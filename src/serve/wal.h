#ifndef YVER_SERVE_WAL_H_
#define YVER_SERVE_WAL_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "data/record.h"
#include "util/status.h"

namespace yver::serve {

/// Tuning knobs for a WriteAheadLog.
struct WalOptions {
  /// A segment that has grown past this many bytes is sealed and the next
  /// append opens a fresh one. Segments are never deleted, so this bounds
  /// each file's size, not the log's; small values exercise rotation.
  size_t segment_bytes = 4u << 20;
};

/// Point-in-time WAL counters.
struct WalStats {
  uint64_t appends = 0;            // records durably appended since Open
  uint64_t fsyncs = 0;             // data fsyncs issued, one per append
  uint64_t rotations = 0;          // segments sealed since Open
  uint64_t segments = 0;           // segment files currently on disk
  uint64_t durable_sequence = 0;   // highest sequence known durable
  uint64_t recovered_records = 0;  // records replayed by Open
  uint64_t truncated_tail_bytes = 0;  // torn bytes dropped by recovery
};

/// One record replayed by recovery: the decoded report plus the sequence
/// it was acked under. Sequences are 1-based and contiguous — sequence s
/// is the s-th record ever acked through this log.
struct WalRecoveredRecord {
  uint64_t sequence = 0;
  data::Record record;
};

/// Append-only durable log of ingested reports (DESIGN.md §14): the
/// persistence half of live ingest. `Append` returns only after the
/// record's bytes are on disk (fsync'd), so an acked append survives any
/// crash; `Open` replays what survived, tolerating a torn tail (a crash
/// mid-write) but refusing mid-file corruption with a typed DATA_LOSS.
///
/// On-disk layout: the directory holds segment files named
/// `wal-<first_sequence 016x>.yvw`, rotated at WalOptions::segment_bytes
/// and never deleted — the log is the one durable record of appended
/// reports, and restart replays all of it. Each segment is
///
///   8 bytes  magic "YVERWAL1"
///   u64      first_sequence (little-endian; must match the name)
///   repeated records:
///     u32    payload length
///     u64    sequence
///     bytes  payload — one wire kAppendRequest frame (serve::wire), so
///            the log speaks the exact dialect the TCP front end does and
///            replay reuses the append codec's validation
///     u64    FNV-1a over (length, sequence, payload) bytes
///
/// Durability contract: the bytes on disk are exactly the acked records.
/// Each append is one write and one fsync under the log's lock (its one
/// production caller, live ingest, appends one record at a time); a
/// failed write or fsync truncates the segment back to the last durable
/// offset and fails the append typed — a failed (unacked) append can
/// never reappear at recovery. The only permitted divergence is the
/// durable-but-unacked window: a crash after fsync but before the ack
/// reaches the client may replay a few records the client never saw the
/// ack for; those are always a contiguous suffix of the durable stream,
/// so the acked records are always a prefix of what recovery returns.
///
/// Recovery contract (`Open`): records are replayed in sequence order,
/// the first segment starts at sequence 1 and sequences must be contiguous
/// across segments. Segments are never deleted, so a log that starts later
/// or skips a sequence has lost acked records: DATA_LOSS. A record that
/// fails its checksum (or is incomplete) at the very tail of the *last*
/// segment is a torn write: the tail is truncated and the log reopens for
/// appending. The same damage anywhere else — mid-file, in a non-final
/// segment, or with valid bytes after it — is corruption, not a crash
/// artifact, and Open fails with DATA_LOSS rather than silently dropping
/// acked records.
///
/// Thread-safe: concurrent Appends serialize on the lock; stats may race
/// with appends.
class WriteAheadLog {
 public:
  /// Opens (creating the directory and first segment if needed) and
  /// replays the log: `*recovered` receives every surviving record in
  /// sequence order. Typed DATA_LOSS on mid-file corruption or a missing
  /// segment, UNAVAILABLE on I/O errors (including injected
  /// serve.wal.replay faults).
  static util::StatusOr<std::unique_ptr<WriteAheadLog>> Open(
      const std::string& dir, const WalOptions& options,
      std::vector<WalRecoveredRecord>* recovered);

  ~WriteAheadLog();

  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;

  /// Durably appends one record and returns its sequence. Blocks until
  /// the record is fsync'd. On failure (typed UNAVAILABLE / DATA_LOSS) the
  /// record is guaranteed NOT to be on disk and its sequence is reused —
  /// on-disk bytes always equal the acked records exactly.
  util::StatusOr<uint64_t> Append(const data::Record& record);

  /// Highest sequence known durable (0 before the first append).
  uint64_t durable_sequence() const;

  WalStats stats() const;

 private:
  WriteAheadLog(std::string dir, WalOptions options);

  util::Status RotateLocked(uint64_t first_sequence);

  std::string dir_;
  WalOptions options_;

  mutable std::mutex mu_;
  uint64_t segments_ = 0;          // segment files; the newest is active
  int fd_ = -1;                    // active segment, O_APPEND-less plain fd
  uint64_t active_size_ = 0;       // bytes in the active segment
  uint64_t durable_sequence_ = 0;  // highest fsync'd sequence
  bool poisoned_ = false;          // a rollback failed; refuse all appends
  uint64_t appends_ = 0;
  uint64_t fsyncs_ = 0;
  uint64_t rotations_ = 0;
  uint64_t recovered_records_ = 0;
  uint64_t truncated_tail_bytes_ = 0;
};

}  // namespace yver::serve

#endif  // YVER_SERVE_WAL_H_
