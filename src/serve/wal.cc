#include "serve/wal.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <utility>

#include "serve/wire.h"
#include "util/fault_injector.h"

namespace yver::serve {

namespace {

// Same FNV-1a the .yvx artifact uses; one record's digest covers its
// (length, sequence, payload) bytes exactly as they sit in the file.
class Fnv1a {
 public:
  void Update(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      hash_ ^= p[i];
      hash_ *= 0x100000001b3ULL;
    }
  }
  uint64_t digest() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

constexpr char kSegmentMagic[8] = {'Y', 'V', 'E', 'R', 'W', 'A', 'L', '1'};
constexpr size_t kSegmentHeaderSize = 16;  // magic + first_sequence
constexpr size_t kRecordOverhead = 4 + 8 + 8;  // length + sequence + digest
// A WAL payload is one wire append frame; anything claiming to be larger
// cannot have been written by us.
constexpr size_t kMaxWalPayload = wire::kMaxFramePayload + wire::kHeaderSize;

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

uint32_t ReadU32(const char* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

uint64_t ReadU64(const char* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

std::string SegmentName(uint64_t first_sequence) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "wal-%016" PRIx64 ".yvw", first_sequence);
  return buf;
}

// A segment file Open found: its first sequence (from the name) and path.
struct Segment {
  uint64_t first_sequence = 0;
  std::string path;
};

util::Status Errno(const std::string& what) {
  return util::Status::Unavailable(what + ": " + std::strerror(errno));
}

util::Status WriteFully(int fd, const char* data, size_t n, off_t offset) {
  while (n > 0) {
    ssize_t wrote = ::pwrite(fd, data, n, offset);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      return Errno("wal write");
    }
    data += wrote;
    n -= static_cast<size_t>(wrote);
    offset += wrote;
  }
  return util::Status::Ok();
}

util::Status FsyncDir(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return Errno("open wal dir " + dir);
  int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return Errno("fsync wal dir " + dir);
  return util::Status::Ok();
}

/// Appends one framed record (length | sequence | payload | digest) to
/// `out`.
void FrameRecord(uint64_t sequence, std::string_view payload,
                 std::string* out) {
  size_t start = out->size();
  PutU32(out, static_cast<uint32_t>(payload.size()));
  PutU64(out, sequence);
  out->append(payload);
  Fnv1a fnv;
  fnv.Update(out->data() + start, 12 + payload.size());
  PutU64(out, fnv.digest());
}

}  // namespace

WriteAheadLog::WriteAheadLog(std::string dir, WalOptions options)
    : dir_(std::move(dir)), options_(options) {
  if (options_.segment_bytes < kSegmentHeaderSize + kRecordOverhead) {
    options_.segment_bytes = kSegmentHeaderSize + kRecordOverhead;
  }
}

WriteAheadLog::~WriteAheadLog() {
  if (fd_ >= 0) ::close(fd_);
}

util::StatusOr<std::unique_ptr<WriteAheadLog>> WriteAheadLog::Open(
    const std::string& dir, const WalOptions& options,
    std::vector<WalRecoveredRecord>* recovered) {
  recovered->clear();
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Errno("mkdir " + dir);
  }
  std::unique_ptr<WriteAheadLog> wal(new WriteAheadLog(dir, options));

  // Enumerate segments, oldest first.
  std::vector<Segment> segments;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return Errno("opendir " + dir);
  while (struct dirent* ent = ::readdir(d)) {
    uint64_t first = 0;
    int consumed = 0;
    if (std::sscanf(ent->d_name, "wal-%16" SCNx64 ".yvw%n", &first,
                    &consumed) == 1 &&
        static_cast<size_t>(consumed) == std::strlen(ent->d_name) &&
        first > 0) {
      segments.push_back(Segment{first, dir + "/" + ent->d_name});
    }
  }
  ::closedir(d);
  std::sort(segments.begin(), segments.end(),
            [](const Segment& a, const Segment& b) {
              return a.first_sequence < b.first_sequence;
            });

  auto& injector = util::FaultInjector::Global();
  // Segments are never deleted, so the log starts at sequence 1: a first
  // segment that starts later fails the header check below as DATA_LOSS.
  uint64_t next_expected = 1;
  wal->segments_ = segments.size();

  for (size_t s = 0; s < segments.size(); ++s) {
    const Segment& seg = segments[s];
    bool last_segment = (s + 1 == segments.size());
    int fd = ::open(seg.path.c_str(), O_RDONLY);
    if (fd < 0) return Errno("open " + seg.path);
    std::string bytes;
    char buf[1 << 16];
    for (;;) {
      ssize_t got = ::read(fd, buf, sizeof(buf));
      if (got < 0) {
        if (errno == EINTR) continue;
        ::close(fd);
        return Errno("read " + seg.path);
      }
      if (got == 0) break;
      bytes.append(buf, static_cast<size_t>(got));
    }
    ::close(fd);

    if (bytes.size() < kSegmentHeaderSize) {
      // A header shorter than 16 bytes can only be a segment torn at
      // creation; tolerable only at the very tail of the log.
      if (!last_segment) {
        return util::Status::DataLoss(seg.path +
                                      ": truncated segment header "
                                      "before the final segment");
      }
      bytes.clear();
    } else {
      if (std::memcmp(bytes.data(), kSegmentMagic, sizeof(kSegmentMagic)) !=
          0) {
        return util::Status::DataLoss(seg.path + ": not a YVERWAL1 segment");
      }
      uint64_t header_first = ReadU64(bytes.data() + 8);
      if (header_first != seg.first_sequence ||
          header_first != next_expected) {
        return util::Status::DataLoss(
            seg.path + ": segment sequence header mismatch (header says " +
            std::to_string(header_first) + ", expected " +
            std::to_string(next_expected) + ")");
      }
    }

    size_t off = bytes.empty() ? 0 : kSegmentHeaderSize;
    size_t valid_end = off;
    util::Status tail_damage = util::Status::Ok();
    while (off < bytes.size()) {
      size_t remaining = bytes.size() - off;
      if (remaining < kRecordOverhead) {
        tail_damage = util::Status::DataLoss(
            seg.path + ": incomplete record framing at offset " +
            std::to_string(off));
        break;
      }
      uint32_t len = ReadU32(bytes.data() + off);
      if (len > kMaxWalPayload) {
        tail_damage = util::Status::DataLoss(
            seg.path + ": implausible record length " + std::to_string(len) +
            " at offset " + std::to_string(off));
        break;
      }
      if (remaining < kRecordOverhead + len) {
        tail_damage = util::Status::DataLoss(
            seg.path + ": record extends past end of segment at offset " +
            std::to_string(off));
        break;
      }
      Fnv1a fnv;
      fnv.Update(bytes.data() + off, 12 + len);
      uint64_t stored = ReadU64(bytes.data() + off + 12 + len);
      if (stored != fnv.digest()) {
        tail_damage = util::Status::DataLoss(
            seg.path + ": record checksum mismatch at offset " +
            std::to_string(off));
        break;
      }
      uint64_t sequence = ReadU64(bytes.data() + off + 4);
      if (sequence != next_expected) {
        return util::Status::DataLoss(
            seg.path + ": sequence gap (record says " +
            std::to_string(sequence) + ", expected " +
            std::to_string(next_expected) + ")");
      }
      util::Status injected = injector.InjectIo(util::FaultPoint::kWalReplay);
      if (!injected.ok()) return injected;
      // The payload is a full wire append frame; a checksum-valid frame
      // that fails to decode was written wrong, which is corruption, not
      // a crash artifact.
      wire::Frame frame;
      auto consumed = wire::ExtractFrame(
          std::string_view(bytes.data() + off + 12, len), &frame);
      if (!consumed.ok() || *consumed != len ||
          frame.type != wire::FrameType::kAppendRequest) {
        return util::Status::DataLoss(seg.path +
                                      ": undecodable append frame at "
                                      "sequence " +
                                      std::to_string(sequence));
      }
      auto record = wire::DecodeAppend(frame);
      if (!record.ok()) {
        return util::Status::DataLoss(
            seg.path + ": undecodable append payload at sequence " +
            std::to_string(sequence) + ": " + record.status().message());
      }
      recovered->push_back(
          WalRecoveredRecord{sequence, *std::move(record)});
      ++next_expected;
      off += kRecordOverhead + len;
      valid_end = off;
    }

    if (!tail_damage.ok()) {
      // A bad record with nothing after it in the final segment is a torn
      // write: drop the tail and keep serving. The same damage anywhere
      // else means acked records were corrupted — refuse, typed.
      if (!last_segment) return tail_damage;
      wal->truncated_tail_bytes_ += bytes.size() - valid_end;
      bytes.resize(valid_end);
    }

    if (last_segment) {
      // Reopen for appending, truncating torn bytes (and rewriting a torn
      // header) so the on-disk state is exactly the recovered records.
      int wfd = ::open(seg.path.c_str(), O_WRONLY);
      if (wfd < 0) return Errno("open " + seg.path);
      if (bytes.empty()) {
        // The name encodes the first sequence; a torn header is only
        // rewritable when the name agrees with where the log actually is.
        if (seg.first_sequence != next_expected) {
          ::close(wfd);
          return util::Status::DataLoss(
              seg.path + ": torn header disagrees with the log position");
        }
        std::string header(kSegmentMagic, sizeof(kSegmentMagic));
        PutU64(&header, next_expected);
        if (::ftruncate(wfd, 0) != 0) {
          ::close(wfd);
          return Errno("truncate " + seg.path);
        }
        util::Status wrote = WriteFully(wfd, header.data(), header.size(), 0);
        if (!wrote.ok()) {
          ::close(wfd);
          return wrote;
        }
        bytes = header;
      } else if (::ftruncate(wfd, static_cast<off_t>(bytes.size())) != 0) {
        ::close(wfd);
        return Errno("truncate " + seg.path);
      }
      if (::fsync(wfd) != 0) {
        ::close(wfd);
        return Errno("fsync " + seg.path);
      }
      wal->fd_ = wfd;
      wal->active_size_ = bytes.size();
    }
  }

  if (segments.empty()) {
    util::Status created = wal->RotateLocked(1);
    if (!created.ok()) return created;
    util::Status synced = FsyncDir(dir);
    if (!synced.ok()) return synced;
  }

  wal->durable_sequence_ = next_expected - 1;
  wal->recovered_records_ = recovered->size();
  return wal;
}

util::Status WriteAheadLog::RotateLocked(uint64_t first_sequence) {
  std::string path = dir_ + "/" + SegmentName(first_sequence);
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return Errno("create " + path);
  std::string header(kSegmentMagic, sizeof(kSegmentMagic));
  PutU64(&header, first_sequence);
  util::Status wrote = WriteFully(fd, header.data(), header.size(), 0);
  if (!wrote.ok()) {
    ::close(fd);
    ::unlink(path.c_str());
    return wrote;
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    ::unlink(path.c_str());
    return Errno("fsync " + path);
  }
  if (fd_ >= 0) {
    ::close(fd_);
    ++rotations_;
  }
  fd_ = fd;
  active_size_ = kSegmentHeaderSize;
  ++segments_;
  return util::Status::Ok();
}

util::StatusOr<uint64_t> WriteAheadLog::Append(const data::Record& record) {
  util::Status injected =
      util::FaultInjector::Global().InjectIo(util::FaultPoint::kWalAppend);
  if (!injected.ok()) return injected;

  // Encode outside the lock; the payload is a full wire append frame.
  std::string payload;
  wire::EncodeAppend(record, &payload);

  std::lock_guard<std::mutex> lock(mu_);
  if (poisoned_) {
    return util::Status::DataLoss(
        "wal is poisoned (a rollback failed; on-disk state is unknowable)");
  }
  // A failed append leaves durable_sequence_ alone, so its sequence is
  // reused by the next one.
  uint64_t sequence = durable_sequence_ + 1;
  std::string framed;
  FrameRecord(sequence, payload, &framed);
  if (active_size_ >= options_.segment_bytes) {
    util::Status rotated = RotateLocked(sequence);
    if (!rotated.ok()) return rotated;
    util::Status synced = FsyncDir(dir_);
    if (!synced.ok()) return synced;
  }
  util::Status wrote = WriteFully(fd_, framed.data(), framed.size(),
                                  static_cast<off_t>(active_size_));
  if (wrote.ok()) {
    wrote = util::FaultInjector::Global().InjectIo(
        util::FaultPoint::kWalFsync);
    if (wrote.ok() && ::fsync(fd_) != 0) wrote = Errno("wal fsync");
  }
  if (!wrote.ok()) {
    // Roll the segment back to the last durable byte: a failed (unacked)
    // record must never survive to replay. If even the rollback fails the
    // on-disk state is unknowable and the log refuses further appends.
    if (::ftruncate(fd_, static_cast<off_t>(active_size_)) != 0) {
      poisoned_ = true;
      return util::Status::DataLoss(
          "wal rollback failed after a write error; log is poisoned (" +
          wrote.message() + ")");
    }
    return wrote;
  }
  active_size_ += framed.size();
  durable_sequence_ = sequence;
  ++appends_;
  ++fsyncs_;
  return sequence;
}

uint64_t WriteAheadLog::durable_sequence() const {
  std::lock_guard<std::mutex> lock(mu_);
  return durable_sequence_;
}

WalStats WriteAheadLog::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  WalStats s;
  s.appends = appends_;
  s.fsyncs = fsyncs_;
  s.rotations = rotations_;
  s.segments = segments_;
  s.durable_sequence = durable_sequence_;
  s.recovered_records = recovered_records_;
  s.truncated_tail_bytes = truncated_tail_bytes_;
  return s;
}

}  // namespace yver::serve
