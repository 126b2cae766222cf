#include "serve/resolution_index.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>

#include "util/atomic_io.h"
#include "util/check.h"
#include "util/fault_injector.h"

namespace yver::serve {

namespace {

// Artifact layout (little-endian, no padding):
//   8 bytes  magic "YVERIDX1"
//   u64      num_records
//   u64      num_matches
//   repeated u32 a, u32 b, f64 confidence, f64 block_score
//   u64      FNV-1a checksum of everything after the magic
constexpr char kMagic[8] = {'Y', 'V', 'E', 'R', 'I', 'D', 'X', '1'};

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

class Writer {
 public:
  explicit Writer(std::ofstream& f) : f_(f) {}
  template <typename T>
  void Put(T v) {
    static_assert(std::is_trivially_copyable_v<T>);
    f_.write(reinterpret_cast<const char*>(&v), sizeof(v));
    fnv_.Update(&v, sizeof(v));
  }
  uint64_t digest() const { return fnv_.digest(); }

 private:
  std::ofstream& f_;
  Fnv1a fnv_;
};

class Reader {
 public:
  explicit Reader(std::ifstream& f) : f_(f) {}
  template <typename T>
  bool Get(T* v) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (!f_.read(reinterpret_cast<char*>(v), sizeof(*v))) return false;
    fnv_.Update(v, sizeof(*v));
    return true;
  }
  uint64_t digest() const { return fnv_.digest(); }

 private:
  std::ifstream& f_;
  Fnv1a fnv_;
};

}  // namespace

std::shared_ptr<const ResolutionIndex::Arena> ResolutionIndex::MakeArena(
    std::vector<core::RankedMatch> matches, size_t num_records) {
  auto arena = std::make_shared<Arena>();
  arena->matches = std::move(matches);
  arena->adjacency = core::MatchAdjacency(arena->matches, num_records);
  return arena;
}

ResolutionIndex::ResolutionIndex(const core::RankedResolution& resolution,
                                 size_t num_records)
    : num_records_(num_records) {
  for (const auto& m : resolution.matches()) {
    YVER_CHECK_MSG(m.pair.b < num_records,
                   "match references record beyond the corpus");
  }
  arena_ = MakeArena(resolution.matches(), num_records);
}

util::StatusOr<ResolutionIndex> ResolutionIndex::Build(
    const core::RankedResolution& resolution, size_t num_records) {
  const auto& matches = resolution.matches();
  for (size_t row = 0; row < matches.size(); ++row) {
    const core::RankedMatch& m = matches[row];
    std::string what;
    if (m.pair.a >= m.pair.b) {
      what = "is not a pair of two distinct records";
    } else if (m.pair.b >= num_records) {
      what = "references a record beyond the " +
             std::to_string(num_records) + "-record corpus";
    } else if (std::isnan(m.confidence)) {
      what = "has a NaN confidence";
    } else {
      continue;
    }
    return util::Status::DataLoss("match row " + std::to_string(row) + " (" +
                                  std::to_string(m.pair.a) + ", " +
                                  std::to_string(m.pair.b) + ") " + what);
  }
  return ResolutionIndex(resolution, num_records);
}

ResolutionIndex ResolutionIndex::Extend(
    const ResolutionIndex& base, std::span<const core::RankedMatch> added,
    size_t num_records) {
  YVER_CHECK_MSG(num_records >= base.num_records_,
                 "an extended index cannot shrink the corpus");
  ResolutionIndex next;
  next.num_records_ = num_records;
  if (added.empty()) {
    // Same arena; the new records are past the adjacency's offset table,
    // where Neighbors() is empty, exactly as a rebuild would leave them.
    next.arena_ = base.arena_;
    return next;
  }
  std::vector<core::RankedMatch> sorted(added.begin(), added.end());
  std::stable_sort(sorted.begin(), sorted.end(), core::RankedBefore);
  const std::vector<core::RankedMatch>& from_arena = base.arena_->matches;
  std::vector<core::RankedMatch> merged;
  merged.reserve(from_arena.size() + sorted.size());
  // std::merge, with the long runs of base between insertion points
  // copied in bulk: each added match goes after every base match that is
  // not ranked strictly below it (upper_bound), so base wins ties.
  auto from = from_arena.begin();
  for (const core::RankedMatch& m : sorted) {
    YVER_CHECK_MSG(m.pair.b < num_records,
                   "match references record beyond the corpus");
    auto to = std::upper_bound(from, from_arena.end(), m, core::RankedBefore);
    merged.insert(merged.end(), from, to);
    merged.push_back(m);
    from = to;
  }
  merged.insert(merged.end(), from, from_arena.end());
  next.arena_ = MakeArena(std::move(merged), num_records);
  return next;
}

std::vector<core::RankedMatch> ResolutionIndex::ForRecord(data::RecordIdx r,
                                                          double certainty,
                                                          size_t k) const {
  std::vector<core::RankedMatch> out;
  auto neighbors = Neighbors(r);
  if (neighbors.empty()) return out;
  out.reserve(std::min<size_t>(k == 0 ? 8 : k, neighbors.size()));
  const std::vector<core::RankedMatch>& arena = arena_->matches;
  for (uint32_t idx : neighbors) {
    const core::RankedMatch& m = arena[idx];
    if (!(m.confidence > certainty)) break;  // confidence-descending
    out.push_back(m);
    if (k != 0 && out.size() == k) break;
  }
  return out;
}

size_t ResolutionIndex::CountAbove(double certainty) const {
  const std::vector<core::RankedMatch>& arena = arena_->matches;
  auto it = std::partition_point(arena.begin(), arena.end(),
                                 [certainty](const core::RankedMatch& m) {
                                   return m.confidence > certainty;
                                 });
  return static_cast<size_t>(it - arena.begin());
}

std::vector<core::RankedMatch> ResolutionIndex::AboveThreshold(
    double certainty) const {
  size_t n = CountAbove(certainty);
  const std::vector<core::RankedMatch>& arena = arena_->matches;
  return std::vector<core::RankedMatch>(arena.begin(), arena.begin() + n);
}

std::vector<core::RankedMatch> ResolutionIndex::TopK(size_t k) const {
  const std::vector<core::RankedMatch>& arena = arena_->matches;
  k = std::min(k, arena.size());
  return std::vector<core::RankedMatch>(arena.begin(), arena.begin() + k);
}

core::EntityClusters ResolutionIndex::ClustersAt(double certainty) const {
  return core::EntityClusters(arena_->matches, num_records_, certainty);
}

std::vector<data::RecordIdx> ResolutionIndex::EntityOf(
    data::RecordIdx r, double certainty) const {
  // Breadth-first over the matches above the threshold. Entities are a
  // handful of reports, so membership is a scan of the walk so far; one
  // that outgrows kScanLimit switches to a bitmap over the corpus.
  constexpr size_t kScanLimit = 32;
  const std::vector<core::RankedMatch>& arena = arena_->matches;
  std::vector<data::RecordIdx> members{r};
  std::vector<bool> seen;
  for (size_t i = 0; i < members.size(); ++i) {
    data::RecordIdx from = members[i];
    for (uint32_t idx : Neighbors(from)) {
      const core::RankedMatch& m = arena[idx];
      // The same test EntityClusters applies, so a NaN certainty also
      // admits every match.
      if (m.confidence <= certainty) break;  // confidence-descending
      data::RecordIdx to = m.pair.a == from ? m.pair.b : m.pair.a;
      if (seen.empty()) {
        if (std::find(members.begin(), members.end(), to) != members.end()) {
          continue;
        }
        members.push_back(to);
        if (members.size() > kScanLimit) {
          seen.assign(num_records_, false);
          for (data::RecordIdx member : members) seen[member] = true;
        }
      } else if (!seen[to]) {
        seen[to] = true;
        members.push_back(to);
      }
    }
  }
  std::sort(members.begin(), members.end());
  return members;
}

uint64_t ResolutionIndex::Checksum() const {
  // Must hash exactly the byte sequence Save writes after the magic, so
  // Checksum() equals the digest embedded in the artifact.
  Fnv1a fnv;
  auto put = [&fnv](auto v) { fnv.Update(&v, sizeof(v)); };
  put(static_cast<uint64_t>(num_records_));
  put(static_cast<uint64_t>(arena_->matches.size()));
  for (const auto& m : arena_->matches) {
    put(static_cast<uint32_t>(m.pair.a));
    put(static_cast<uint32_t>(m.pair.b));
    put(m.confidence);
    put(m.block_score);
  }
  return fnv.digest();
}

util::Status ResolutionIndex::Save(const std::string& path) const {
  // Crash-atomic: serialize in memory, write to path.tmp, fsync, then
  // rename over the destination (DESIGN.md §14). A crash — or an injected
  // serve.index.save fault — anywhere in here leaves whatever artifact
  // stood at `path` fully intact; a torn .yvx can never replace a good
  // one.
  util::Status injected =
      util::FaultInjector::Global().InjectIo(util::FaultPoint::kIndexSave);
  if (!injected.ok()) return injected;
  std::string bytes;
  bytes.reserve(sizeof(kMagic) + 16 + arena_->matches.size() * 24 + 8);
  bytes.append(kMagic, sizeof(kMagic));
  Fnv1a fnv;
  auto put = [&bytes, &fnv](auto v) {
    bytes.append(reinterpret_cast<const char*>(&v), sizeof(v));
    fnv.Update(&v, sizeof(v));
  };
  put(static_cast<uint64_t>(num_records_));
  put(static_cast<uint64_t>(arena_->matches.size()));
  for (const auto& m : arena_->matches) {
    put(static_cast<uint32_t>(m.pair.a));
    put(static_cast<uint32_t>(m.pair.b));
    put(m.confidence);
    put(m.block_score);
  }
  uint64_t digest = fnv.digest();
  bytes.append(reinterpret_cast<const char*>(&digest), sizeof(digest));
  return util::WriteFileAtomic(path, bytes);
}

util::StatusOr<ResolutionIndex> ResolutionIndex::Load(
    const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return util::Status::NotFound("cannot read " + path);
  util::Status injected =
      util::FaultInjector::Global().InjectIo(util::FaultPoint::kIndexLoadOpen);
  if (!injected.ok()) return injected;
  char magic[sizeof(kMagic)];
  if (!f.read(magic, sizeof(magic)) ||
      std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return util::Status::DataLoss(path + ": not a YVERIDX1 artifact");
  }
  Reader r(f);
  uint64_t num_records = 0, num_matches = 0;
  if (!r.Get(&num_records) || !r.Get(&num_matches)) {
    return util::Status::DataLoss(path + ": truncated header");
  }
  std::vector<core::RankedMatch> arena;
  arena.reserve(static_cast<size_t>(
      std::min<uint64_t>(num_matches, 1u << 20)));  // distrust huge counts
  double prev_confidence = std::numeric_limits<double>::infinity();
  for (uint64_t i = 0; i < num_matches; ++i) {
    injected = util::FaultInjector::Global().InjectIo(
        util::FaultPoint::kIndexLoadRead);
    if (!injected.ok()) return injected;
    uint32_t a = 0, b = 0;
    double confidence = 0, block_score = 0;
    if (!r.Get(&a) || !r.Get(&b) || !r.Get(&confidence) ||
        !r.Get(&block_score)) {
      return util::Status::DataLoss(path + ": truncated match arena");
    }
    if (a >= b || b >= num_records) {
      return util::Status::DataLoss(path + ": malformed record pair");
    }
    if (std::isnan(confidence) || confidence > prev_confidence) {
      return util::Status::DataLoss(path + ": arena not confidence-sorted");
    }
    prev_confidence = confidence;
    core::RankedMatch m;
    m.pair = data::RecordPair(a, b);
    m.confidence = confidence;
    m.block_score = block_score;
    arena.push_back(m);
  }
  uint64_t expected = r.digest();
  uint64_t stored = 0;
  if (!f.read(reinterpret_cast<char*>(&stored), sizeof(stored)) ||
      stored != expected) {
    return util::Status::DataLoss(path + ": checksum mismatch");
  }
  ResolutionIndex index;
  index.num_records_ = static_cast<size_t>(num_records);
  index.arena_ = MakeArena(std::move(arena), index.num_records_);
  return index;
}

util::StatusOr<ResolutionIndex> ResolutionIndex::LoadWithRetry(
    const std::string& path, const util::RetryPolicy& policy,
    util::RetryStats* stats, const util::Deadline& deadline) {
  return util::RetryWithPolicy(
      policy, [&path] { return Load(path); }, stats, deadline);
}

}  // namespace yver::serve
