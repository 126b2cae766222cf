#ifndef YVER_DATA_DATASET_H_
#define YVER_DATA_DATASET_H_

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "data/record.h"

namespace yver::data {

/// An unordered pair of record indices with canonical ordering (a < b).
struct RecordPair {
  RecordIdx a = 0;
  RecordIdx b = 0;

  RecordPair() = default;
  RecordPair(RecordIdx x, RecordIdx y) : a(x < y ? x : y), b(x < y ? y : x) {}

  friend bool operator==(const RecordPair&, const RecordPair&) = default;
  friend bool operator<(const RecordPair& lhs, const RecordPair& rhs) {
    return lhs.a != rhs.a ? lhs.a < rhs.a : lhs.b < rhs.b;
  }
};

/// Hash functor for RecordPair, usable with unordered containers.
struct RecordPairHash {
  size_t operator()(const RecordPair& p) const {
    uint64_t k = (static_cast<uint64_t>(p.a) << 32) | p.b;
    k ^= k >> 33;
    k *= 0xff51afd7ed558ccdULL;
    k ^= k >> 33;
    return static_cast<size_t>(k);
  }
};

/// A collection of victim reports plus ground-truth helpers.
class Dataset {
 public:
  Dataset() = default;

  /// Appends a record, returning its index.
  RecordIdx Add(Record record);

  /// Removes the last record (the undo of the last Add). The dataset must
  /// not be empty.
  void RemoveLast();

  size_t size() const { return records_.size(); }
  bool empty() const { return records_.empty(); }

  const Record& operator[](RecordIdx i) const { return records_[i]; }
  Record& operator[](RecordIdx i) { return records_[i]; }

  const std::vector<Record>& records() const { return records_; }

  /// True when both records carry a known latent entity id and they agree.
  bool IsGoldMatch(RecordIdx i, RecordIdx j) const;

  /// True when both records share a known latent family id.
  bool IsGoldFamilyMatch(RecordIdx i, RecordIdx j) const;

  /// All ground-truth matched pairs (records sharing a known entity id).
  /// Quadratic only within each latent entity's record set, which the
  /// archival experts bound at <= 8 records (paper §4.1).
  std::vector<RecordPair> GoldPairs() const;

  /// Number of ground-truth matched pairs.
  size_t NumGoldPairs() const;

  /// Groups record indices by latent entity id (records with unknown ids
  /// are skipped).
  std::unordered_map<int64_t, std::vector<RecordIdx>> GroupByEntity() const;

 private:
  std::vector<Record> records_;
};

}  // namespace yver::data

#endif  // YVER_DATA_DATASET_H_
