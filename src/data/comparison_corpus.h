#ifndef YVER_DATA_COMPARISON_CORPUS_H_
#define YVER_DATA_COMPARISON_CORPUS_H_

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "data/item_dictionary.h"
#include "data/record.h"
#include "data/schema.h"
#include "geo/geo.h"
#include "text/qgram.h"

namespace yver::data {

/// Dense id of a distinct normalized (ASCII-lowercased) attribute value.
/// Token ids are shared across attributes: equal normalized strings map to
/// equal ids, so set operations over token spans are exactly set
/// operations over the lowercased value sets the string-path extractor
/// used to rebuild per pair.
using TokenId = uint32_t;

/// Sentinel for "attribute absent" in first-value code columns.
inline constexpr uint32_t kNoValueCode = UINT32_MAX;

/// The columnar comparison corpus: every per-record quantity the
/// 48-feature comparison stage needs, precomputed once at encode time and
/// laid out in flat CSR-style arrays addressed by RecordIdx.
///
/// MFIBlocks deliberately emits overlapping soft blocks, so a record takes
/// part in many candidate pairs; re-lowercasing, re-sorting, re-q-gramming
/// and re-resolving geo lookups per *pair* repeats identical work dozens
/// of times per record. This layer moves all of it to a one-time columnar
/// encode:
///
///   - token spans   : per (record, attribute), the lowercased, sorted,
///                     deduplicated value set as a span of interned
///                     TokenIds (sorted by id — set identity is what
///                     matters, and id order is shared by both sides of
///                     any comparison);
///   - q-gram sets   : per distinct token (not per pair), the sorted
///                     unique padded-bigram id set, so XnameDist becomes a
///                     memoized integer-merge Jaccard;
///   - birth parts   : per record, the strtod-parsed day/month/year of
///                     the first birth-date values (NaN when absent);
///   - geo spans     : per (record, place type), the resolved coordinates
///                     of the record's city values, in value order;
///   - code columns  : per record, the raw (case-sensitive) first-value
///                     codes of gender and profession, and the source id.
///
/// Invariants:
///   - the build is deterministic: ids are assigned in record/entry order,
///     so two builds over the same EncodedDataset are identical;
///   - views are immutable once encoded: SyncWithDataset (the incremental
///     streaming workload) only appends new records' columns, and
///     RemoveLastRecord only drops the last record's; neither rewrites an
///     existing entry, and neither may run concurrently with readers;
///   - per-pair consumption is allocation-free: every accessor returns a
///     span or a scalar into storage owned by the corpus.
class ComparisonCorpus {
 public:
  /// Builds the corpus from an encoded dataset. The encoded dataset (and
  /// its underlying Dataset) must outlive the corpus.
  explicit ComparisonCorpus(const EncodedDataset& encoded);

  ComparisonCorpus(const ComparisonCorpus&) = delete;
  ComparisonCorpus& operator=(const ComparisonCorpus&) = delete;

  /// Encodes the columnar views of records appended to the dataset after
  /// construction (IncrementalResolver adds records one at a time). The
  /// appended records' item bags and dictionary entries must already be in
  /// place. Appends only; not thread-safe with concurrent readers.
  void SyncWithDataset();

  /// Drops the columns of the last encoded record (the undo of the
  /// SyncWithDataset that encoded it, when IncrementalResolver retracts
  /// it). Tokens and exact codes it interned stay: no comparison depends
  /// on id values, only on id equality and a shared order. Not
  /// thread-safe with concurrent readers.
  void RemoveLastRecord();

  size_t num_records() const { return num_records_; }
  size_t num_tokens() const { return token_strings_.size(); }

  /// Sorted, deduplicated normalized-token ids of (record, attribute).
  std::span<const TokenId> Tokens(RecordIdx r, AttributeId attr) const {
    size_t slot = static_cast<size_t>(r) * kNumAttributes +
                  static_cast<size_t>(attr);
    return std::span<const TokenId>(token_ids_.data() + token_offsets_[slot],
                                    token_offsets_[slot + 1] -
                                        token_offsets_[slot]);
  }

  /// Sorted unique padded-bigram id set of a token, computed once when the
  /// token entered the dictionary.
  std::span<const uint32_t> TokenQGrams(TokenId t) const {
    return std::span<const uint32_t>(gram_ids_.data() + gram_offsets_[t],
                                     gram_offsets_[t + 1] - gram_offsets_[t]);
  }

  /// Normalized string of a token (debugging / tests).
  const std::string& TokenString(TokenId t) const { return token_strings_[t]; }

  /// Parsed birth-date parts of a record: day, month, year; NaN when the
  /// record lacks the component.
  const std::array<double, 3>& BirthParts(RecordIdx r) const {
    return birth_parts_[r];
  }

  /// Resolved coordinates of the record's city values for one place type,
  /// in value order (unresolvable values are skipped).
  std::span<const geo::GeoPoint> GeoPoints(RecordIdx r, PlaceType type) const {
    size_t slot = static_cast<size_t>(r) * kNumPlaceTypes +
                  static_cast<size_t>(type);
    return std::span<const geo::GeoPoint>(
        geo_points_.data() + geo_offsets_[slot],
        geo_offsets_[slot + 1] - geo_offsets_[slot]);
  }

  /// Raw (case-sensitive) first-value code of gender / profession, or
  /// kNoValueCode when absent. Codes of equal raw strings are equal.
  uint32_t GenderCode(RecordIdx r) const { return gender_codes_[r]; }
  uint32_t ProfessionCode(RecordIdx r) const { return profession_codes_[r]; }

  /// Source id column (copied out of Record for cache-local access).
  uint32_t SourceId(RecordIdx r) const { return source_ids_[r]; }

 private:
  TokenId InternToken(std::string normalized);
  uint32_t InternExact(std::string_view raw);
  void EncodeRecord(const Record& record);

  const EncodedDataset* encoded_ = nullptr;
  size_t num_records_ = 0;

  /// Reused per-record encode scratch: values bucketed by attribute.
  std::array<std::vector<TokenId>, kNumAttributes> bucket_scratch_;

  // Normalized token dictionary + per-token memoized q-gram id sets.
  std::unordered_map<std::string, TokenId> token_index_;
  std::vector<std::string> token_strings_;
  std::vector<uint32_t> gram_offsets_;  // size num_tokens + 1
  std::vector<uint32_t> gram_ids_;
  text::QGramIdInterner gram_interner_;

  // (record x attribute) -> token id span, CSR.
  std::vector<uint32_t> token_offsets_;  // size num_records * 28 + 1
  std::vector<TokenId> token_ids_;

  // Birth-date parts, parsed once per record.
  std::vector<std::array<double, 3>> birth_parts_;

  // (record x place type) -> geo point span, CSR.
  std::vector<uint32_t> geo_offsets_;  // size num_records * 4 + 1
  std::vector<geo::GeoPoint> geo_points_;

  // First-value code columns (raw string identity) + source column.
  std::unordered_map<std::string, uint32_t> exact_index_;
  std::vector<uint32_t> gender_codes_;
  std::vector<uint32_t> profession_codes_;
  std::vector<uint32_t> source_ids_;
};

}  // namespace yver::data

#endif  // YVER_DATA_COMPARISON_CORPUS_H_
