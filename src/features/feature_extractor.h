#ifndef YVER_FEATURES_FEATURE_EXTRACTOR_H_
#define YVER_FEATURES_FEATURE_EXTRACTOR_H_

#include <memory>
#include <span>
#include <vector>

#include "data/comparison_corpus.h"
#include "data/dataset.h"
#include "data/item_dictionary.h"
#include "features/feature_schema.h"
#include "util/thread_pool.h"

namespace yver::features {

/// Computes the 48-feature vector of §5.1 for candidate record pairs.
/// Features over attributes absent from either record are emitted as
/// missing (NaN); the ADTree then "considers only reachable decision
/// nodes".
///
/// Extraction runs over a data::ComparisonCorpus built once at
/// construction: per-record token spans, memoized per-token q-gram sets,
/// parsed date parts, resolved coordinates and code columns. The per-pair
/// path is therefore allocation-free integer work — no lowercasing,
/// sorting, q-gram extraction or dictionary lookups happen per pair — and
/// produces byte-identical values to the original string-path extractor
/// (enforced by tests/feature_equivalence_test.cc and the golden pipeline
/// fixture).
///
/// Extraction is a pure function of the corpus and the pair, so any number
/// of threads may extract concurrently. The batch API exploits that: pairs
/// are chunked over a thread pool with one Scratch per chunk, and every
/// vector is written into its slot by pair index, so the output order (and
/// every byte of every vector) is identical for any thread count.
class FeatureExtractor {
 public:
  /// Reusable per-thread working storage, kept for API stability. The
  /// columnar path needs no per-pair buffers (spans replace the old
  /// lowercase/sort scratch), so this is empty today; batch extraction
  /// still threads one Scratch per chunk so buffers can return without an
  /// API change.
  struct Scratch {};

  /// Builds the comparison corpus from the encoded dataset (one-time
  /// columnar encode). The extractor holds a reference to `encoded` and
  /// must not outlive it.
  explicit FeatureExtractor(const data::EncodedDataset& encoded);
  ~FeatureExtractor();

  /// Extracts the feature vector of a pair.
  FeatureVector Extract(data::RecordIdx a, data::RecordIdx b) const;

  /// Extracts into `out`, reusing its storage. Produces exactly the same
  /// values as Extract.
  void ExtractInto(data::RecordIdx a, data::RecordIdx b, Scratch* scratch,
                   FeatureVector* out) const;

  /// Extracts all `pairs` in order. With a pool, chunks are extracted in
  /// parallel with one Scratch per chunk; result[i] is always the vector
  /// of pairs[i] regardless of thread count.
  std::vector<FeatureVector> ExtractBatch(
      std::span<const data::RecordPair> pairs,
      util::ThreadPool* pool = nullptr) const;

  /// Encodes columnar views for records appended to the underlying dataset
  /// after construction (streaming workloads). Must be called before
  /// extracting a pair that involves an appended record; not thread-safe
  /// with concurrent extraction.
  void SyncAppendedRecords() { corpus_->SyncWithDataset(); }

  /// Drops the columnar views of the last record, which the caller is
  /// removing from the underlying dataset (streaming retraction). Not
  /// thread-safe with concurrent extraction.
  void RemoveLastRecord() { corpus_->RemoveLastRecord(); }

  /// The columnar views this extractor compares over.
  const data::ComparisonCorpus& corpus() const { return *corpus_; }

 private:
  const data::EncodedDataset& encoded_;
  std::unique_ptr<data::ComparisonCorpus> corpus_;
};

}  // namespace yver::features

#endif  // YVER_FEATURES_FEATURE_EXTRACTOR_H_
