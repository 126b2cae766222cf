#ifndef YVER_CORE_INCREMENTAL_H_
#define YVER_CORE_INCREMENTAL_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/ranked_resolution.h"
#include "data/dataset.h"
#include "data/item_dictionary.h"
#include "features/feature_extractor.h"
#include "ml/adtree.h"

namespace yver::core {

/// Incremental uncertain ER. The Names database never stops growing
/// (30,000 Pages of Testimony a year through the 1990s, §2); re-running
/// the full blocking pipeline per arriving report is wasteful. The
/// resolver keeps the item-level inverted index live: each new record's
/// items retrieve existing records sharing enough content, the trained
/// ADTree scores those candidate pairs, and positive-scoring matches
/// extend the ranked resolution immediately.
///
/// This trades MFIBlocks' sparse-neighborhood control for a simple
/// shared-item candidate rule — appropriate for the trickle of new
/// reports, with periodic full re-blocking as the batch path.
///
/// Candidate contract: an existing record is a candidate when it shares
/// at least `min_shared_items` items with the new one; candidates are
/// ordered by (shared count, record index), both descending, and the
/// first `max_candidates` are scored in that order. The pair is a total
/// order (indices are distinct), so which candidates are kept, and the
/// order they are scored in, never depends on how the counts were
/// gathered. They are gathered in a dense per-record counter sized to
/// the corpus plus a list of the records it touched: a record's count
/// is read and reset through that list, so a call allocates nothing and
/// clears nothing beyond the records its items actually reach. The
/// items' postings are walked shortest first, and a list stops adding
/// records once no record it could add can be kept: one that only the
/// lists still to walk reach shares at most as many items as there are
/// such lists, which is too few once that number is below
/// `min_shared_items` (so at least the `min_shared_items - 1` longest
/// lists never add one), or once `max_candidates` touched records
/// already share more. The remaining lists only raise the counts of
/// records already touched, so every kept candidate's count is exact and
/// the kept candidates and their order are those of a full walk,
/// whichever way ties in length are ordered. Candidates are scored on
/// the features the model reads (features::FeatureMask), which give
/// AdTree::Score the same value as a full extraction.
class IncrementalResolver {
 public:
  struct Options {
    /// Minimum items a candidate must share with the new record.
    size_t min_shared_items = 2;
    /// At most this many candidates (by shared-item count) are scored per
    /// new record.
    size_t max_candidates = 64;
  };

  /// Seeds the resolver with an existing corpus, its resolved matches and
  /// the deployed classifier. `geo_resolver` may be empty.
  IncrementalResolver(const data::Dataset& initial,
                      const RankedResolution& initial_resolution,
                      ml::AdTree model, data::GeoResolver geo_resolver,
                      const Options& options);
  IncrementalResolver(const data::Dataset& initial,
                      const RankedResolution& initial_resolution,
                      ml::AdTree model, data::GeoResolver geo_resolver = {})
      : IncrementalResolver(initial, initial_resolution, std::move(model),
                            std::move(geo_resolver), Options()) {}
  virtual ~IncrementalResolver() = default;

  IncrementalResolver(const IncrementalResolver&) = delete;
  IncrementalResolver& operator=(const IncrementalResolver&) = delete;

  /// Ingests one report: indexes it and matches it against the corpus.
  /// Returns the record's index and appends any new matches.
  data::RecordIdx AddRecord(data::Record record);

  /// Undoes the most recent AddRecord exactly: the record leaves the
  /// dataset, its postings (it is the last entry of each), item bag,
  /// comparison columns and matches go, and its items' frequencies drop
  /// by one. Items and tokens it interned stay in their dictionaries;
  /// neither the candidate rule nor any feature depends on id values, so
  /// every later AddRecord finds the candidates, scores and matches a
  /// resolver that never saw the record would. Afterwards last_matches()
  /// is empty. CHECK-fails unless an AddRecord came since the last
  /// retraction (the live builder retracts an append whose WAL write
  /// failed after the record was applied).
  void RetractLastRecord();

  /// The matches discovered for the most recent AddRecord call.
  const std::vector<RankedMatch>& last_matches() const {
    return last_matches_;
  }

  /// Current corpus (initial + ingested records).
  const data::Dataset& dataset() const { return dataset_; }

  /// All matches (initial + incremental), as a ranked resolution.
  RankedResolution Resolution() const;

  /// All matches in the order they were found: the initial resolution's
  /// matches, then each AddRecord's matches in scoring order. A suffix of
  /// this list is exactly what the calls since some point added, which is
  /// what lets a live index extend its last generation instead of
  /// re-sorting everything (serve::ResolutionIndex::Extend).
  const std::vector<RankedMatch>& matches() const { return matches_; }

  size_t num_matches() const { return matches_.size(); }

 protected:
  /// (shared-item count, existing record index); candidates are ranked
  /// descending on the pair.
  using Candidate = std::pair<uint32_t, data::RecordIdx>;

  /// The candidate rule (see the class comment): fills `out` with the
  /// kept candidates for a new record whose deduplicated, sorted item bag
  /// is `bag`, best first. Runs before the new record is indexed, so it
  /// never sees itself. Virtual only so that tests can substitute the
  /// reference rule the dense counter must match.
  virtual void SelectCandidates(const data::ItemBag& bag,
                                std::vector<Candidate>* out);

  const Options& options() const { return options_; }
  /// item -> existing records containing it, ascending.
  const std::vector<std::vector<data::RecordIdx>>& postings() const {
    return postings_;
  }

 private:
  Options options_;
  ml::AdTree model_;
  data::GeoResolver geo_resolver_;
  data::Dataset dataset_;
  data::EncodedDataset encoded_;
  std::unique_ptr<features::FeatureExtractor> extractor_;
  // item -> records containing it (live postings).
  std::vector<std::vector<data::RecordIdx>> postings_;
  std::vector<RankedMatch> matches_;
  std::vector<RankedMatch> last_matches_;
  // The last AddRecord has not been retracted (RetractLastRecord's
  // precondition: only one call's effects are known exactly).
  bool retractable_ = false;
  // SelectCandidates scratch: shared-item count per existing record (all
  // zero between calls) and the records with a non-zero count.
  std::vector<uint32_t> shared_counts_;
  std::vector<data::RecordIdx> touched_;
  // SelectCandidates scratch: the new record's items, shortest posting
  // first, and at_least_[c], the touched records sharing c or more items.
  std::vector<data::ItemId> by_length_;
  std::vector<size_t> at_least_;
  std::vector<Candidate> candidates_;
  // The features model_ reads (AdTree::UsedFeatures), the only ones
  // AddRecord extracts, into one reused vector.
  features::FeatureMask used_features_;
  features::FeatureExtractor::Scratch scratch_;
  features::FeatureVector features_;
};

}  // namespace yver::core

#endif  // YVER_CORE_INCREMENTAL_H_
