#ifndef YVER_TESTS_SUPPORT_REFERENCE_INCREMENTAL_CANDIDATES_H_
#define YVER_TESTS_SUPPORT_REFERENCE_INCREMENTAL_CANDIDATES_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "core/incremental.h"
#include "data/dataset.h"
#include "data/item_dictionary.h"

namespace yver::core {

/// The original incremental candidate rule, preserved as the executable
/// specification of IncrementalResolver's dense-counter rule: shared-item
/// counts in an unordered_map over every posting of the new record's
/// items, then a full descending sort on (count, record index) of every
/// record sharing at least `min_shared_items` items, cut to
/// `max_candidates`.
///
/// Test-only: tests/ingest_equivalence_test.cc checks that the
/// production rule keeps the same candidates in the same order, and
/// bench/bench_ingest.cc times it as the "before" side. Never link this
/// into production code.
std::vector<std::pair<size_t, data::RecordIdx>> ReferenceIncrementalCandidates(
    const std::vector<std::vector<data::RecordIdx>>& postings,
    const data::ItemBag& bag, size_t min_shared_items, size_t max_candidates);

/// An IncrementalResolver whose candidate rule is the reference above;
/// everything else (interning, indexing, scoring) is the production code.
class ReferenceCandidateResolver : public IncrementalResolver {
 public:
  using IncrementalResolver::IncrementalResolver;

 protected:
  void SelectCandidates(const data::ItemBag& bag,
                        std::vector<Candidate>* out) override;
};

}  // namespace yver::core

#endif  // YVER_TESTS_SUPPORT_REFERENCE_INCREMENTAL_CANDIDATES_H_
