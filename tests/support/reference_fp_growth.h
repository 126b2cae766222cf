#ifndef YVER_TESTS_SUPPORT_REFERENCE_FP_GROWTH_H_
#define YVER_TESTS_SUPPORT_REFERENCE_FP_GROWTH_H_

#include <cstdint>
#include <vector>

#include "data/item_dictionary.h"
#include "mining/itemset.h"
#include "util/thread_pool.h"

namespace yver::mining {

// The FP-Growth miners that MFIBlocks used before mining::MineItemsets
// (FPMax with its parallel per-rank decomposition, and FPClose), kept as
// test oracles: the vertical miner must return the same itemset families,
// and the oracles are themselves checked against the brute-force miner.
// Never link this into production code.

/// Options controlling the FP-Growth miners.
struct FpMinerOptions {
  /// Minimum support (number of transactions) for a frequent itemset.
  uint32_t minsup = 2;

  /// Safety cap on the number of reported itemsets (0 = unlimited). When
  /// hit, mining stops early.
  size_t max_itemsets = 0;

  /// Maximum itemset length to explore (0 = unlimited). Only honored by
  /// MineFrequentItemsets.
  size_t max_length = 0;
};

/// Mines all frequent itemsets (support >= minsup, non-empty) from the
/// transaction bags via FP-Growth. Itemset items are sorted ascending by
/// ItemId. Intended for moderate inputs and as a reference for the maximal
/// miner; MFIBlocks uses MineMaximalItemsets.
std::vector<FrequentItemset> MineFrequentItemsets(
    const std::vector<data::ItemBag>& transactions,
    const FpMinerOptions& options);

/// Mines the maximal frequent itemsets (MFIs) via FP-Growth with
/// FPMax-style subsumption pruning: a branch whose head ∪ tail is contained
/// in a known MFI cannot yield a new maximal set and is skipped.
///
/// The conditional FP-tree of each frequent-item rank of the initial tree
/// is mined as its own task (with a task-local FPMax store), and the
/// per-rank itemset vectors are concatenated in the serial rank order,
/// least frequent rank first. Candidate i of that concatenation survives
/// unless some earlier candidate j has items_i ⊆ items_j or some
/// candidate j anywhere has items_i ⊊ items_j; survivors keep their
/// order (FilterRankOrderedMaximal). When `pool` is non-null, workers
/// claim rank tasks one at a time and the survivor rule is decided per
/// candidate in parallel. The returned vector — contents AND order — is
/// identical for every pool size including nullptr: it equals the serial
/// FPMax output, whose global store inserts in exactly this order and
/// keeps exactly these sets. One caveat: with a non-zero `max_itemsets`
/// cap the decomposition applies the cap per rank and then truncates the
/// merged list, so a capped run may return a different (still
/// deterministic) subset than a single global FPMax store would.
std::vector<FrequentItemset> MineMaximalItemsets(
    const std::vector<data::ItemBag>& transactions,
    const FpMinerOptions& options, util::ThreadPool* pool = nullptr);

/// Mines the closed frequent itemsets (CFIs): frequent itemsets with no
/// strict superset of equal support. Implemented as a full FP-Growth
/// enumeration plus a closedness filter — more expensive than the maximal
/// miner but lossless on support structure. Used by the MFI-vs-CFI
/// blocking ablation.
std::vector<FrequentItemset> MineClosedItemsets(
    const std::vector<data::ItemBag>& transactions,
    const FpMinerOptions& options);

/// The cross-task maximality filter of the parallel FPMax decomposition.
/// `tasks` is a rank-ordered candidate list: task t's candidates, in
/// discovery order, concatenated in task order, where every superset of a
/// candidate lives in the same or an earlier task. Candidates must be
/// non-empty, with items sorted ascending.
///
/// Candidate i of the concatenation survives unless some earlier j has
/// items_i ⊆ items_j (a duplicate or subset of something seen first) or
/// some j anywhere has items_i ⊊ items_j. This is the rule a serial store
/// applies when it inserts every candidate in order, refusing those
/// subsumed by what it holds, and then harvests the sets nothing stored
/// strictly contains — but each candidate is decided on its own, so the
/// decisions run in parallel on `pool` (when non-null). The rank-order
/// precondition lets a check stop at the end of the candidate's own task.
/// Survivors are returned in their input order, so the result — contents
/// and order — does not depend on the pool size.
std::vector<FrequentItemset> FilterRankOrderedMaximal(
    std::vector<std::vector<FrequentItemset>> tasks,
    util::ThreadPool* pool = nullptr);

}  // namespace yver::mining

#endif  // YVER_TESTS_SUPPORT_REFERENCE_FP_GROWTH_H_
