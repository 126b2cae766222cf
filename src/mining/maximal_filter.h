#ifndef YVER_MINING_MAXIMAL_FILTER_H_
#define YVER_MINING_MAXIMAL_FILTER_H_

#include <vector>

#include "mining/itemset.h"
#include "util/thread_pool.h"

namespace yver::mining {

/// Reference maximality filter: keeps the itemsets that are not a strict
/// subset of any other itemset in the input. Quadratic; used for testing
/// the FPMax pruning inside MineMaximalItemsets and by the brute-force
/// miner.
std::vector<FrequentItemset> FilterMaximal(
    std::vector<FrequentItemset> itemsets);

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

/// Closedness filter: keeps the itemsets with no strict superset of the
/// SAME support in the input. The input must be a complete frequent-
/// itemset collection (e.g. from MineFrequentItemsets) for the result to
/// be the closed frequent itemsets. Closed sets subsume maximal sets and
/// retain exact support information — the alternative blocking-key family
/// discussed for MFIBlocks (maximality trades completeness for far fewer
/// keys).
std::vector<FrequentItemset> FilterClosed(
    std::vector<FrequentItemset> itemsets);

}  // namespace yver::mining

#endif  // YVER_MINING_MAXIMAL_FILTER_H_
