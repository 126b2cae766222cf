#ifndef YVER_MINING_MAXIMAL_FILTER_H_
#define YVER_MINING_MAXIMAL_FILTER_H_

#include <vector>

#include "mining/itemset.h"

namespace yver::mining {

/// Reference maximality filter: keeps the itemsets that are not a strict
/// subset of any other itemset in the input. Quadratic; used by the
/// brute-force miner.
std::vector<FrequentItemset> FilterMaximal(
    std::vector<FrequentItemset> itemsets);

/// Closedness filter: keeps the itemsets with no strict superset of the
/// SAME support in the input. The input must be a complete frequent-
/// itemset collection (e.g. from BruteForceFrequentItemsets) for the result to
/// be the closed frequent itemsets. Closed sets subsume maximal sets and
/// retain exact support information — the alternative blocking-key family
/// discussed for MFIBlocks (maximality trades completeness for far fewer
/// keys).
std::vector<FrequentItemset> FilterClosed(
    std::vector<FrequentItemset> itemsets);

}  // namespace yver::mining

#endif  // YVER_MINING_MAXIMAL_FILTER_H_
