#ifndef YVER_TESTS_SUPPORT_REFERENCE_GROUPED_SUPPORTS_H_
#define YVER_TESTS_SUPPORT_REFERENCE_GROUPED_SUPPORTS_H_

#include <vector>

#include "data/item_dictionary.h"
#include "mining/itemset.h"
#include "support/reference_inverted_index.h"
#include "util/thread_pool.h"

namespace yver::blocking {

/// FindSupport of Algorithm 1 for a whole batch of mined itemsets: the
/// records of `bags` that contain every item of each itemset, sorted
/// ascending — slot i equals index.Support(itemsets[i].items).
///
/// MFIBlocks ran this after FPMax until mining::MineItemsets returned
/// each itemset with its support set; it is kept as the support half of
/// the FPMax + GroupedSupports oracle. Test-only.
///
/// Itemsets are grouped by their rarest item a (fewest postings in
/// `index`, which must be built over `bags`; ties go to the smaller id).
/// Each group gets one bitset row per other item of its itemsets, with
/// bit k set when the k-th record of a's postings holds that item; the
/// rows are filled from those records' bags, so a frequent item costs no
/// more than a rare one. A support set is then the AND of its items' rows,
/// read out bit by bit in ascending order. Groups run in parallel on
/// `pool` (when non-null), each writing only its own itemsets' slots.
std::vector<std::vector<data::RecordIdx>> GroupedSupports(
    const data::InvertedIndex& index, const std::vector<data::ItemBag>& bags,
    const std::vector<mining::FrequentItemset>& itemsets,
    util::ThreadPool* pool = nullptr);

}  // namespace yver::blocking

#endif  // YVER_TESTS_SUPPORT_REFERENCE_GROUPED_SUPPORTS_H_
