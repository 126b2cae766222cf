#ifndef YVER_MINING_VERTICAL_MINER_H_
#define YVER_MINING_VERTICAL_MINER_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "data/item_dictionary.h"
#include "data/record.h"
#include "util/thread_pool.h"

namespace yver::mining {

/// Which itemset family the miner returns. The paper's MFIBlocks keys on
/// maximal frequent itemsets; closed itemsets are the lossless
/// alternative (every distinct support set gets a key).
enum class ItemsetKind : uint8_t { kMaximal = 0, kClosed };

/// Options of MineItemsets.
struct MinerOptions {
  /// Minimum support (number of transactions) of a frequent itemset.
  uint32_t minsup = 2;

  /// Itemset family to return.
  ItemsetKind kind = ItemsetKind::kMaximal;

  /// Itemsets with a larger support are counted in
  /// MinedItemsets::num_mined but not returned, so their support sets are
  /// never materialised.
  uint32_t max_support = std::numeric_limits<uint32_t>::max();
};

/// A mined itemset together with its support set.
struct SupportedItemset {
  /// Items, sorted ascending by id.
  std::vector<data::ItemId> items;

  /// The transactions holding every item, ascending; the support is
  /// tids.size().
  std::vector<data::RecordIdx> tids;

  friend bool operator==(const SupportedItemset&,
                         const SupportedItemset&) = default;
};

/// Output of MineItemsets.
struct MinedItemsets {
  /// Items are ranked by ascending support, ties to the larger id. Slot r
  /// holds, in depth-first order, the returned itemsets whose lowest-rank
  /// item is r. The slots, concatenated in rank order, are the miner's
  /// output order, and it is the same for every pool size.
  std::vector<std::vector<SupportedItemset>> by_root;

  /// Every itemset of the family, including those above max_support.
  size_t num_mined = 0;
};

/// Mines the maximal or closed frequent itemsets of the transactions
/// bags[rows[0]], bags[rows[1]], ..., each with its support set given as
/// values of `rows`. `rows` must be ascending; bags are sorted and
/// deduplicated (data::ItemBag).
///
/// A depth-first vertical miner in the LCM style. Root task r explores
/// the itemsets whose lowest-rank item is r, over the transactions that
/// hold r. At each node it counts the items of the node's transactions:
/// an item in every transaction that ranks after the node's branch item
/// joins the head, one that ranks before it prunes the subtree (its
/// closed set belongs to another branch), and so every surviving head is
/// a closed set, reached exactly once. A head is maximal iff no item
/// outside it is still frequent, an exact test that needs no store of
/// earlier results. Children keep only the items frequent in their
/// parent; below 65 transactions a node switches to 64-bit transaction
/// masks. Root tasks run on `pool` when it is non-null, each writing only
/// its own slot.
MinedItemsets MineItemsets(const std::vector<data::ItemBag>& bags,
                           const std::vector<data::RecordIdx>& rows,
                           const MinerOptions& options,
                           util::ThreadPool* pool = nullptr);

/// MineItemsets over every bag; support sets are indices into `bags`.
MinedItemsets MineItemsets(const std::vector<data::ItemBag>& bags,
                           const MinerOptions& options,
                           util::ThreadPool* pool = nullptr);

}  // namespace yver::mining

#endif  // YVER_MINING_VERTICAL_MINER_H_
