#include "mining/fp_growth.h"

#include <algorithm>
#include <unordered_map>

#include "mining/fp_tree.h"
#include "mining/maximal_filter.h"
#include "util/check.h"

namespace yver::mining {

namespace {

// An FP-tree whose ranks map back to global item ids.
struct RankedTree {
  FpTree tree;
  std::vector<data::ItemId> rank_to_item;

  explicit RankedTree(uint32_t num_ranks) : tree(num_ranks) {}
};

// Orders candidate (item, frequency) pairs by descending frequency, tie on
// ascending item id, and assigns ranks.
std::vector<data::ItemId> RankItems(
    std::vector<std::pair<data::ItemId, uint32_t>>& freq) {
  std::sort(freq.begin(), freq.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  std::vector<data::ItemId> rank_to_item;
  rank_to_item.reserve(freq.size());
  for (const auto& [item, count] : freq) rank_to_item.push_back(item);
  return rank_to_item;
}

RankedTree BuildInitialTree(const std::vector<data::ItemBag>& transactions,
                            uint32_t minsup) {
  // Dictionary ids are dense, so per-item state is a flat array.
  data::ItemId max_item = 0;
  for (const auto& bag : transactions) {
    for (data::ItemId item : bag) max_item = std::max(max_item, item);
  }
  std::vector<uint32_t> counts(static_cast<size_t>(max_item) + 1, 0);
  for (const auto& bag : transactions) {
    for (data::ItemId item : bag) ++counts[item];
  }
  std::vector<std::pair<data::ItemId, uint32_t>> freq;
  for (data::ItemId item = 0; item < counts.size(); ++item) {
    if (counts[item] >= minsup) freq.emplace_back(item, counts[item]);
  }
  std::vector<data::ItemId> rank_to_item = RankItems(freq);
  constexpr uint32_t kInfrequent = UINT32_MAX;
  std::vector<uint32_t> item_to_rank(counts.size(), kInfrequent);
  for (uint32_t r = 0; r < rank_to_item.size(); ++r) {
    item_to_rank[rank_to_item[r]] = r;
  }
  RankedTree ranked(static_cast<uint32_t>(rank_to_item.size()));
  ranked.rank_to_item = std::move(rank_to_item);
  std::vector<uint32_t> ranks;
  for (const auto& bag : transactions) {
    ranks.clear();
    for (data::ItemId item : bag) {
      if (item_to_rank[item] != kInfrequent) ranks.push_back(item_to_rank[item]);
    }
    if (ranks.empty()) continue;
    std::sort(ranks.begin(), ranks.end());
    ranked.tree.Insert(ranks, 1);
  }
  return ranked;
}

// Buffers BuildConditional reuses from call to call. A conditional tree is
// complete before the miner recurses into it, so one scratch serves a
// whole depth-first walk.
struct ConditionalScratch {
  std::vector<uint32_t> cond_counts;
  std::vector<uint32_t> by_new_rank;
  std::vector<uint32_t> old_rank_to_new;
  // The pattern base, flat: path k is path_ranks[ends[k - 1], ends[k])
  // with multiplicity counts[k].
  std::vector<uint32_t> path_ranks;
  std::vector<uint32_t> path_ends;
  std::vector<uint32_t> path_counts;
  std::vector<uint32_t> ranks;
};

// Builds the conditional tree for `rank` within `parent`: collect the
// prefix path of every node in rank's header chain, recount, filter by
// minsup, re-rank, and insert.
RankedTree BuildConditional(const RankedTree& parent, uint32_t rank,
                            uint32_t minsup, ConditionalScratch& scratch) {
  // Only ranks < rank can occur on a prefix path.
  std::vector<uint32_t>& cond_counts = scratch.cond_counts;
  cond_counts.assign(rank, 0);
  scratch.path_ranks.clear();
  scratch.path_ends.clear();
  scratch.path_counts.clear();
  for (const FpTree::Node* n = parent.tree.Header(rank); n != nullptr;
       n = n->next_in_header) {
    const size_t begin = scratch.path_ranks.size();
    for (const FpTree::Node* p = n->parent;
         p != nullptr && p->rank != FpTree::kRootRank; p = p->parent) {
      scratch.path_ranks.push_back(p->rank);
      cond_counts[p->rank] += n->count;
    }
    if (scratch.path_ranks.size() == begin) continue;
    scratch.path_ends.push_back(
        static_cast<uint32_t>(scratch.path_ranks.size()));
    scratch.path_counts.push_back(n->count);
  }
  // Same order as RankItems: frequency descending, item id ascending.
  std::vector<uint32_t>& by_new_rank = scratch.by_new_rank;
  by_new_rank.clear();
  for (uint32_t r = 0; r < rank; ++r) {
    if (cond_counts[r] >= minsup) by_new_rank.push_back(r);
  }
  std::sort(by_new_rank.begin(), by_new_rank.end(),
            [&](uint32_t a, uint32_t b) {
              if (cond_counts[a] != cond_counts[b]) {
                return cond_counts[a] > cond_counts[b];
              }
              return parent.rank_to_item[a] < parent.rank_to_item[b];
            });
  RankedTree cond(static_cast<uint32_t>(by_new_rank.size()));
  if (by_new_rank.empty()) return cond;
  constexpr uint32_t kDropped = UINT32_MAX;
  std::vector<uint32_t>& old_rank_to_new = scratch.old_rank_to_new;
  old_rank_to_new.assign(rank, kDropped);
  cond.rank_to_item.reserve(by_new_rank.size());
  for (uint32_t nr = 0; nr < by_new_rank.size(); ++nr) {
    old_rank_to_new[by_new_rank[nr]] = nr;
    cond.rank_to_item.push_back(parent.rank_to_item[by_new_rank[nr]]);
  }
  std::vector<uint32_t>& ranks = scratch.ranks;
  uint32_t begin = 0;
  for (size_t k = 0; k < scratch.path_ends.size(); ++k) {
    ranks.clear();
    for (uint32_t i = begin; i < scratch.path_ends[k]; ++i) {
      uint32_t nr = old_rank_to_new[scratch.path_ranks[i]];
      if (nr != kDropped) ranks.push_back(nr);
    }
    begin = scratch.path_ends[k];
    if (ranks.empty()) continue;
    std::sort(ranks.begin(), ranks.end());
    cond.tree.Insert(ranks, scratch.path_counts[k]);
  }
  return cond;
}

FrequentItemset MakeItemset(std::vector<data::ItemId> items,
                            uint32_t support) {
  std::sort(items.begin(), items.end());
  return FrequentItemset{std::move(items), support};
}

// ---------------------------------------------------------------------------
// All frequent itemsets.

struct AllMiner {
  const MinerOptions& options;
  std::vector<FrequentItemset> out;
  bool capped = false;
  ConditionalScratch scratch;

  bool AtCap() const {
    return options.max_itemsets != 0 && out.size() >= options.max_itemsets;
  }

  void Mine(const RankedTree& ranked, std::vector<data::ItemId>& prefix) {
    if (capped) return;
    for (uint32_t rank = ranked.tree.num_ranks(); rank-- > 0;) {
      uint32_t support = ranked.tree.RankSupport(rank);
      if (support < options.minsup) continue;
      prefix.push_back(ranked.rank_to_item[rank]);
      out.push_back(MakeItemset(prefix, support));
      if (AtCap()) {
        capped = true;
        prefix.pop_back();
        return;
      }
      if (options.max_length == 0 || prefix.size() < options.max_length) {
        RankedTree cond =
            BuildConditional(ranked, rank, options.minsup, scratch);
        if (cond.tree.num_ranks() > 0) Mine(cond, prefix);
      }
      prefix.pop_back();
      if (capped) return;
    }
  }
};

// ---------------------------------------------------------------------------
// Maximal frequent itemsets (FPMax-style).

// Stores MFIs and answers "is this candidate a subset of a stored MFI".
class MfiStore {
 public:
  explicit MfiStore(size_t /*num_items_hint*/) {}

  // Candidate must be sorted ascending.
  bool IsSubsumed(const std::vector<data::ItemId>& candidate) const {
    if (candidate.empty()) return !mfis_.empty();
    // Scan the postings of the candidate item with the fewest postings.
    const std::vector<uint32_t>* best = nullptr;
    for (data::ItemId item : candidate) {
      auto it = postings_.find(item);
      if (it == postings_.end()) return false;  // item in no MFI
      if (best == nullptr || it->second.size() < best->size()) {
        best = &it->second;
      }
    }
    for (uint32_t idx : *best) {
      if (mfis_[idx].items.size() >= candidate.size() &&
          IsSubsetOf(candidate, mfis_[idx].items)) {
        return true;
      }
    }
    return false;
  }

  // Inserts if not subsumed. Does not remove previously inserted subsets;
  // the final Harvest() pass filters those out.
  void Insert(FrequentItemset mfi) {
    if (IsSubsumed(mfi.items)) return;
    uint32_t idx = static_cast<uint32_t>(mfis_.size());
    for (data::ItemId item : mfi.items) postings_[item].push_back(idx);
    mfis_.push_back(std::move(mfi));
  }

  // Returns the maximal sets only (later insertions can strictly contain
  // earlier ones).
  std::vector<FrequentItemset> Harvest() {
    std::vector<FrequentItemset> out;
    for (size_t i = 0; i < mfis_.size(); ++i) {
      bool subsumed = false;
      const auto& items = mfis_[i].items;
      if (!items.empty()) {
        const std::vector<uint32_t>* best = nullptr;
        for (data::ItemId item : items) {
          const auto& plist = postings_[item];
          if (best == nullptr || plist.size() < best->size()) best = &plist;
        }
        for (uint32_t idx : *best) {
          if (idx != i && mfis_[idx].items.size() > items.size() &&
              IsSubsetOf(items, mfis_[idx].items)) {
            subsumed = true;
            break;
          }
        }
      }
      if (!subsumed) out.push_back(std::move(mfis_[i]));
    }
    return out;
  }

  size_t size() const { return mfis_.size(); }

 private:
  std::vector<FrequentItemset> mfis_;
  std::unordered_map<data::ItemId, std::vector<uint32_t>> postings_;
};

struct MaxMiner {
  const MinerOptions& options;
  MfiStore store;
  bool capped = false;
  ConditionalScratch scratch;
  std::vector<data::ItemId> head_tail;

  explicit MaxMiner(const MinerOptions& opts) : options(opts), store(0) {}

  bool AtCap() const {
    return options.max_itemsets != 0 && store.size() >= options.max_itemsets;
  }

  void Mine(const RankedTree& ranked, std::vector<data::ItemId>& prefix,
            uint32_t prefix_support) {
    if (capped) return;
    if (ranked.tree.num_ranks() == 0) {
      if (!prefix.empty()) {
        store.Insert(MakeItemset(prefix, prefix_support));
      }
      return;
    }
    // FPMax pruning: if head ∪ tail is already covered, nothing new here.
    head_tail.assign(prefix.begin(), prefix.end());
    head_tail.insert(head_tail.end(), ranked.rank_to_item.begin(),
                     ranked.rank_to_item.end());
    std::sort(head_tail.begin(), head_tail.end());
    if (store.IsSubsumed(head_tail)) return;
    if (ranked.tree.IsSinglePath()) {
      // The whole path joined with the prefix is the unique maximal set of
      // this branch; its support is the count at the path's deepest node.
      auto path = ranked.tree.SinglePath();
      std::vector<data::ItemId> items = prefix;
      uint32_t support = prefix_support;
      for (const auto& [rank, count] : path) {
        items.push_back(ranked.rank_to_item[rank]);
        support = count;  // counts are non-increasing down the path
      }
      store.Insert(MakeItemset(std::move(items), support));
      return;
    }
    for (uint32_t rank = ranked.tree.num_ranks(); rank-- > 0;) {
      if (capped || AtCap()) {
        capped = true;
        return;
      }
      uint32_t support = ranked.tree.RankSupport(rank);
      if (support < options.minsup) continue;
      prefix.push_back(ranked.rank_to_item[rank]);
      RankedTree cond =
          BuildConditional(ranked, rank, options.minsup, scratch);
      Mine(cond, prefix, support);
      prefix.pop_back();
    }
  }
};

}  // namespace

std::vector<FrequentItemset> MineFrequentItemsets(
    const std::vector<data::ItemBag>& transactions,
    const MinerOptions& options) {
  YVER_CHECK(options.minsup >= 1);
  RankedTree ranked = BuildInitialTree(transactions, options.minsup);
  AllMiner miner{options, {}, false, {}};
  std::vector<data::ItemId> prefix;
  miner.Mine(ranked, prefix);
  return std::move(miner.out);
}

namespace {

// FPClose-style closed miner (Grahne & Zhu): depth-first over ranks with
// two accelerations — *closure jumps* (items whose conditional support
// equals the prefix support belong to every supporting transaction and
// join the prefix immediately) and *subsumption pruning* (a prefix
// contained in a known closed set of equal support cannot lead to new
// closed sets). A plain enumerate-then-filter approach is exponential
// here: near-duplicate records share dozens of items, so all-frequent-
// itemset enumeration blows up as 2^|shared|.
class ClosedMiner {
 public:
  explicit ClosedMiner(const MinerOptions& options) : options_(options) {}

  bool AtCap() const {
    return options_.max_itemsets != 0 && cfis_.size() >= options_.max_itemsets;
  }

  void Mine(const RankedTree& ranked, std::vector<data::ItemId>& prefix,
            std::vector<char>& in_prefix) {
    if (AtCap()) return;
    for (uint32_t rank = ranked.tree.num_ranks(); rank-- > 0;) {
      data::ItemId item = ranked.rank_to_item[rank];
      if (in_prefix[item]) continue;
      uint32_t support = ranked.tree.RankSupport(rank);
      if (support < options_.minsup) continue;
      RankedTree cond =
          BuildConditional(ranked, rank, options_.minsup, scratch_);
      // Closure jump: conditional items occurring in every supporting
      // transaction extend the prefix at the same support.
      std::vector<data::ItemId> added = {item};
      for (uint32_t r2 = 0; r2 < cond.tree.num_ranks(); ++r2) {
        if (cond.tree.RankSupport(r2) == support &&
            !in_prefix[cond.rank_to_item[r2]]) {
          added.push_back(cond.rank_to_item[r2]);
        }
      }
      for (data::ItemId id : added) {
        prefix.push_back(id);
        in_prefix[id] = 1;
      }
      std::vector<data::ItemId> candidate = prefix;
      std::sort(candidate.begin(), candidate.end());
      if (!IsSubsumed(candidate, support)) {
        Insert(candidate, support);
        Mine(cond, prefix, in_prefix);
      }
      for (data::ItemId id : added) {
        in_prefix[id] = 0;
      }
      prefix.resize(prefix.size() - added.size());
      if (AtCap()) return;
    }
  }

  std::vector<FrequentItemset> Harvest() { return std::move(cfis_); }

 private:
  bool IsSubsumed(const std::vector<data::ItemId>& candidate,
                  uint32_t support) const {
    auto it = by_support_.find(support);
    if (it == by_support_.end()) return false;
    // Scan the postings of the candidate's rarest item at this support.
    const std::vector<uint32_t>* best = nullptr;
    for (data::ItemId item : candidate) {
      auto pit = it->second.find(item);
      if (pit == it->second.end()) return false;
      if (best == nullptr || pit->second.size() < best->size()) {
        best = &pit->second;
      }
    }
    for (uint32_t idx : *best) {
      if (cfis_[idx].items.size() >= candidate.size() &&
          IsSubsetOf(candidate, cfis_[idx].items)) {
        return true;
      }
    }
    return false;
  }

  void Insert(std::vector<data::ItemId> items, uint32_t support) {
    uint32_t idx = static_cast<uint32_t>(cfis_.size());
    auto& postings = by_support_[support];
    for (data::ItemId item : items) postings[item].push_back(idx);
    cfis_.push_back(FrequentItemset{std::move(items), support});
  }

  const MinerOptions& options_;
  ConditionalScratch scratch_;
  std::vector<FrequentItemset> cfis_;
  // support -> item -> CFI indices containing it at that support.
  std::unordered_map<uint32_t,
                     std::unordered_map<data::ItemId, std::vector<uint32_t>>>
      by_support_;
};

}  // namespace

std::vector<FrequentItemset> MineClosedItemsets(
    const std::vector<data::ItemBag>& transactions,
    const MinerOptions& options) {
  YVER_CHECK(options.minsup >= 1);
  RankedTree ranked = BuildInitialTree(transactions, options.minsup);
  ClosedMiner miner(options);
  std::vector<data::ItemId> prefix;
  // Item-id indexed presence mask; dictionary ids are dense.
  data::ItemId max_item = 0;
  for (data::ItemId item : ranked.rank_to_item) {
    max_item = std::max(max_item, item);
  }
  std::vector<char> in_prefix(static_cast<size_t>(max_item) + 1, 0);
  miner.Mine(ranked, prefix, in_prefix);
  return miner.Harvest();
}

std::vector<FrequentItemset> MineMaximalItemsets(
    const std::vector<data::ItemBag>& transactions,
    const MinerOptions& options, util::ThreadPool* pool) {
  YVER_CHECK(options.minsup >= 1);
  RankedTree ranked = BuildInitialTree(transactions, options.minsup);
  const uint32_t num_ranks = ranked.tree.num_ranks();
  if (num_ranks == 0) return {};
  if (ranked.tree.IsSinglePath()) {
    // The whole tree is one path: its deepest frequent prefix is the
    // unique MFI.
    std::vector<data::ItemId> items;
    uint32_t support = 0;
    for (const auto& [rank, count] : ranked.tree.SinglePath()) {
      items.push_back(ranked.rank_to_item[rank]);
      support = count;
    }
    return {MakeItemset(std::move(items), support)};
  }

  // One task per frequent-item rank, walked in the serial FPMax order
  // (least frequent rank first). Each task mines rank's conditional
  // projection with a task-local store; projections only read the shared
  // initial tree, so tasks are independent. Task costs are very uneven,
  // so workers claim tasks one at a time; task t's output lands in
  // per_rank[t] whichever worker ran it, making the merge order
  // scheduling-invariant.
  std::vector<std::vector<FrequentItemset>> per_rank(num_ranks);
  auto mine_rank = [&](size_t task) {
    uint32_t rank = num_ranks - 1 - static_cast<uint32_t>(task);
    uint32_t support = ranked.tree.RankSupport(rank);
    if (support < options.minsup) return;
    MaxMiner miner(options);
    std::vector<data::ItemId> prefix = {ranked.rank_to_item[rank]};
    RankedTree cond =
        BuildConditional(ranked, rank, options.minsup, miner.scratch);
    miner.Mine(cond, prefix, support);
    per_rank[task] = miner.store.Harvest();
  };
  if (pool != nullptr && pool->num_threads() > 1) {
    pool->ParallelForDynamic(num_ranks, mine_rank);
  } else {
    for (size_t task = 0; task < num_ranks; ++task) mine_rank(task);
  }

  // Every itemset of task t holds t's rank as its largest rank, so a
  // superset always lives in the same or an earlier task: per_rank is
  // exactly the rank-ordered input FilterRankOrderedMaximal requires, and
  // its survivors, in order, are the serial FPMax discovery sequence.
  std::vector<FrequentItemset> out =
      FilterRankOrderedMaximal(std::move(per_rank), pool);
  if (options.max_itemsets != 0 && out.size() > options.max_itemsets) {
    out.resize(options.max_itemsets);
  }
  return out;
}

}  // namespace yver::mining
