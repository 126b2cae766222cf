#include "mining/vertical_miner.h"

#include <algorithm>
#include <bit>
#include <deque>
#include <memory>
#include <numeric>

#include "util/check.h"

namespace yver::mining {

namespace {

constexpr uint32_t kInfrequent = UINT32_MAX;

// The transactions over their frequent items as ranks, row k being
// transaction rows[k]: horizontally as CSR rows, and vertically as one
// posting list of row indices per rank. Shared read-only by every worker.
struct RankedDb {
  std::vector<data::ItemId> rank_to_item;
  std::vector<uint32_t> row_begin;  // row k = row_items[row_begin[k], [k+1])
  std::vector<uint32_t> row_items;
  std::vector<uint32_t> post_begin;  // rank r's rows, ascending
  std::vector<uint32_t> post_rows;
};

RankedDb BuildRankedDb(const std::vector<data::ItemBag>& bags,
                       const std::vector<data::RecordIdx>& rows,
                       uint32_t minsup) {
  // Dictionary ids are dense, so per-item state is a flat array.
  data::ItemId max_item = 0;
  for (data::RecordIdx r : rows) {
    YVER_CHECK(r < bags.size());
    if (!bags[r].empty()) max_item = std::max(max_item, bags[r].back());
  }
  std::vector<uint32_t> counts(static_cast<size_t>(max_item) + 1, 0);
  for (data::RecordIdx r : rows) {
    for (data::ItemId item : bags[r]) ++counts[item];
  }
  RankedDb db;
  for (data::ItemId item = 0; item < counts.size(); ++item) {
    if (counts[item] >= minsup) db.rank_to_item.push_back(item);
  }
  // Ascending support, ties to the larger id: rank r's root task then
  // holds exactly the itemsets whose least frequent item is r.
  std::sort(db.rank_to_item.begin(), db.rank_to_item.end(),
            [&counts](data::ItemId a, data::ItemId b) {
              if (counts[a] != counts[b]) return counts[a] < counts[b];
              return a > b;
            });
  const auto num_ranks = static_cast<uint32_t>(db.rank_to_item.size());
  std::vector<uint32_t> item_to_rank(counts.size(), kInfrequent);
  db.post_begin.assign(num_ranks + 1, 0);
  for (uint32_t rank = 0; rank < num_ranks; ++rank) {
    item_to_rank[db.rank_to_item[rank]] = rank;
    db.post_begin[rank + 1] = db.post_begin[rank] + counts[db.rank_to_item[rank]];
  }
  db.row_begin.reserve(rows.size() + 1);
  db.row_begin.push_back(0);
  db.row_items.reserve(db.post_begin.back());
  db.post_rows.resize(db.post_begin.back());
  std::vector<uint32_t> fill(db.post_begin.begin(), db.post_begin.end() - 1);
  for (uint32_t k = 0; k < rows.size(); ++k) {
    for (data::ItemId item : bags[rows[k]]) {
      const uint32_t rank = item_to_rank[item];
      if (rank == kInfrequent) continue;
      db.row_items.push_back(rank);
      db.post_rows[fill[rank]++] = k;
    }
    db.row_begin.push_back(static_cast<uint32_t>(db.row_items.size()));
  }
  return db;
}

// A node's transactions: rows sel[0..n) of a CSR store whose row k has
// items items[begin[k], begin[k + 1]) and transaction tid(k).
struct DbView {
  const uint32_t* items;
  const uint32_t* begin;
  const uint32_t* tids;  // null: row k is transaction k
  const uint32_t* sel;
  uint32_t n;

  uint32_t tid(uint32_t k) const { return tids == nullptr ? k : tids[k]; }
};

// One worker's depth-first search state. Root tasks reuse it one after
// another; it is freed when MineItemsets returns.
class Miner {
 public:
  Miner(const RankedDb& db, const std::vector<data::RecordIdx>& rows,
        const MinerOptions& options)
      : db_(db),
        rows_(rows),
        options_(options),
        counts_(db.rank_to_item.size(), 0),
        marks_(db.rank_to_item.size(), 0) {}

  void MineRoot(uint32_t root, std::vector<SupportedItemset>* out,
                size_t* num_mined) {
    out_ = out;
    num_mined_ = num_mined;
    head_.clear();
    const uint32_t begin = db_.post_begin[root];
    Node(DbView{db_.row_items.data(), db_.row_begin.data(), nullptr,
                db_.post_rows.data() + begin,
                db_.post_begin[root + 1] - begin},
         root, 0);
  }

 private:
  // Storage of one depth: the node's transactions reduced to the items
  // still frequent and not in the head, plus, per tail item, the rows
  // that hold it.
  struct Level {
    std::vector<uint32_t> items;
    std::vector<uint32_t> begin;
    std::vector<uint32_t> tids;
    std::vector<uint32_t> tail;
    std::vector<uint32_t> occ_begin;
    std::vector<uint32_t> occ;
  };

  // An item of a small node with the mask of the node's rows holding it.
  struct MaskedItem {
    uint32_t rank;
    uint64_t mask;
  };

  void Node(const DbView& db, uint32_t branch, size_t depth) {
    const uint32_t n = db.n;
    touched_.clear();
    for (uint32_t i = 0; i < n; ++i) {
      const uint32_t row = db.sel[i];
      for (uint32_t p = db.begin[row]; p < db.begin[row + 1]; ++p) {
        if (counts_[db.items[p]]++ == 0) touched_.push_back(db.items[p]);
      }
    }
    // Classify: full items join the head or prune, the other frequent
    // ones are kept (marks_ != 0), and those after the branch item are
    // the tail.
    const size_t head_size = head_.size();
    head_.push_back(branch);
    bool prune = false;
    bool extensible = false;
    if (levels_.size() <= depth) levels_.emplace_back();
    Level& level = levels_[depth];
    level.tail.clear();
    for (uint32_t f : touched_) {
      const uint32_t c = counts_[f];
      if (f == branch) continue;
      if (c == n) {
        if (f < branch) prune = true;
        head_.push_back(f);
      } else if (c >= options_.minsup) {
        extensible = true;
        marks_[f] = 1;
        if (f > branch) level.tail.push_back(f);
      }
    }
    if (!prune) {
      if (options_.kind == ItemsetKind::kClosed || !extensible) {
        Emit(n, [&](uint32_t i) { return db.tid(db.sel[i]); });
      }
      std::sort(level.tail.begin(), level.tail.end());
    }
    if (prune || level.tail.empty()) {
      for (uint32_t f : touched_) counts_[f] = marks_[f] = 0;
    } else if (n <= 64) {
      ExpandMasks(db, branch, depth);
    } else {
      Reduce(db, level);
      for (size_t t = 0; t < level.tail.size(); ++t) {
        Node(DbView{level.items.data(), level.begin.data(),
                    level.tids.data(), level.occ.data() + level.occ_begin[t],
                    level.occ_begin[t + 1] - level.occ_begin[t]},
             level.tail[t], depth + 1);
      }
    }
    head_.resize(head_size);
  }

  // Copies the node's rows, kept items only, into `level` and lists the
  // rows of each tail item. Clears counts_ and marks_.
  void Reduce(const DbView& db, Level& level) {
    level.occ_begin.assign(1, 0);
    for (size_t t = 0; t < level.tail.size(); ++t) {
      marks_[level.tail[t]] = static_cast<uint32_t>(t) + 2;
      level.occ_begin.push_back(level.occ_begin.back() +
                                counts_[level.tail[t]]);
    }
    level.occ.resize(level.occ_begin.back());
    fill_.assign(level.occ_begin.begin(), level.occ_begin.end() - 1);
    level.items.clear();
    level.begin.assign(1, 0);
    level.tids.clear();
    for (uint32_t i = 0; i < db.n; ++i) {
      const uint32_t row = db.sel[i];
      const auto k = static_cast<uint32_t>(level.tids.size());
      for (uint32_t p = db.begin[row]; p < db.begin[row + 1]; ++p) {
        const uint32_t f = db.items[p];
        const uint32_t m = marks_[f];
        if (m == 0) continue;
        level.items.push_back(f);
        if (m >= 2) level.occ[fill_[m - 2]++] = k;
      }
      if (level.items.size() == level.begin.back()) continue;  // nothing kept
      level.begin.push_back(static_cast<uint32_t>(level.items.size()));
      level.tids.push_back(db.tid(row));
    }
    for (uint32_t f : touched_) counts_[f] = marks_[f] = 0;
  }

  // Switches a node of at most 64 rows to masks: bit i of an item's mask
  // is set when the node's row i holds it. Clears counts_ and marks_.
  void ExpandMasks(const DbView& db, uint32_t branch, size_t depth) {
    if (mask_levels_.size() <= depth) mask_levels_.resize(depth + 1);
    std::vector<MaskedItem>& kept = mask_levels_[depth];
    kept.clear();
    for (uint32_t f : touched_) {
      if (marks_[f] != 0) kept.push_back({f, 0});
    }
    std::sort(kept.begin(), kept.end(),
              [](const MaskedItem& a, const MaskedItem& b) {
                return a.rank < b.rank;
              });
    for (size_t k = 0; k < kept.size(); ++k) {
      marks_[kept[k].rank] = static_cast<uint32_t>(k) + 1;
    }
    for (uint32_t i = 0; i < db.n; ++i) {
      const uint32_t row = db.sel[i];
      mask_tids_[i] = db.tid(row);
      for (uint32_t p = db.begin[row]; p < db.begin[row + 1]; ++p) {
        const uint32_t m = marks_[db.items[p]];
        if (m != 0) kept[m - 1].mask |= uint64_t{1} << i;
      }
    }
    for (uint32_t f : touched_) counts_[f] = marks_[f] = 0;
    const uint64_t all = db.n == 64 ? ~uint64_t{0} : (uint64_t{1} << db.n) - 1;
    for (size_t k = 0; k < kept.size(); ++k) {
      if (kept[k].rank > branch) {
        MaskNode(all & kept[k].mask, kept[k].rank, kept, depth + 1);
      }
    }
  }

  // Node() over masks: `rows` selects the node's rows among the mask
  // base's, and `items` (rank-sorted) holds every item that may still be
  // frequent here.
  void MaskNode(uint64_t rows, uint32_t branch,
                const std::vector<MaskedItem>& items, size_t depth) {
    const auto n = static_cast<uint32_t>(std::popcount(rows));
    if (mask_levels_.size() <= depth) mask_levels_.resize(depth + 1);
    std::vector<MaskedItem>& kept = mask_levels_[depth];
    kept.clear();
    const size_t head_size = head_.size();
    head_.push_back(branch);
    bool extensible = false;
    for (const MaskedItem& item : items) {
      if (item.rank == branch) continue;
      const auto c = static_cast<uint32_t>(std::popcount(item.mask & rows));
      if (c == n) {
        if (item.rank < branch) {
          head_.resize(head_size);
          return;
        }
        head_.push_back(item.rank);
      } else if (c >= options_.minsup) {
        extensible = true;
        kept.push_back(item);
      }
    }
    if (options_.kind == ItemsetKind::kClosed || !extensible) {
      uint64_t bits = rows;
      Emit(n, [&](uint32_t) {
        const auto i = static_cast<uint32_t>(std::countr_zero(bits));
        bits &= bits - 1;
        return mask_tids_[i];
      });
    }
    for (const MaskedItem& item : kept) {
      if (item.rank > branch) {
        MaskNode(rows & item.mask, item.rank, kept, depth + 1);
      }
    }
    head_.resize(head_size);
  }

  // Reports the head with support n; next_tid() yields its n row tids in
  // ascending order.
  template <typename NextTid>
  void Emit(uint32_t n, NextTid next_tid) {
    ++*num_mined_;
    if (n > options_.max_support) return;
    SupportedItemset& set = out_->emplace_back();
    set.items.reserve(head_.size());
    for (uint32_t rank : head_) set.items.push_back(db_.rank_to_item[rank]);
    std::sort(set.items.begin(), set.items.end());
    set.tids.reserve(n);
    for (uint32_t i = 0; i < n; ++i) set.tids.push_back(rows_[next_tid(i)]);
  }

  const RankedDb& db_;
  const std::vector<data::RecordIdx>& rows_;
  const MinerOptions& options_;
  std::vector<uint32_t> counts_;  // per rank, zero between nodes
  std::vector<uint32_t> marks_;   // per rank, zero between nodes
  std::vector<uint32_t> touched_;
  std::vector<uint32_t> fill_;
  std::vector<uint32_t> head_;  // ranks
  // Per depth. Deques: growing one keeps every deeper call's references
  // to shallower levels valid.
  std::deque<Level> levels_;
  std::deque<std::vector<MaskedItem>> mask_levels_;
  uint32_t mask_tids_[64] = {};
  std::vector<SupportedItemset>* out_ = nullptr;
  size_t* num_mined_ = nullptr;
};

}  // namespace

MinedItemsets MineItemsets(const std::vector<data::ItemBag>& bags,
                           const std::vector<data::RecordIdx>& rows,
                           const MinerOptions& options,
                           util::ThreadPool* pool) {
  YVER_CHECK(options.minsup >= 1);
  const RankedDb db = BuildRankedDb(bags, rows, options.minsup);
  const size_t num_ranks = db.rank_to_item.size();
  MinedItemsets result;
  result.by_root.resize(num_ranks);
  std::vector<size_t> num_mined(num_ranks, 0);
  // Task t mines root rank num_ranks - 1 - t: the most frequent items,
  // whose roots hold the most rows, are claimed first.
  auto run = [&](Miner& miner, size_t task) {
    const size_t root = num_ranks - 1 - task;
    miner.MineRoot(static_cast<uint32_t>(root), &result.by_root[root],
                   &num_mined[root]);
  };
  if (pool != nullptr && pool->num_threads() > 1) {
    std::vector<std::unique_ptr<Miner>> miners(pool->num_threads());
    pool->ParallelForDynamicWorkers(num_ranks, [&](size_t worker,
                                                   size_t task) {
      if (miners[worker] == nullptr) {
        miners[worker] = std::make_unique<Miner>(db, rows, options);
      }
      run(*miners[worker], task);
    });
  } else if (num_ranks > 0) {
    Miner miner(db, rows, options);
    for (size_t task = 0; task < num_ranks; ++task) run(miner, task);
  }
  result.num_mined =
      std::accumulate(num_mined.begin(), num_mined.end(), size_t{0});
  return result;
}

MinedItemsets MineItemsets(const std::vector<data::ItemBag>& bags,
                           const MinerOptions& options,
                           util::ThreadPool* pool) {
  std::vector<data::RecordIdx> rows(bags.size());
  std::iota(rows.begin(), rows.end(), data::RecordIdx{0});
  return MineItemsets(bags, rows, options, pool);
}

}  // namespace yver::mining
