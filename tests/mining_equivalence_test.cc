// Equivalence of the parallel cross-rank maximality filter
// (mining::FilterRankOrderedMaximal) with the serial insert-then-harvest
// merge it replaced (tests/support/reference_mfi_merge.h): the same
// vector, contents and order, for every pool size.

#include <algorithm>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "data/item_dictionary.h"
#include "support/reference_fp_growth.h"
#include "support/reference_mfi_merge.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace yver::mining {
namespace {

using Tasks = std::vector<std::vector<FrequentItemset>>;

// A random rank-ordered candidate list, shaped like the per-rank output
// of MineMaximalItemsets: task t holds itemsets whose largest rank is
// num_ranks - 1 - t (ranks map to shuffled item ids, so rank order and
// id order differ). Some candidates are subsets of earlier ones, which
// is what the filter exists to remove, and some are verbatim duplicates
// within their task.
Tasks RandomRankOrdered(util::Rng& rng) {
  const size_t num_ranks = static_cast<size_t>(rng.UniformInt(0, 14));
  std::vector<data::ItemId> rank_to_item(num_ranks);
  for (size_t r = 0; r < num_ranks; ++r) {
    rank_to_item[r] = static_cast<data::ItemId>(3 * r + 1);
  }
  rng.Shuffle(rank_to_item);
  const double density = 0.15 + 0.6 * rng.UniformDouble();

  Tasks tasks(num_ranks);
  std::vector<std::vector<data::ItemId>> seen;  // every candidate so far
  for (size_t t = 0; t < num_ranks; ++t) {
    const size_t rank = num_ranks - 1 - t;
    const data::ItemId task_item = rank_to_item[rank];
    const size_t count = static_cast<size_t>(rng.UniformInt(0, 6));
    for (size_t c = 0; c < count; ++c) {
      std::vector<data::ItemId> items;
      std::vector<const std::vector<data::ItemId>*> holders;
      for (const auto& s : seen) {
        if (std::binary_search(s.begin(), s.end(), task_item)) {
          holders.push_back(&s);
        }
      }
      if (!tasks[t].empty() && rng.Bernoulli(0.15)) {
        // A duplicate of a candidate of this task.
        items = tasks[t][static_cast<size_t>(rng.UniformInt(
                             0, static_cast<int64_t>(tasks[t].size()) - 1))]
                    .items;
      } else if (!holders.empty() && rng.Bernoulli(0.5)) {
        // A subset of an earlier candidate: keep the task item, drop every
        // rank above it, keep each lower-rank item at random.
        const auto& from = *holders[static_cast<size_t>(rng.UniformInt(
            0, static_cast<int64_t>(holders.size()) - 1))];
        for (size_t q = 0; q < rank; ++q) {
          if (std::binary_search(from.begin(), from.end(), rank_to_item[q]) &&
              rng.Bernoulli(0.7)) {
            items.push_back(rank_to_item[q]);
          }
        }
        items.push_back(task_item);
      } else {
        for (size_t q = 0; q < rank; ++q) {
          if (rng.Bernoulli(density)) items.push_back(rank_to_item[q]);
        }
        items.push_back(task_item);
      }
      std::sort(items.begin(), items.end());
      seen.push_back(items);
      const auto support = static_cast<uint32_t>(rng.UniformInt(2, 9));
      tasks[t].push_back(FrequentItemset{std::move(items), support});
    }
  }
  return tasks;
}

TEST(MaximalFilterEquivalenceTest, MatchesSerialMergeOnRandomRankOrderedLists) {
  util::Rng rng(2024);
  std::vector<std::unique_ptr<util::ThreadPool>> pools;
  pools.push_back(nullptr);
  for (size_t n : {1, 2, 8}) {
    pools.push_back(std::make_unique<util::ThreadPool>(n));
  }
  size_t removed = 0;
  for (int trial = 0; trial < 300; ++trial) {
    Tasks tasks = RandomRankOrdered(rng);
    std::vector<FrequentItemset> expected = ReferenceMergeRankOrdered(tasks);
    size_t total = 0;
    for (const auto& task : tasks) total += task.size();
    removed += total - expected.size();
    for (const auto& pool : pools) {
      EXPECT_EQ(FilterRankOrderedMaximal(tasks, pool.get()), expected)
          << "trial " << trial << " at "
          << (pool ? pool->num_threads() : 0) << " threads";
    }
  }
  // The inputs must exercise the filter, not just pass through it.
  EXPECT_GT(removed, 300u);
}

TEST(MaximalFilterEquivalenceTest, EmptyInputs) {
  util::ThreadPool pool(2);
  EXPECT_TRUE(FilterRankOrderedMaximal({}, &pool).empty());
  EXPECT_TRUE(FilterRankOrderedMaximal(Tasks(5), &pool).empty());
  EXPECT_TRUE(FilterRankOrderedMaximal(Tasks(5), nullptr).empty());
}

TEST(MaximalFilterEquivalenceTest, DuplicatesKeepFirstAndSupersetsWin) {
  // Task 0 (item 9 is the largest rank) precedes task 1 (item 5).
  Tasks tasks = {
      {{{1, 5, 9}, 3}, {{5, 9}, 4}, {{1, 5, 9}, 3}, {{2, 9}, 2},
       {{2, 3, 9}, 2}},
      {{{1, 5}, 5}, {{2, 5}, 4}, {{2, 5}, 4}},
  };
  std::vector<FrequentItemset> expected = {
      {{1, 5, 9}, 3}, {{2, 3, 9}, 2}, {{2, 5}, 4}};
  EXPECT_EQ(ReferenceMergeRankOrdered(tasks), expected);
  util::ThreadPool pool(8);
  EXPECT_EQ(FilterRankOrderedMaximal(tasks, nullptr), expected);
  EXPECT_EQ(FilterRankOrderedMaximal(tasks, &pool), expected);
}

}  // namespace
}  // namespace yver::mining
