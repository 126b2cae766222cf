#include "mining/maximal_filter.h"

#include <algorithm>
#include <map>

#include "util/check.h"

namespace yver::mining {

bool IsSubsetOf(const std::vector<data::ItemId>& sub,
                const std::vector<data::ItemId>& super) {
  if (sub.size() > super.size()) return false;
  size_t i = 0;
  size_t j = 0;
  while (i < sub.size() && j < super.size()) {
    if (sub[i] == super[j]) {
      ++i;
      ++j;
    } else if (sub[i] > super[j]) {
      ++j;
    } else {
      return false;
    }
  }
  return i == sub.size();
}

std::vector<FrequentItemset> FilterMaximal(
    std::vector<FrequentItemset> itemsets) {
  // Sort descending by size so potential supersets come first.
  std::sort(itemsets.begin(), itemsets.end(),
            [](const FrequentItemset& a, const FrequentItemset& b) {
              return a.items.size() > b.items.size();
            });
  std::vector<FrequentItemset> maximal;
  for (auto& candidate : itemsets) {
    bool subsumed = false;
    for (const auto& kept : maximal) {
      if (kept.items.size() > candidate.items.size() &&
          IsSubsetOf(candidate.items, kept.items)) {
        subsumed = true;
        break;
      }
    }
    if (!subsumed) maximal.push_back(std::move(candidate));
  }
  return maximal;
}

namespace {

// One bit per item, hashed: items_i ⊆ items_j implies
// (Signature(i) & ~Signature(j)) == 0, so a non-zero result rejects j
// without walking either item list.
uint64_t Signature(const std::vector<data::ItemId>& items) {
  uint64_t sig = 0;
  for (data::ItemId item : items) {
    sig |= uint64_t{1} << ((uint64_t{item} * 0x9E3779B97F4A7C15ULL) >> 58);
  }
  return sig;
}

}  // namespace

std::vector<FrequentItemset> FilterRankOrderedMaximal(
    std::vector<std::vector<FrequentItemset>> tasks, util::ThreadPool* pool) {
  size_t total = 0;
  for (const auto& task : tasks) total += task.size();
  std::vector<FrequentItemset> candidates;
  candidates.reserve(total);
  // task_end[i]: one past the last candidate of i's task. No superset of
  // candidate i lies at or beyond it.
  std::vector<uint32_t> task_end;
  task_end.reserve(total);
  for (auto& task : tasks) {
    const uint32_t end = static_cast<uint32_t>(candidates.size() + task.size());
    for (auto& candidate : task) {
      YVER_CHECK(!candidate.items.empty());
      candidates.push_back(std::move(candidate));
      task_end.push_back(end);
    }
  }
  tasks.clear();
  if (candidates.empty()) return {};

  // Item -> the candidates containing it, ascending, as one flat array.
  // Each entry carries what rejects a candidate cheaply (its size and
  // signature), so a scan streams through the postings without touching
  // the candidates themselves.
  struct Posting {
    uint64_t signature;
    uint32_t index;
    uint32_t size;
  };
  data::ItemId max_item = 0;
  for (const auto& c : candidates) max_item = std::max(max_item, c.items.back());
  std::vector<uint32_t> offsets(static_cast<size_t>(max_item) + 2, 0);
  for (const auto& c : candidates) {
    for (data::ItemId item : c.items) ++offsets[item + 1];
  }
  for (size_t k = 1; k < offsets.size(); ++k) offsets[k] += offsets[k - 1];
  std::vector<Posting> postings(offsets.back());
  {
    std::vector<uint32_t> fill(offsets.begin(), offsets.end() - 1);
    for (uint32_t i = 0; i < candidates.size(); ++i) {
      const std::vector<data::ItemId>& items = candidates[i].items;
      const Posting posting{Signature(items), i,
                            static_cast<uint32_t>(items.size())};
      for (data::ItemId item : items) postings[fill[item]++] = posting;
    }
  }

  const Posting* const posting_base = postings.data();
  std::vector<char> keep(candidates.size(), 0);
  auto decide = [&](size_t i) {
    const std::vector<data::ItemId>& items = candidates[i].items;
    // Scan the item whose postings inside [0, task_end[i]) are fewest;
    // every possible subsumer contains that item and lies in that range.
    const Posting* scan_begin = nullptr;
    const Posting* scan_end = nullptr;
    for (data::ItemId item : items) {
      const Posting* begin = posting_base + offsets[item];
      const Posting* end = std::lower_bound(
          begin, posting_base + offsets[item + 1], task_end[i],
          [](const Posting& p, uint32_t index) { return p.index < index; });
      if (scan_begin == nullptr || end - begin < scan_end - scan_begin) {
        scan_begin = begin;
        scan_end = end;
      }
    }
    const size_t size = items.size();
    const uint64_t signature = Signature(items);
    for (const Posting* p = scan_begin; p != scan_end; ++p) {
      // Rejects p when its signature lacks a bit of i's, when it is
      // smaller, or when it has i's size but does not come before i (a
      // later candidate subsumes only as a strict superset). Bitwise, not
      // short-circuit: the size tests alone are coin flips to a branch
      // predictor, while the combined test almost always rejects.
      const uint64_t reject =
          (signature & ~p->signature) | uint64_t{p->size < size} |
          (uint64_t{p->size == size} & uint64_t{p->index >= i});
      if (reject != 0) continue;
      if (IsSubsetOf(items, candidates[p->index].items)) return;
    }
    keep[i] = 1;
  };
  if (pool != nullptr && pool->num_threads() > 1) {
    pool->ParallelFor(candidates.size(), decide);
  } else {
    for (size_t i = 0; i < candidates.size(); ++i) decide(i);
  }

  size_t kept = 0;
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (!keep[i]) continue;
    if (kept != i) candidates[kept] = std::move(candidates[i]);
    ++kept;
  }
  candidates.resize(kept);
  return candidates;
}

std::vector<FrequentItemset> FilterClosed(
    std::vector<FrequentItemset> itemsets) {
  // Only itemsets of equal support can witness non-closedness.
  std::map<uint32_t, std::vector<size_t>> by_support;
  for (size_t i = 0; i < itemsets.size(); ++i) {
    by_support[itemsets[i].support].push_back(i);
  }
  std::vector<size_t> kept;
  for (const auto& [support, group] : by_support) {
    for (size_t i : group) {
      bool subsumed = false;
      for (size_t j : group) {
        if (i == j) continue;
        if (itemsets[j].items.size() > itemsets[i].items.size() &&
            IsSubsetOf(itemsets[i].items, itemsets[j].items)) {
          subsumed = true;
          break;
        }
      }
      if (!subsumed) kept.push_back(i);
    }
  }
  std::vector<FrequentItemset> closed;
  closed.reserve(kept.size());
  for (size_t i : kept) closed.push_back(std::move(itemsets[i]));
  return closed;
}

}  // namespace yver::mining
