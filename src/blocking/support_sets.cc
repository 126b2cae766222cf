#include "blocking/support_sets.h"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "util/check.h"

namespace yver::blocking {

std::vector<std::vector<data::RecordIdx>> GroupedSupports(
    const data::InvertedIndex& index, const std::vector<data::ItemBag>& bags,
    const std::vector<mining::FrequentItemset>& itemsets,
    util::ThreadPool* pool) {
  std::vector<std::vector<data::RecordIdx>> supports(itemsets.size());

  // Bucket itemset indices by rarest item, as one flat array.
  const size_t num_items = index.num_items();
  std::vector<data::ItemId> rarest(itemsets.size());
  std::vector<uint32_t> offsets(num_items + 1, 0);
  for (size_t i = 0; i < itemsets.size(); ++i) {
    const std::vector<data::ItemId>& items = itemsets[i].items;
    if (items.empty()) continue;  // supports nothing, like Support({})
    data::ItemId best = items[0];
    for (data::ItemId item : items) {
      YVER_CHECK(item < num_items);
      if (index.Postings(item).size() < index.Postings(best).size()) {
        best = item;
      }
    }
    rarest[i] = best;
    ++offsets[best + 1];
  }
  for (size_t k = 1; k <= num_items; ++k) offsets[k] += offsets[k - 1];
  std::vector<uint32_t> members(offsets.back());
  std::vector<data::ItemId> groups;
  {
    std::vector<uint32_t> fill(offsets.begin(), offsets.end() - 1);
    for (size_t i = 0; i < itemsets.size(); ++i) {
      if (!itemsets[i].items.empty()) {
        members[fill[rarest[i]]++] = static_cast<uint32_t>(i);
      }
    }
    for (data::ItemId a = 0; a < num_items; ++a) {
      if (offsets[a + 1] > offsets[a]) groups.push_back(a);
    }
  }

  auto run_group = [&](size_t g) {
    const data::ItemId a = groups[g];
    const std::vector<data::RecordIdx>& records = index.Postings(a);
    const size_t words = (records.size() + 63) / 64;
    const uint32_t* begin = members.data() + offsets[a];
    const uint32_t* end = members.data() + offsets[a + 1];

    // The group's items other than a, sorted: row q belongs to row_items[q].
    std::vector<data::ItemId> row_items;
    for (const uint32_t* m = begin; m != end; ++m) {
      for (data::ItemId item : itemsets[*m].items) {
        if (item != a) row_items.push_back(item);
      }
    }
    std::sort(row_items.begin(), row_items.end());
    row_items.erase(std::unique(row_items.begin(), row_items.end()),
                    row_items.end());
    auto row_of = [&row_items](data::ItemId item) {
      return static_cast<size_t>(
          std::lower_bound(row_items.begin(), row_items.end(), item) -
          row_items.begin());
    };

    std::vector<uint64_t> rows(row_items.size() * words, 0);
    if (!row_items.empty()) {
      for (size_t k = 0; k < records.size(); ++k) {
        const uint64_t bit = uint64_t{1} << (k % 64);
        for (data::ItemId item : bags[records[k]]) {
          const size_t q = row_of(item);
          if (q < row_items.size() && row_items[q] == item) {
            rows[q * words + k / 64] |= bit;
          }
        }
      }
    }

    // Bits past the last record of the final word are never set in any
    // row, but a single-item itemset has no row to clear them.
    const uint64_t last_mask =
        records.size() % 64 == 0 ? ~uint64_t{0}
                                 : (uint64_t{1} << (records.size() % 64)) - 1;
    std::vector<const uint64_t*> item_rows;
    std::vector<data::RecordIdx> support;
    for (const uint32_t* m = begin; m != end; ++m) {
      item_rows.clear();
      for (data::ItemId item : itemsets[*m].items) {
        if (item != a) item_rows.push_back(rows.data() + row_of(item) * words);
      }
      support.clear();
      for (size_t w = 0; w < words; ++w) {
        uint64_t word = w + 1 == words ? last_mask : ~uint64_t{0};
        for (const uint64_t* row : item_rows) word &= row[w];
        while (word != 0) {
          support.push_back(records[w * 64 + std::countr_zero(word)]);
          word &= word - 1;
        }
      }
      supports[*m] = support;
    }
  };
  if (pool != nullptr && pool->num_threads() > 1) {
    pool->ParallelForDynamic(groups.size(), run_group);
  } else {
    for (size_t g = 0; g < groups.size(); ++g) run_group(g);
  }
  return supports;
}

}  // namespace yver::blocking
