#include "support/reference_mfi_merge.h"

#include <unordered_map>

namespace yver::mining {

namespace {

// Stores MFIs and answers "is this candidate a subset of a stored MFI".
class MfiStore {
 public:
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

 private:
  std::vector<FrequentItemset> mfis_;
  std::unordered_map<data::ItemId, std::vector<uint32_t>> postings_;
};

}  // namespace

std::vector<FrequentItemset> ReferenceMergeRankOrdered(
    std::vector<std::vector<FrequentItemset>> tasks) {
  MfiStore store;
  for (auto& task : tasks) {
    for (auto& mfi : task) store.Insert(std::move(mfi));
  }
  return store.Harvest();
}

}  // namespace yver::mining
