#include "data/dataset.h"

#include "util/check.h"

namespace yver::data {

RecordIdx Dataset::Add(Record record) {
  YVER_CHECK_MSG(records_.size() < UINT32_MAX, "dataset too large");
  records_.push_back(std::move(record));
  return static_cast<RecordIdx>(records_.size() - 1);
}

void Dataset::RemoveLast() {
  YVER_CHECK(!records_.empty());
  records_.pop_back();
}

bool Dataset::IsGoldMatch(RecordIdx i, RecordIdx j) const {
  const Record& a = records_[i];
  const Record& b = records_[j];
  return a.entity_id != kUnknownEntity && a.entity_id == b.entity_id;
}

bool Dataset::IsGoldFamilyMatch(RecordIdx i, RecordIdx j) const {
  const Record& a = records_[i];
  const Record& b = records_[j];
  return a.family_id != kUnknownEntity && a.family_id == b.family_id;
}

std::vector<RecordPair> Dataset::GoldPairs() const {
  std::vector<RecordPair> pairs;
  for (const auto& [entity, members] : GroupByEntity()) {
    for (size_t i = 0; i < members.size(); ++i) {
      for (size_t j = i + 1; j < members.size(); ++j) {
        pairs.emplace_back(members[i], members[j]);
      }
    }
  }
  return pairs;
}

size_t Dataset::NumGoldPairs() const {
  size_t n = 0;
  for (const auto& [entity, members] : GroupByEntity()) {
    n += members.size() * (members.size() - 1) / 2;
  }
  return n;
}

std::unordered_map<int64_t, std::vector<RecordIdx>> Dataset::GroupByEntity()
    const {
  std::unordered_map<int64_t, std::vector<RecordIdx>> groups;
  for (RecordIdx i = 0; i < records_.size(); ++i) {
    if (records_[i].entity_id == kUnknownEntity) continue;
    groups[records_[i].entity_id].push_back(i);
  }
  return groups;
}

}  // namespace yver::data
