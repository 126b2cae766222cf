#include "data/comparison_corpus.h"

#include <algorithm>
#include <cstdlib>
#include <limits>

#include "util/check.h"
#include "util/string_util.h"

namespace yver::data {

namespace {

// Same numeric parse the string-path extractor applied per pair; here it
// runs once per record at encode time.
double ParseNumeric(std::string_view s) {
  return std::strtod(std::string(s).c_str(), nullptr);
}

constexpr AttributeId kBirthDateAttrs[3] = {
    AttributeId::kBirthDay, AttributeId::kBirthMonth, AttributeId::kBirthYear};

}  // namespace

TokenId ComparisonCorpus::InternToken(std::string normalized) {
  auto it = token_index_.find(normalized);
  if (it != token_index_.end()) return it->second;
  YVER_CHECK_MSG(token_strings_.size() < UINT32_MAX, "token space exhausted");
  TokenId id = static_cast<TokenId>(token_strings_.size());
  // New dictionary entry: memoize its padded-bigram id set now, so no pair
  // comparison ever extracts q-grams again.
  size_t appended = gram_interner_.AppendQGramIdSet(normalized, &gram_ids_);
  YVER_CHECK(gram_ids_.size() <= UINT32_MAX);
  gram_offsets_.push_back(static_cast<uint32_t>(gram_ids_.size()));
  (void)appended;
  token_index_.emplace(normalized, id);
  token_strings_.push_back(std::move(normalized));
  return id;
}

uint32_t ComparisonCorpus::InternExact(std::string_view raw) {
  auto it = exact_index_.find(std::string(raw));
  if (it != exact_index_.end()) return it->second;
  uint32_t id = static_cast<uint32_t>(exact_index_.size());
  exact_index_.emplace(std::string(raw), id);
  return id;
}

void ComparisonCorpus::EncodeRecord(const Record& record) {
  for (auto& bucket : bucket_scratch_) bucket.clear();

  // Token spans: lowercase, intern, then sort + dedup by id. Dedup by
  // id equals dedup by lowercased string (interning is injective), and
  // any shared total order works for merge intersections — both sides
  // of every comparison use id order.
  for (const Record::Entry& entry : record.entries()) {
    bucket_scratch_[static_cast<size_t>(entry.attr)].push_back(
        InternToken(util::ToLower(entry.value)));
  }
  for (size_t a = 0; a < kNumAttributes; ++a) {
    std::vector<TokenId>& bucket = bucket_scratch_[a];
    std::sort(bucket.begin(), bucket.end());
    bucket.erase(std::unique(bucket.begin(), bucket.end()), bucket.end());
    token_ids_.insert(token_ids_.end(), bucket.begin(), bucket.end());
    YVER_CHECK(token_ids_.size() <= UINT32_MAX);
    token_offsets_.push_back(static_cast<uint32_t>(token_ids_.size()));
  }

  // Birth-date parts: first value per component, parsed once.
  std::array<double, 3> parts;
  for (size_t d = 0; d < 3; ++d) {
    auto values = record.Values(kBirthDateAttrs[d]);
    parts[d] = values.empty() ? std::numeric_limits<double>::quiet_NaN()
                              : ParseNumeric(values.front());
  }
  birth_parts_.push_back(parts);

  // Geo spans: resolve each city value through the item dictionary (the
  // same lookup the per-pair path did), keeping value order.
  for (size_t t = 0; t < kNumPlaceTypes; ++t) {
    AttributeId attr =
        PlaceAttribute(static_cast<PlaceType>(t), PlacePart::kCity);
    for (auto value : record.Values(attr)) {
      auto item = encoded_->dictionary.Find(attr, value);
      if (!item || !encoded_->dictionary.geo(*item)) continue;
      geo_points_.push_back(*encoded_->dictionary.geo(*item));
    }
    YVER_CHECK(geo_points_.size() <= UINT32_MAX);
    geo_offsets_.push_back(static_cast<uint32_t>(geo_points_.size()));
  }

  // Code columns: raw first values, case-sensitive identity.
  auto gender = record.Values(AttributeId::kGender);
  gender_codes_.push_back(gender.empty() ? kNoValueCode
                                         : InternExact(gender.front()));
  auto profession = record.Values(AttributeId::kProfession);
  profession_codes_.push_back(
      profession.empty() ? kNoValueCode : InternExact(profession.front()));
  source_ids_.push_back(record.source_id);
}

ComparisonCorpus::ComparisonCorpus(const EncodedDataset& encoded)
    : encoded_(&encoded) {
  YVER_CHECK(encoded.dataset != nullptr);
  const Dataset& dataset = *encoded.dataset;
  num_records_ = dataset.size();

  gram_offsets_.push_back(0);
  token_offsets_.reserve(num_records_ * kNumAttributes + 1);
  token_offsets_.push_back(0);
  geo_offsets_.reserve(num_records_ * kNumPlaceTypes + 1);
  geo_offsets_.push_back(0);
  birth_parts_.reserve(num_records_);
  gender_codes_.reserve(num_records_);
  profession_codes_.reserve(num_records_);
  source_ids_.reserve(num_records_);

  for (RecordIdx r = 0; r < num_records_; ++r) EncodeRecord(dataset[r]);
}

void ComparisonCorpus::SyncWithDataset() {
  const Dataset& dataset = *encoded_->dataset;
  YVER_CHECK(dataset.size() >= num_records_);
  while (num_records_ < dataset.size()) {
    EncodeRecord(dataset[static_cast<RecordIdx>(num_records_)]);
    ++num_records_;
  }
}

void ComparisonCorpus::RemoveLastRecord() {
  YVER_CHECK(num_records_ > 0);
  --num_records_;
  token_offsets_.resize(token_offsets_.size() - kNumAttributes);
  token_ids_.resize(token_offsets_.back());
  birth_parts_.pop_back();
  geo_offsets_.resize(geo_offsets_.size() - kNumPlaceTypes);
  geo_points_.resize(geo_offsets_.back());
  gender_codes_.pop_back();
  profession_codes_.pop_back();
  source_ids_.pop_back();
}

}  // namespace yver::data
