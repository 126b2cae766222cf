#include "core/incremental.h"

#include <algorithm>
#include <functional>

#include "util/check.h"

namespace yver::core {

IncrementalResolver::IncrementalResolver(
    const data::Dataset& initial, const RankedResolution& initial_resolution,
    ml::AdTree model, data::GeoResolver geo_resolver, const Options& options)
    : options_(options),
      model_(std::move(model)),
      geo_resolver_(std::move(geo_resolver)),
      dataset_(initial),
      used_features_(features::MaskOf(model_.UsedFeatures())) {
  encoded_ = data::EncodeDataset(dataset_, geo_resolver_);
  encoded_.dataset = &dataset_;
  extractor_ = std::make_unique<features::FeatureExtractor>(encoded_);
  postings_.resize(encoded_.dictionary.size());
  for (size_t r = 0; r < encoded_.bags.size(); ++r) {
    for (data::ItemId item : encoded_.bags[r]) {
      postings_[item].push_back(static_cast<data::RecordIdx>(r));
    }
  }
  matches_ = initial_resolution.matches();
}

void IncrementalResolver::SelectCandidates(const data::ItemBag& bag,
                                           std::vector<Candidate>* out) {
  out->clear();
  // Every posting holds an existing record (< the new record's index).
  if (shared_counts_.size() < dataset_.size()) {
    shared_counts_.resize(dataset_.size(), 0);
  }
  // Shortest postings first. A record that lists 0..i-1 do not reach is
  // in at most the m - i lists left, so it shares at most m - i items.
  // List i and every later one only raise the counts of records already
  // touched, and never add one, once such a record can no longer be kept:
  // when m - i < min_shared_items, or when max_candidates touched records
  // already share more than m - i items and so outrank it (at_least_[c],
  // c >= 2, counts the touched records sharing at least c). Both bounds
  // only tighten as i grows.
  by_length_.assign(bag.begin(), bag.end());
  std::sort(by_length_.begin(), by_length_.end(),
            [this](data::ItemId x, data::ItemId y) {
              return postings_[x].size() < postings_[y].size();
            });
  const size_t m = by_length_.size();
  at_least_.assign(m + 2, 0);
  touched_.clear();
  size_t i = 0;
  for (; i < m; ++i) {
    size_t left = m - i;
    if (left < options_.min_shared_items ||
        at_least_[left + 1] >= options_.max_candidates) {
      break;
    }
    for (data::RecordIdx other : postings_[by_length_[i]]) {
      uint32_t count = ++shared_counts_[other];
      if (count == 1) {
        touched_.push_back(other);
      } else {
        ++at_least_[count];
      }
    }
  }
  for (; i < m && !touched_.empty(); ++i) {
    for (data::RecordIdx other : postings_[by_length_[i]]) {
      uint32_t& count = shared_counts_[other];
      count += count != 0;
    }
  }
  for (data::RecordIdx other : touched_) {
    uint32_t count = shared_counts_[other];
    shared_counts_[other] = 0;
    if (count >= options_.min_shared_items) out->emplace_back(count, other);
  }
  size_t keep = std::min(out->size(), options_.max_candidates);
  std::partial_sort(out->begin(), out->begin() + keep, out->end(),
                    std::greater<>());
  out->resize(keep);
}

data::RecordIdx IncrementalResolver::AddRecord(data::Record record) {
  last_matches_.clear();
  data::RecordIdx idx = dataset_.Add(std::move(record));
  const data::Record& r = dataset_[idx];

  // Encode the new record's item bag.
  data::ItemBag bag;
  bag.reserve(r.NumValues());
  for (const auto& entry : r.entries()) {
    data::ItemId item = encoded_.dictionary.Intern(entry.attr, entry.value);
    bag.push_back(item);
    if (geo_resolver_ &&
        data::AttributeClass(entry.attr) == data::ValueClass::kGeo &&
        !encoded_.dictionary.geo(item).has_value()) {
      if (auto point = geo_resolver_(entry.attr, entry.value)) {
        encoded_.dictionary.SetGeo(item, *point);
      }
    }
  }
  std::sort(bag.begin(), bag.end());
  bag.erase(std::unique(bag.begin(), bag.end()), bag.end());
  for (data::ItemId item : bag) encoded_.dictionary.IncrementFrequency(item);

  // Candidate generation: existing records sharing enough items.
  if (postings_.size() < encoded_.dictionary.size()) {
    postings_.resize(encoded_.dictionary.size());
  }
  SelectCandidates(bag, &candidates_);

  // Index the new record (after candidate generation: no self-pairs).
  encoded_.bags.push_back(bag);
  for (data::ItemId item : bag) postings_[item].push_back(idx);

  // The extractor's comparison corpus was encoded at construction; give it
  // the new record's columns before any pair involving `idx` is extracted.
  extractor_->SyncAppendedRecords();

  // Score candidates with the deployed model. With no model deployed
  // (serving without a trained ADTree), fall back to the blocking
  // evidence alone: the shared-item fraction is in (0, 1] for every
  // candidate, deterministic, and keeps the ingest path usable instead
  // of aborting inside AdTree::Score.
  for (const auto& [count, other] : candidates_) {
    double block_score = bag.empty() ? 0.0
                                     : static_cast<double>(count) /
                                           static_cast<double>(bag.size());
    double score;
    if (model_.empty()) {
      score = block_score;
    } else {
      extractor_->ExtractInto(other, idx, &scratch_, &features_,
                              used_features_);
      score = model_.Score(features_);
    }
    if (score <= 0.0) continue;
    RankedMatch match;
    match.pair = data::RecordPair(other, idx);
    match.confidence = score;
    match.block_score = block_score;
    last_matches_.push_back(match);
    matches_.push_back(match);
  }
  std::sort(last_matches_.begin(), last_matches_.end(),
            [](const RankedMatch& a, const RankedMatch& b) {
              return a.confidence > b.confidence;
            });
  retractable_ = true;
  return idx;
}

void IncrementalResolver::RetractLastRecord() {
  YVER_CHECK_MSG(retractable_, "no AddRecord to retract");
  retractable_ = false;
  // AddRecord appended exactly last_matches_.size() matches to matches_.
  matches_.resize(matches_.size() - last_matches_.size());
  last_matches_.clear();
  auto idx = static_cast<data::RecordIdx>(dataset_.size() - 1);
  for (data::ItemId item : encoded_.bags.back()) {
    YVER_CHECK(postings_[item].back() == idx);
    postings_[item].pop_back();
    encoded_.dictionary.DecrementFrequency(item);
  }
  encoded_.bags.pop_back();
  extractor_->RemoveLastRecord();
  dataset_.RemoveLast();
}

RankedResolution IncrementalResolver::Resolution() const {
  return RankedResolution(matches_);
}

}  // namespace yver::core
