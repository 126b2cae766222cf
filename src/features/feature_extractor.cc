#include "features/feature_extractor.h"

#include <algorithm>
#include <cmath>

#include "geo/geo.h"
#include "text/jaccard.h"
#include "util/check.h"

namespace yver::features {

namespace {

using data::AttributeId;
using data::PlacePart;
using data::PlaceType;
using data::TokenId;

constexpr AttributeId kNameAttrs[] = {
    AttributeId::kFirstName,   AttributeId::kLastName,
    AttributeId::kSpouseName,  AttributeId::kFathersName,
    AttributeId::kMothersName, AttributeId::kMothersMaiden,
    AttributeId::kMaidenName,
};

constexpr PlaceType kPlaceTypes[] = {PlaceType::kBirth, PlaceType::kPermanent,
                                     PlaceType::kWartime, PlaceType::kDeath};

// Size of the intersection of two sorted unique token-id spans. Equal to
// the string-set intersection the old path computed: interning is
// injective and both spans share the id order.
size_t IntersectionSize(std::span<const TokenId> a,
                        std::span<const TokenId> b) {
  size_t inter = 0;
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      ++inter;
      ++i;
      ++j;
    }
  }
  return inter;
}

bool AnyCommon(std::span<const TokenId> a, std::span<const TokenId> b) {
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      return true;
    }
  }
  return false;
}

// Trinary agreement of two value sets (sameXName semantics).
NameAgreement Agreement(std::span<const TokenId> a,
                        std::span<const TokenId> b) {
  size_t inter = IntersectionSize(a, b);
  if (inter == 0) return NameAgreement::kNo;
  if (inter == a.size() && inter == b.size()) return NameAgreement::kYes;
  return NameAgreement::kPartial;
}

}  // namespace

FeatureMask MaskOf(std::span<const size_t> features) {
  FeatureMask mask;
  for (size_t f : features) mask.set(f);
  return mask;
}

FeatureExtractor::FeatureExtractor(const data::EncodedDataset& encoded)
    : encoded_(encoded) {
  YVER_CHECK(encoded.dataset != nullptr);
  corpus_ = std::make_unique<data::ComparisonCorpus>(encoded);
}

FeatureExtractor::~FeatureExtractor() = default;

FeatureVector FeatureExtractor::Extract(data::RecordIdx a,
                                        data::RecordIdx b) const {
  Scratch scratch;
  FeatureVector fv;
  ExtractInto(a, b, &scratch, &fv);
  return fv;
}

void FeatureExtractor::ExtractInto(data::RecordIdx a, data::RecordIdx b,
                                   Scratch* scratch, FeatureVector* out,
                                   const FeatureMask& mask) const {
  (void)scratch;  // the columnar path needs no per-pair buffers
  const data::ComparisonCorpus& corpus = *corpus_;
  FeatureVector& fv = *out;
  fv.values.assign(kNumFeatures, MissingValue());
  // Each feature below is computed only when `mask` asks for it, or for a
  // later feature that reuses its comparison; `next` walks the schema.
  size_t next = 0;
  auto wanted = [&mask, &next] { return mask.test(next); };
  auto emit = [&fv, &next](double v) { fv.values[next++] = v; };
  auto skip = [&next] { ++next; };

  // 1..7: sameXName — integer set intersection over token spans.
  for (AttributeId attr : kNameAttrs) {
    auto ta = corpus.Tokens(a, attr);
    auto tb = corpus.Tokens(b, attr);
    if (!wanted() || ta.empty() || tb.empty()) {
      skip();
      continue;
    }
    emit(static_cast<double>(Agreement(ta, tb)));
  }
  // 8..14: XnameDist — maximum q-gram Jaccard over the value cross
  // product, via the dictionary-memoized per-token gram sets.
  for (AttributeId attr : kNameAttrs) {
    if (!wanted()) {
      skip();
      continue;
    }
    auto ta = corpus.Tokens(a, attr);
    auto tb = corpus.Tokens(b, attr);
    if (ta.empty() || tb.empty()) {
      skip();
      continue;
    }
    double best = 0.0;
    for (TokenId x : ta) {
      for (TokenId y : tb) {
        best = std::max(best, x == y
                                  ? 1.0
                                  : text::JaccardOfSortedIds(
                                        corpus.TokenQGrams(x),
                                        corpus.TokenQGrams(y)));
      }
    }
    emit(best);
  }
  // 15..17: raw birth-date component distances, over parts parsed once at
  // encode time. 41..43 reuse them.
  constexpr size_t kDateSimFirst = 40;
  const std::array<double, 3>& parts_a = corpus.BirthParts(a);
  const std::array<double, 3>& parts_b = corpus.BirthParts(b);
  double date_dist[3] = {MissingValue(), MissingValue(), MissingValue()};
  for (size_t d = 0; d < 3; ++d) {
    bool reused = mask.test(kDateSimFirst + d);
    if ((!wanted() && !reused) || std::isnan(parts_a[d]) ||
        std::isnan(parts_b[d])) {
      skip();
      continue;
    }
    date_dist[d] = std::abs(parts_a[d] - parts_b[d]);
    if (wanted()) {
      emit(date_dist[d]);
    } else {
      skip();
    }
  }
  // 18..33: samePlaceXPartY. The per-part comparisons are kept for reuse
  // by the whole-place agreement features (44..47), which recompute the
  // identical quantity in the string path.
  constexpr size_t kWholePlaceFirst = 43;
  bool place_compared[data::kNumPlaceTypes][data::kNumPlaceParts];
  bool place_common[data::kNumPlaceTypes][data::kNumPlaceParts];
  for (size_t t = 0; t < data::kNumPlaceTypes; ++t) {
    bool reused = mask.test(kWholePlaceFirst + t);
    for (size_t p = 0; p < data::kNumPlaceParts; ++p) {
      place_compared[t][p] = false;
      place_common[t][p] = false;
      if (!wanted() && !reused) {
        skip();
        continue;
      }
      AttributeId attr = data::PlaceAttribute(static_cast<PlaceType>(t),
                                              static_cast<PlacePart>(p));
      auto ta = corpus.Tokens(a, attr);
      auto tb = corpus.Tokens(b, attr);
      place_compared[t][p] = !ta.empty() && !tb.empty();
      place_common[t][p] = place_compared[t][p] && AnyCommon(ta, tb);
      if (!wanted() || !place_compared[t][p]) {
        skip();
        continue;
      }
      emit(place_common[t][p] ? static_cast<double>(BinaryCode::kYes)
                              : static_cast<double>(BinaryCode::kNo));
    }
  }
  // 34..37: PlaceXGeoDistance in km (min over city value pairs with known
  // coordinates), over coordinates resolved once at encode time.
  for (PlaceType type : kPlaceTypes) {
    double best = wanted() ? geo::MinHaversineKm(corpus.GeoPoints(a, type),
                                                 corpus.GeoPoints(b, type))
                           : MissingValue();
    if (std::isnan(best)) {
      skip();
    } else {
      emit(best);
    }
  }
  // 38..40: sameSource / sameGender / sameProfession.
  if (wanted()) {
    emit(corpus.SourceId(a) == corpus.SourceId(b)
             ? static_cast<double>(BinaryCode::kYes)
             : static_cast<double>(BinaryCode::kNo));
  } else {
    skip();
  }
  {
    uint32_t ga = corpus.GenderCode(a);
    uint32_t gb = corpus.GenderCode(b);
    if (!wanted() || ga == data::kNoValueCode || gb == data::kNoValueCode) {
      skip();
    } else {
      emit(ga == gb ? static_cast<double>(BinaryCode::kYes)
                    : static_cast<double>(BinaryCode::kNo));
    }
  }
  {
    uint32_t pa = corpus.ProfessionCode(a);
    uint32_t pb = corpus.ProfessionCode(b);
    if (!wanted() || pa == data::kNoValueCode || pb == data::kNoValueCode) {
      skip();
    } else {
      emit(pa == pb ? static_cast<double>(BinaryCode::kYes)
                    : static_cast<double>(BinaryCode::kNo));
    }
  }
  // 41..43: normalized birth-date similarities.
  YVER_CHECK(next == kDateSimFirst);
  const double norms[3] = {31.0, 12.0, 100.0};
  for (size_t d = 0; d < 3; ++d) {
    if (!wanted() || std::isnan(date_dist[d])) {
      skip();
    } else {
      emit(std::max(0.0, 1.0 - date_dist[d] / norms[d]));
    }
  }
  // 44..47: whole-place agreement per type (all present parts agree),
  // reusing the comparisons of 18..33.
  YVER_CHECK(next == kWholePlaceFirst);
  for (size_t t = 0; t < data::kNumPlaceTypes; ++t) {
    bool any_compared = false;
    bool all_agree = true;
    for (size_t p = 0; p < data::kNumPlaceParts; ++p) {
      if (!place_compared[t][p]) continue;
      any_compared = true;
      all_agree = all_agree && place_common[t][p];
    }
    if (!wanted() || !any_compared) {
      skip();
    } else {
      emit(all_agree ? static_cast<double>(BinaryCode::kYes)
                     : static_cast<double>(BinaryCode::kNo));
    }
  }
  // 48: overall item-bag Jaccard.
  if (wanted()) {
    emit(text::JaccardOfSortedIds(encoded_.bags[a], encoded_.bags[b]));
  } else {
    skip();
  }

  YVER_CHECK(next == kNumFeatures);
}

std::vector<FeatureVector> FeatureExtractor::ExtractBatch(
    std::span<const data::RecordPair> pairs, util::ThreadPool* pool,
    const FeatureMask& mask) const {
  std::vector<FeatureVector> out(pairs.size());
  auto extract_chunk = [this, pairs, &out, &mask](size_t begin, size_t end) {
    Scratch scratch;
    for (size_t i = begin; i < end; ++i) {
      ExtractInto(pairs[i].a, pairs[i].b, &scratch, &out[i], mask);
    }
  };
  if (pool == nullptr || pool->num_threads() <= 1) {
    extract_chunk(0, pairs.size());
  } else {
    pool->ParallelForChunked(pairs.size(), extract_chunk);
  }
  return out;
}

}  // namespace yver::features
