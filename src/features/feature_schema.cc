#include "features/feature_schema.h"

#include <limits>

#include "util/check.h"

namespace yver::features {

namespace {

// Short feature-name stems matching the paper's printed trees
// (sameFN, FNdist, FFNdist, MFNdist, SNdist, LNdist, MNdist, ...).
constexpr const char* kNameStems[] = {"FN", "LN", "SN", "FFN",
                                      "MFN", "MMN", "MDN"};

constexpr const char* kPlaceTypeStems[] = {"B", "P", "W", "D"};
constexpr const char* kPlacePartStems[] = {"City", "County", "Region",
                                           "Country"};

}  // namespace

FeatureSchema::FeatureSchema() {
  // 1..7: sameXName trinary agreement.
  for (const char* stem : kNameStems) {
    defs_.push_back({std::string("same") + stem, FeatureKind::kNominal, 3});
  }
  // 8..14: XnameDist — max q-gram Jaccard similarity over name values.
  for (const char* stem : kNameStems) {
    defs_.push_back({std::string(stem) + "dist", FeatureKind::kNumeric, 0});
  }
  // 15..17: BXdist — raw birth-date component distances (B1=day, B2=month,
  // B3=year), matching the thresholds printed in Tables 7/8.
  defs_.push_back({"B1dist", FeatureKind::kNumeric, 0});
  defs_.push_back({"B2dist", FeatureKind::kNumeric, 0});
  defs_.push_back({"B3dist", FeatureKind::kNumeric, 0});
  // 18..33: samePlaceXPartY binary equality.
  for (const char* type : kPlaceTypeStems) {
    for (const char* part : kPlacePartStems) {
      defs_.push_back({std::string("same") + type + "P" + part,
                       FeatureKind::kNominal, 2});
    }
  }
  // 34..37: PlaceXGeoDistance in km between same-type cities.
  for (const char* type : kPlaceTypeStems) {
    defs_.push_back(
        {std::string(type) + "PGeoDist", FeatureKind::kNumeric, 0});
  }
  // 38..40: sameSource, sameGender, sameProfession.
  defs_.push_back({"sameSource", FeatureKind::kNominal, 2});
  defs_.push_back({"sameGender", FeatureKind::kNominal, 2});
  defs_.push_back({"sameProfession", FeatureKind::kNominal, 2});
  // 41..48: auxiliary features completing the paper's count of 48
  // ("we constructed every conceivable similarity feature ... assuming
  // these will be pruned by the ADT algorithm", §5.1): normalized birth
  // date similarities, whole-place agreement per place type, and the
  // overall item-bag Jaccard.
  defs_.push_back({"B1sim", FeatureKind::kNumeric, 0});
  defs_.push_back({"B2sim", FeatureKind::kNumeric, 0});
  defs_.push_back({"B3sim", FeatureKind::kNumeric, 0});
  for (const char* type : kPlaceTypeStems) {
    defs_.push_back(
        {std::string("same") + type + "Place", FeatureKind::kNominal, 2});
  }
  defs_.push_back({"bagJaccard", FeatureKind::kNumeric, 0});
  YVER_CHECK(defs_.size() == kNumFeatures);
}

const FeatureSchema& FeatureSchema::Get() {
  static const FeatureSchema* schema = new FeatureSchema();
  return *schema;
}

size_t FeatureSchema::IndexOf(const std::string& name) const {
  for (size_t i = 0; i < defs_.size(); ++i) {
    if (defs_[i].name == name) return i;
  }
  YVER_CHECK_MSG(false, name.c_str());
  return 0;
}

}  // namespace yver::features
