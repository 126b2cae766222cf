#ifndef YVER_FEATURES_FEATURE_SCHEMA_H_
#define YVER_FEATURES_FEATURE_SCHEMA_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace yver::features {

/// Kind of a pairwise feature. Nominal features take a small set of coded
/// values and are split by equality in the ADTree; numeric features are
/// split by thresholds.
enum class FeatureKind : uint8_t { kNumeric = 0, kNominal };

/// Codes of the trinary sameXName features ("yes when all of the matched
/// pairs' names of this type were the same, partial when only some were
/// the same and no if none matched", §5.1).
enum class NameAgreement : int { kNo = 0, kPartial = 1, kYes = 2 };

/// Codes of binary nominal features.
enum class BinaryCode : int { kNo = 0, kYes = 1 };

/// Definition of one feature.
struct FeatureDef {
  std::string name;
  FeatureKind kind = FeatureKind::kNumeric;
  int num_nominal_values = 0;  // nominal only
};

/// Number of features in the schema.
inline constexpr size_t kNumFeatures = 48;

/// The fixed 48-feature schema of §5.1 (see FeatureExtractor for the
/// construction): indices are stable across the library.
class FeatureSchema {
 public:
  /// The process-wide schema instance.
  static const FeatureSchema& Get();

  size_t size() const { return defs_.size(); }
  const FeatureDef& def(size_t i) const { return defs_[i]; }

  /// Index of a feature by name; aborts when unknown.
  size_t IndexOf(const std::string& name) const;

  const std::vector<FeatureDef>& defs() const { return defs_; }

 private:
  FeatureSchema();
  std::vector<FeatureDef> defs_;
};

/// A feature vector for one candidate pair. Missing features (either
/// record lacks the underlying attribute) are NaN; the ADTree skips
/// splitters over missing features, which is the robustness property the
/// paper selected ADTrees for.
struct FeatureVector {
  std::vector<double> values;

  bool IsMissing(size_t i) const { return std::isnan(values[i]); }
};

/// NaN constant used for missing feature values.
inline double MissingValue() {
  return std::numeric_limits<double>::quiet_NaN();
}

}  // namespace yver::features

#endif  // YVER_FEATURES_FEATURE_SCHEMA_H_
