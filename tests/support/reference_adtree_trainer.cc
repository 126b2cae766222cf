// The instance-major ADTree trainer in two variants that differ only in
// how a condition's four weight sums are added up: the histogram spec the
// production trainer must match bit for bit, and the member-by-member
// sums it replaced, which bound the change. Any behavioral edit here
// changes the specification — don't "optimize" this file.

#include "support/reference_adtree_trainer.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/check.h"

namespace yver::ml {

namespace {

// Candidate split conditions for one feature.
struct FeatureCandidates {
  std::vector<AdtCondition> conditions;
};

std::vector<FeatureCandidates> BuildCandidates(
    const std::vector<Instance>& instances, size_t max_numeric_thresholds) {
  const auto& schema = features::FeatureSchema::Get();
  std::vector<FeatureCandidates> out(schema.size());
  for (size_t f = 0; f < schema.size(); ++f) {
    const auto& def = schema.def(f);
    if (def.kind == features::FeatureKind::kNominal) {
      for (int v = 0; v < def.num_nominal_values; ++v) {
        AdtCondition c;
        c.feature = f;
        c.is_nominal = true;
        c.nominal_value = v;
        out[f].conditions.push_back(c);
      }
      continue;
    }
    // Numeric: midpoints between consecutive distinct observed values,
    // thinned to at most max_numeric_thresholds quantiles.
    std::vector<double> values;
    for (const auto& inst : instances) {
      double v = inst.features.values[f];
      if (!std::isnan(v)) values.push_back(v);
    }
    std::sort(values.begin(), values.end());
    values.erase(std::unique(values.begin(), values.end()), values.end());
    if (values.size() < 2) continue;
    std::vector<double> midpoints;
    midpoints.reserve(values.size() - 1);
    for (size_t i = 0; i + 1 < values.size(); ++i) {
      midpoints.push_back((values[i] + values[i + 1]) / 2.0);
    }
    size_t stride =
        std::max<size_t>(1, midpoints.size() / max_numeric_thresholds);
    for (size_t i = 0; i < midpoints.size(); i += stride) {
      AdtCondition c;
      c.feature = f;
      c.is_nominal = false;
      c.threshold = midpoints[i];
      out[f].conditions.push_back(c);
    }
  }
  return out;
}

struct WeightSplit {
  double pos_true = 0.0;
  double neg_true = 0.0;
  double pos_false = 0.0;
  double neg_false = 0.0;
};

double ZValue(const WeightSplit& w, double residual) {
  return 2.0 * (std::sqrt(w.pos_true * w.neg_true) +
                std::sqrt(w.pos_false * w.neg_false)) +
         residual;
}

enum class SumOrder { kHistogram, kMemberByMember };

// Condition `k` of `conditions`: every present member, in member order,
// adds its weight to the one of the four sums it falls in.
WeightSplit MemberByMemberSplit(const std::vector<Instance>& instances,
                                const std::vector<double>& weights,
                                const std::vector<size_t>& members,
                                const std::vector<AdtCondition>& conditions,
                                size_t k) {
  const AdtCondition& cond = conditions[k];
  WeightSplit split;
  for (size_t idx : members) {
    double v = instances[idx].features.values[cond.feature];
    if (std::isnan(v)) continue;
    bool truth = cond.Evaluate(v);
    double w = weights[idx];
    if (instances[idx].label > 0) {
      (truth ? split.pos_true : split.pos_false) += w;
    } else {
      (truth ? split.neg_true : split.neg_false) += w;
    }
  }
  return split;
}

// The bucket of a present value among one feature's conditions: the
// index of the first condition that holds, or conditions.size() when
// none does. Numeric thresholds ascend, so condition k holds iff
// bucket <= k; at most one nominal condition holds, so it is k iff
// bucket == k.
size_t Bucket(const std::vector<AdtCondition>& conditions, double v) {
  size_t b = 0;
  while (b < conditions.size() && !conditions[b].Evaluate(v)) ++b;
  return b;
}

// Per-bucket weight sums of one feature's present members, split by
// label: every member, in member order, adds its weight to its bucket
// (conditions.size() + 1 buckets).
struct Histograms {
  std::vector<double> pos;
  std::vector<double> neg;
};

Histograms BuildHistograms(const std::vector<Instance>& instances,
                           const std::vector<double>& weights,
                           const std::vector<size_t>& members,
                           const std::vector<AdtCondition>& conditions) {
  const size_t num_buckets = conditions.size() + 1;
  const size_t feature = conditions.front().feature;
  Histograms h{std::vector<double>(num_buckets, 0.0),
               std::vector<double>(num_buckets, 0.0)};
  for (size_t idx : members) {
    double v = instances[idx].features.values[feature];
    if (std::isnan(v)) continue;
    size_t b = Bucket(conditions, v);
    (instances[idx].label > 0 ? h.pos : h.neg)[b] += weights[idx];
  }
  return h;
}

// Condition `k`'s four sums from the histograms, added bucket by bucket,
// each starting from 0.0 (K = conditions.size()):
//   numeric, true:  h[0] + h[1] + ... + h[k]          (ascending)
//   numeric, false: h[K] + h[K - 1] + ... + h[k + 1]  (descending)
//   nominal, true:  h[k]
//   nominal, false: (h[0] + ... + h[k - 1]) + (h[K] + ... + h[k + 1])
WeightSplit HistogramSplit(const Histograms& h,
                           const std::vector<AdtCondition>& conditions,
                           size_t k) {
  const size_t num_buckets = conditions.size() + 1;
  auto ascending = [](const std::vector<double>& hist, size_t begin,
                      size_t end) {
    double sum = 0.0;
    for (size_t b = begin; b < end; ++b) sum += hist[b];
    return sum;
  };
  auto descending = [](const std::vector<double>& hist, size_t begin,
                       size_t end) {
    double sum = 0.0;
    for (size_t b = end; b > begin; --b) sum += hist[b - 1];
    return sum;
  };
  WeightSplit split;
  if (conditions[k].is_nominal) {
    split.pos_true = h.pos[k];
    split.neg_true = h.neg[k];
    split.pos_false =
        ascending(h.pos, 0, k) + descending(h.pos, k + 1, num_buckets);
    split.neg_false =
        ascending(h.neg, 0, k) + descending(h.neg, k + 1, num_buckets);
  } else {
    split.pos_true = ascending(h.pos, 0, k + 1);
    split.neg_true = ascending(h.neg, 0, k + 1);
    split.pos_false = descending(h.pos, k + 1, num_buckets);
    split.neg_false = descending(h.neg, k + 1, num_buckets);
  }
  return split;
}

AdTree TrainWith(SumOrder order, const std::vector<Instance>& instances,
                 const AdTreeTrainerOptions& options) {
  YVER_CHECK(!instances.empty());
  const size_t n = instances.size();
  const double s = options.smoothing;

  std::vector<double> weights(n, 1.0);

  // Prior.
  double w_pos = 0.0;
  double w_neg = 0.0;
  for (size_t i = 0; i < n; ++i) {
    (instances[i].label > 0 ? w_pos : w_neg) += weights[i];
  }
  double prior = 0.5 * std::log((w_pos + s) / (w_neg + s));
  AdTree tree(prior);
  for (size_t i = 0; i < n; ++i) {
    weights[i] *= std::exp(-instances[i].label * prior);
  }

  // reach[p] = indices of instances reaching prediction node p.
  std::vector<std::vector<size_t>> reach;
  std::vector<size_t> all(n);
  for (size_t i = 0; i < n; ++i) all[i] = i;
  reach.push_back(std::move(all));

  auto candidates = BuildCandidates(instances, options.max_numeric_thresholds);

  for (size_t round = 1; round <= options.num_rounds; ++round) {
    double total_weight = 0.0;
    for (size_t i = 0; i < n; ++i) total_weight += weights[i];

    double best_z = std::numeric_limits<double>::infinity();
    int best_prediction = -1;
    AdtCondition best_condition;
    WeightSplit best_split;

    for (size_t p = 0; p < reach.size(); ++p) {
      const auto& members = reach[p];
      if (members.empty()) continue;
      for (size_t f = 0; f < candidates.size(); ++f) {
        if (candidates[f].conditions.empty()) continue;
        // Weight of members whose feature f is present.
        double present_weight = 0.0;
        for (size_t idx : members) {
          if (!instances[idx].features.IsMissing(f)) {
            present_weight += weights[idx];
          }
        }
        if (present_weight <= 0.0) continue;
        double residual = total_weight - present_weight;
        const std::vector<AdtCondition>& conditions =
            candidates[f].conditions;
        Histograms histograms;
        if (order == SumOrder::kHistogram) {
          histograms =
              BuildHistograms(instances, weights, members, conditions);
        }
        for (size_t k = 0; k < conditions.size(); ++k) {
          const AdtCondition& cond = conditions[k];
          WeightSplit split =
              order == SumOrder::kHistogram
                  ? HistogramSplit(histograms, conditions, k)
                  : MemberByMemberSplit(instances, weights, members,
                                        conditions, k);
          double z = ZValue(split, residual);
          if (z < best_z) {
            best_z = z;
            best_prediction = static_cast<int>(p);
            best_condition = cond;
            best_split = split;
          }
        }
      }
    }
    if (best_prediction < 0) break;  // no usable condition anywhere

    double a = 0.5 * std::log((best_split.pos_true + s) /
                              (best_split.neg_true + s));
    double b = 0.5 * std::log((best_split.pos_false + s) /
                              (best_split.neg_false + s));
    tree.AddSplitter(best_prediction, best_condition, a, b,
                     static_cast<int>(round));

    // Route the affected instances and update their weights; instances
    // with the feature missing stay at the parent (un-routed).
    const auto& parent_members = reach[best_prediction];
    std::vector<size_t> true_members;
    std::vector<size_t> false_members;
    for (size_t idx : parent_members) {
      double v = instances[idx].features.values[best_condition.feature];
      if (std::isnan(v)) continue;
      if (best_condition.Evaluate(v)) {
        true_members.push_back(idx);
        weights[idx] *= std::exp(-instances[idx].label * a);
      } else {
        false_members.push_back(idx);
        weights[idx] *= std::exp(-instances[idx].label * b);
      }
    }
    reach.push_back(std::move(true_members));   // true prediction node
    reach.push_back(std::move(false_members));  // false prediction node
  }
  return tree;
}

}  // namespace

AdTree ReferenceTrainAdTree(const std::vector<Instance>& instances,
                            const AdTreeTrainerOptions& options) {
  return TrainWith(SumOrder::kHistogram, instances, options);
}

AdTree MemberSumTrainAdTree(const std::vector<Instance>& instances,
                            const AdTreeTrainerOptions& options) {
  return TrainWith(SumOrder::kMemberByMember, instances, options);
}

}  // namespace yver::ml
