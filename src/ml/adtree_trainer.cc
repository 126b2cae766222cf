#include "ml/adtree_trainer.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "util/check.h"

namespace yver::ml {

namespace {

// The bucket of a missing value.
constexpr uint16_t kMissingBucket = std::numeric_limits<uint16_t>::max();

// Candidate split conditions for one feature — thresholds (numeric,
// `value < key`, ascending) or coded values (nominal, `value == key`) —
// and every instance's bucket against them, computed once per training
// run because the keys never change:
//   numeric: b = upper_bound(keys, v), so condition k holds iff b <= k;
//   nominal: b = the index of the key equal to (int)v, or keys.size() if
//            none is, so condition k holds iff b == k;
// and kMissingBucket where the value is missing.
struct FeatureCandidates {
  bool nominal = false;
  std::vector<double> keys;
  std::vector<uint16_t> buckets;

  bool Holds(uint16_t bucket, size_t k) const {
    return nominal ? bucket == k : bucket <= k;
  }

  AdtCondition Condition(size_t feature, size_t k) const {
    AdtCondition c;
    c.feature = feature;
    c.is_nominal = nominal;
    if (nominal) {
      c.nominal_value = static_cast<int>(keys[k]);
    } else {
      c.threshold = keys[k];
    }
    return c;
  }
};

// Builds one feature at a time from the instances' values: the keys,
// then the bucket column.
std::vector<FeatureCandidates> BuildCandidates(
    const std::vector<Instance>& instances, size_t max_numeric_thresholds) {
  const auto& schema = features::FeatureSchema::Get();
  for (const Instance& inst : instances) {
    YVER_CHECK(inst.features.values.size() == schema.size());
  }
  std::vector<FeatureCandidates> out(schema.size());
  std::vector<double> column(instances.size());
  std::vector<double> values;
  for (size_t f = 0; f < schema.size(); ++f) {
    const auto& def = schema.def(f);
    FeatureCandidates& cands = out[f];
    for (size_t i = 0; i < instances.size(); ++i) {
      column[i] = instances[i].features.values[f];
    }
    if (def.kind == features::FeatureKind::kNominal) {
      cands.nominal = true;
      for (int v = 0; v < def.num_nominal_values; ++v) cands.keys.push_back(v);
    } else {
      // Numeric: midpoints between consecutive distinct observed values,
      // thinned with stride ⌊m/cap⌋ (see AdTreeTrainerOptions).
      values.clear();
      for (double v : column) {
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
        cands.keys.push_back(midpoints[i]);
      }
    }
    if (cands.keys.empty()) continue;
    YVER_CHECK_MSG(cands.keys.size() < kMissingBucket,
                   "too many split candidates for a 16-bit bucket column");
    const auto keys_begin = cands.keys.begin();
    const auto keys_end = cands.keys.end();
    cands.buckets.resize(instances.size());
    for (size_t i = 0; i < instances.size(); ++i) {
      const double v = column[i];
      if (std::isnan(v)) {
        cands.buckets[i] = kMissingBucket;
        continue;
      }
      const auto it = cands.nominal
                          ? std::find(keys_begin, keys_end,
                                      static_cast<double>(static_cast<int>(v)))
                          : std::upper_bound(keys_begin, keys_end, v);
      cands.buckets[i] = static_cast<uint16_t>(it - keys_begin);
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

// The best condition of one (prediction node, feature) task: the first
// minimum of Z in condition order, or none (condition == npos).
struct TaskBest {
  double z = std::numeric_limits<double>::infinity();
  size_t condition = static_cast<size_t>(-1);
  WeightSplit split;
};

// One pass over the members of a prediction node for one feature, then
// one over its buckets. Each present member adds its weight once, in
// member order, to the present weight and to its bucket's entry of the
// positive or the negative histogram (k_count + 1 buckets). Condition k's
// four sums are then histogram entries added in a fixed bucket order:
//   numeric (holds iff b <= k): true = h[0] + ... + h[k], a running
//     prefix; false = h[k_count] + ... + h[k + 1], a running suffix
//     taken from the top bucket down;
//   nominal (holds iff b == k): true = h[k]; false = the prefix up to
//     h[k - 1] plus the suffix down to h[k + 1].
// So a task costs O(members + k_count), and the sums depend on which
// members reach each bucket, not on how they interleave across buckets.
// tests/support/reference_adtree_trainer.h spells the same sums out per
// condition.
TaskBest ScanTask(const std::vector<size_t>& members,
                  const FeatureCandidates& cands, const double* weights,
                  const int* labels, double total_weight) {
  const size_t k_count = cands.keys.size();
  const size_t num_buckets = k_count + 1;
  const uint16_t* buckets = cands.buckets.data();
  // pos | neg histograms, num_buckets each; then pos | neg suffix sums,
  // num_buckets + 1 each (suffix[b] = h[k_count] + ... + h[b], and
  // suffix[num_buckets] = 0).
  std::vector<double> acc(4 * num_buckets + 2, 0.0);
  double* pos_hist = acc.data();
  double* neg_hist = pos_hist + num_buckets;
  double* pos_suffix = neg_hist + num_buckets;
  double* neg_suffix = pos_suffix + num_buckets + 1;
  double present_weight = 0.0;
  for (size_t idx : members) {
    const uint16_t b = buckets[idx];
    if (b == kMissingBucket) continue;
    const double w = weights[idx];
    present_weight += w;
    (labels[idx] > 0 ? pos_hist : neg_hist)[b] += w;
  }
  TaskBest best;
  if (present_weight <= 0.0) return best;
  for (size_t b = num_buckets; b-- > 0;) {
    pos_suffix[b] = pos_suffix[b + 1] + pos_hist[b];
    neg_suffix[b] = neg_suffix[b + 1] + neg_hist[b];
  }
  const double residual = total_weight - present_weight;
  double pos_prefix = 0.0;  // h[0] + ... + h[k - 1]
  double neg_prefix = 0.0;
  for (size_t k = 0; k < k_count; ++k) {
    const WeightSplit split =
        cands.nominal
            ? WeightSplit{pos_hist[k], neg_hist[k],
                          pos_prefix + pos_suffix[k + 1],
                          neg_prefix + neg_suffix[k + 1]}
            : WeightSplit{pos_prefix + pos_hist[k], neg_prefix + neg_hist[k],
                          pos_suffix[k + 1], neg_suffix[k + 1]};
    pos_prefix += pos_hist[k];
    neg_prefix += neg_hist[k];
    const double z = ZValue(split, residual);
    if (z < best.z) {
      best.z = z;
      best.condition = k;
      best.split = split;
    }
  }
  return best;
}

}  // namespace

AdTree TrainAdTree(const std::vector<Instance>& instances,
                   const AdTreeTrainerOptions& options,
                   util::ThreadPool* pool) {
  YVER_CHECK(!instances.empty());
  YVER_CHECK_MSG(options.max_numeric_thresholds > 0,
                 "max_numeric_thresholds must be positive");
  const size_t n = instances.size();
  const double s = options.smoothing;

  std::vector<double> weights(n, 1.0);
  std::vector<int> labels(n);
  for (size_t i = 0; i < n; ++i) labels[i] = instances[i].label;

  // Prior.
  double w_pos = 0.0;
  double w_neg = 0.0;
  for (size_t i = 0; i < n; ++i) {
    (labels[i] > 0 ? w_pos : w_neg) += weights[i];
  }
  double prior = 0.5 * std::log((w_pos + s) / (w_neg + s));
  AdTree tree(prior);
  for (size_t i = 0; i < n; ++i) {
    weights[i] *= std::exp(-labels[i] * prior);
  }

  // reach[p] = indices of instances reaching prediction node p, ascending.
  std::vector<std::vector<size_t>> reach;
  std::vector<size_t> all(n);
  for (size_t i = 0; i < n; ++i) all[i] = i;
  reach.push_back(std::move(all));

  const std::vector<FeatureCandidates> candidates =
      BuildCandidates(instances, options.max_numeric_thresholds);

  struct Task {
    size_t prediction;
    size_t feature;
  };
  std::vector<Task> tasks;
  std::vector<TaskBest> slots;

  for (size_t round = 1; round <= options.num_rounds; ++round) {
    double total_weight = 0.0;
    for (size_t i = 0; i < n; ++i) total_weight += weights[i];

    // One task per (prediction node, feature), in the order a serial scan
    // visits them; each writes only its own slot.
    tasks.clear();
    for (size_t p = 0; p < reach.size(); ++p) {
      if (reach[p].empty()) continue;
      for (size_t f = 0; f < candidates.size(); ++f) {
        if (!candidates[f].keys.empty()) tasks.push_back({p, f});
      }
    }
    slots.assign(tasks.size(), TaskBest{});
    auto run = [&](size_t t) {
      const Task& task = tasks[t];
      slots[t] = ScanTask(reach[task.prediction], candidates[task.feature],
                          weights.data(), labels.data(), total_weight);
    };
    if (pool == nullptr) {
      for (size_t t = 0; t < tasks.size(); ++t) run(t);
    } else {
      // Strided strands: tasks are ordered node-major and the root node's
      // tasks are the largest, so strand j takes tasks j, j+S, j+2S, ...
      // to spread every node across workers.
      size_t strands = std::min(tasks.size(), pool->num_threads() * 4);
      pool->ParallelFor(strands, [&](size_t j) {
        for (size_t t = j; t < tasks.size(); t += strands) run(t);
      });
    }

    // Serial reduce in (node, feature) order with strict `<`: each slot
    // holds its first minimum in condition order, so this picks the same
    // (node, condition) as one serial scan's first minimum.
    double best_z = std::numeric_limits<double>::infinity();
    size_t best_task = tasks.size();
    for (size_t t = 0; t < tasks.size(); ++t) {
      if (slots[t].z < best_z) {
        best_z = slots[t].z;
        best_task = t;
      }
    }
    if (best_task == tasks.size()) break;  // no usable condition anywhere

    const Task& task = tasks[best_task];
    const TaskBest& best = slots[best_task];
    const AdtCondition best_condition =
        candidates[task.feature].Condition(task.feature, best.condition);
    double a = 0.5 * std::log((best.split.pos_true + s) /
                              (best.split.neg_true + s));
    double b = 0.5 * std::log((best.split.pos_false + s) /
                              (best.split.neg_false + s));
    tree.AddSplitter(static_cast<int>(task.prediction), best_condition, a, b,
                     static_cast<int>(round));

    // Route the affected instances and update their weights; instances
    // with the feature missing stay at the parent (un-routed).
    const FeatureCandidates& cands = candidates[task.feature];
    std::vector<size_t> true_members;
    std::vector<size_t> false_members;
    for (size_t idx : reach[task.prediction]) {
      const uint16_t bucket = cands.buckets[idx];
      if (bucket == kMissingBucket) continue;
      if (cands.Holds(bucket, best.condition)) {
        true_members.push_back(idx);
        weights[idx] *= std::exp(-labels[idx] * a);
      } else {
        false_members.push_back(idx);
        weights[idx] *= std::exp(-labels[idx] * b);
      }
    }
    reach.push_back(std::move(true_members));   // true prediction node
    reach.push_back(std::move(false_members));  // false prediction node
  }
  return tree;
}

ExpertTag ThreeClassAdt::Predict(const features::FeatureVector& fv) const {
  if (maybe_tree.Score(fv) > 0.0) return ExpertTag::kMaybe;
  return match_tree.Classify(fv) ? ExpertTag::kYes : ExpertTag::kNo;
}

ThreeClassAdt TrainThreeClass(const std::vector<Instance>& instances,
                              const AdTreeTrainerOptions& options) {
  // Binary match tree: Yes/ProbablyYes vs rest.
  std::vector<Instance> match_instances = instances;
  for (auto& inst : match_instances) {
    inst.label = (inst.tag == ExpertTag::kYes ||
                  inst.tag == ExpertTag::kProbablyYes)
                     ? +1
                     : -1;
  }
  // Maybe detector: Maybe vs rest.
  std::vector<Instance> maybe_instances = instances;
  for (auto& inst : maybe_instances) {
    inst.label = inst.tag == ExpertTag::kMaybe ? +1 : -1;
  }
  ThreeClassAdt model;
  model.match_tree = TrainAdTree(match_instances, options);
  model.maybe_tree = TrainAdTree(maybe_instances, options);
  return model;
}

}  // namespace yver::ml
