#include "ml/adtree_trainer.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/check.h"

namespace yver::ml {

namespace {

// The training set transposed once, feature-major: column f is every
// instance's value of feature f in instance order, so a split search
// reads one contiguous array instead of one heap vector per instance.
class Columns {
 public:
  Columns(const std::vector<Instance>& instances, size_t num_features)
      : n_(instances.size()), values_(n_ * num_features) {
    for (size_t i = 0; i < n_; ++i) {
      const std::vector<double>& fv = instances[i].features.values;
      YVER_CHECK(fv.size() == num_features);
      for (size_t f = 0; f < num_features; ++f) values_[f * n_ + i] = fv[f];
    }
  }

  const double* column(size_t f) const { return values_.data() + f * n_; }

 private:
  size_t n_;
  std::vector<double> values_;
};

// Candidate split conditions for one feature as a flat array the scan
// loop reads: thresholds (numeric, `value < key`) or coded values
// (nominal, `value == key`).
struct FeatureCandidates {
  bool nominal = false;
  std::vector<double> keys;

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

std::vector<FeatureCandidates> BuildCandidates(const Columns& columns,
                                               size_t n,
                                               size_t max_numeric_thresholds) {
  const auto& schema = features::FeatureSchema::Get();
  std::vector<FeatureCandidates> out(schema.size());
  for (size_t f = 0; f < schema.size(); ++f) {
    const auto& def = schema.def(f);
    if (def.kind == features::FeatureKind::kNominal) {
      out[f].nominal = true;
      for (int v = 0; v < def.num_nominal_values; ++v) out[f].keys.push_back(v);
      continue;
    }
    // Numeric: midpoints between consecutive distinct observed values,
    // thinned with stride ⌊m/cap⌋ (see AdTreeTrainerOptions).
    const double* col = columns.column(f);
    std::vector<double> values;
    for (size_t i = 0; i < n; ++i) {
      if (!std::isnan(col[i])) values.push_back(col[i]);
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
      out[f].keys.push_back(midpoints[i]);
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

// Adds `w` to true[k] or false[k] for every condition k, branch-free: the
// other side gets +0.0, which leaves a non-negative sum unchanged, so each
// accumulator sees exactly the addends, in member order, that a
// per-condition scan would give it.
template <typename Truth>
void Accumulate(size_t k_count, double w, Truth truth, double* on_true,
                double* on_false) {
  for (size_t k = 0; k < k_count; ++k) {
    bool t = truth(k);
    on_true[k] += t ? w : 0.0;
    on_false[k] += t ? 0.0 : w;
  }
}

// One pass over the members of a prediction node for one feature: the
// present weight and the four weight sums of every condition, then the
// task's first minimum of Z.
TaskBest ScanTask(const std::vector<size_t>& members, const double* column,
                  const FeatureCandidates& cands, const double* weights,
                  const int* labels, double total_weight) {
  const size_t k_count = cands.keys.size();
  const double* keys = cands.keys.data();
  // pos_true | pos_false | neg_true | neg_false, k_count each.
  std::vector<double> acc(4 * k_count, 0.0);
  double* pos_true = acc.data();
  double* pos_false = pos_true + k_count;
  double* neg_true = pos_false + k_count;
  double* neg_false = neg_true + k_count;
  double present_weight = 0.0;
  for (size_t idx : members) {
    double v = column[idx];
    if (std::isnan(v)) continue;
    double w = weights[idx];
    present_weight += w;
    bool pos = labels[idx] > 0;
    double* on_true = pos ? pos_true : neg_true;
    double* on_false = pos ? pos_false : neg_false;
    if (cands.nominal) {
      double iv = static_cast<int>(v);
      Accumulate(k_count, w, [&](size_t k) { return iv == keys[k]; }, on_true,
                 on_false);
    } else {
      Accumulate(k_count, w, [&](size_t k) { return v < keys[k]; }, on_true,
                 on_false);
    }
  }
  TaskBest best;
  if (present_weight <= 0.0) return best;
  double residual = total_weight - present_weight;
  for (size_t k = 0; k < k_count; ++k) {
    WeightSplit split{pos_true[k], neg_true[k], pos_false[k], neg_false[k]};
    double z = ZValue(split, residual);
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

  const Columns columns(instances, features::FeatureSchema::Get().size());
  auto candidates =
      BuildCandidates(columns, n, options.max_numeric_thresholds);

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
      slots[t] = ScanTask(reach[task.prediction], columns.column(task.feature),
                          candidates[task.feature], weights.data(),
                          labels.data(), total_weight);
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
    const double* column = columns.column(task.feature);
    std::vector<size_t> true_members;
    std::vector<size_t> false_members;
    for (size_t idx : reach[task.prediction]) {
      double v = column[idx];
      if (std::isnan(v)) continue;
      if (best_condition.Evaluate(v)) {
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
