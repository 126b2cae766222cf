#ifndef YVER_ML_ADTREE_TRAINER_H_
#define YVER_ML_ADTREE_TRAINER_H_

#include <cstddef>
#include <vector>

#include "ml/adtree.h"
#include "ml/instances.h"
#include "util/thread_pool.h"

namespace yver::ml {

/// Boosting configuration for ADTree induction.
struct AdTreeTrainerOptions {
  /// Number of boosting rounds = number of splitter nodes. The paper's
  /// final models use 8-10 splitters.
  size_t num_rounds = 10;

  /// Target number of candidate thresholds per numeric feature. The m
  /// midpoints between consecutive distinct observed values are thinned
  /// with stride max(1, ⌊m/cap⌋), which keeps between min(m, cap) and
  /// 2·cap−1 of them (every midpoint while m < 2·cap) — a target, not an
  /// upper bound. Must be positive, and the kept count must stay below
  /// 65535, the reach of the trainer's 16-bit bucket columns (checked).
  size_t max_numeric_thresholds = 32;

  /// Laplace smoothing added inside the prediction-value logs (Weka's
  /// ADTree uses 1.0).
  double smoothing = 1.0;
};

/// Trains an alternating decision tree with the boosting procedure of
/// Freund & Mason (1999):
///   - every prediction node is a possible attachment point
///     (precondition);
///   - each round scans (precondition, condition) pairs and picks the one
///     minimizing Z = 2(√(W₊(p∧c)W₋(p∧c)) + √(W₊(p∧¬c)W₋(p∧¬c))) + W(¬p);
///   - the two new prediction values are ½ ln(W₊+s / W₋+s);
///   - weights of affected instances are multiplied by exp(-y·prediction).
/// Instances whose split feature is missing stay un-routed (counted in the
/// residual W(¬p) term), matching the scorer's skip-on-missing semantics.
///
/// The candidate conditions are fixed for a whole run, so every
/// instance's value is reduced once to a 16-bit bucket per feature — the
/// number of thresholds at or below it (numeric), or the index of its
/// nominal value — and the split search and the routing read only those
/// bucket columns. The split search is one task per (prediction node,
/// feature): each member adds its weight once to its bucket's entry of a
/// positive or negative histogram, in member order, and every
/// condition's four weight sums are then prefix and suffix sums of the
/// histograms taken in a fixed bucket order. With a pool the tasks of a
/// round run in parallel into per-task slots and are reduced serially in
/// (node, feature) order. The tree is bit-identical for every pool size,
/// including none, and to the per-condition reference trainer
/// (DESIGN.md §7).
AdTree TrainAdTree(const std::vector<Instance>& instances,
                   const AdTreeTrainerOptions& options,
                   util::ThreadPool* pool = nullptr);

/// Three-class wrapper for the "Identify Maybe values" condition of
/// Table 5: a binary match tree (Maybe treated as non-match) plus a
/// Maybe-vs-rest detector tree.
struct ThreeClassAdt {
  AdTree match_tree;
  AdTree maybe_tree;

  /// Predicted tag class: kYes, kNo, or kMaybe.
  ExpertTag Predict(const features::FeatureVector& fv) const;
};

/// Trains the three-class model from tagged instances.
ThreeClassAdt TrainThreeClass(const std::vector<Instance>& instances,
                              const AdTreeTrainerOptions& options);

}  // namespace yver::ml

#endif  // YVER_ML_ADTREE_TRAINER_H_
