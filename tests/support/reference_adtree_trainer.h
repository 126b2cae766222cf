#ifndef YVER_TESTS_SUPPORT_REFERENCE_ADTREE_TRAINER_H_
#define YVER_TESTS_SUPPORT_REFERENCE_ADTREE_TRAINER_H_

#include <vector>

#include "ml/adtree.h"
#include "ml/adtree_trainer.h"
#include "ml/instances.h"

namespace yver::ml {

/// The instance-major ADTree trainer, the executable specification of
/// boosting: each round rescans every (prediction node, feature,
/// condition) triple, re-reading every member's FeatureVector once per
/// condition. A condition's four weight sums are built as the production
/// trainer builds them: each member's weight goes into its bucket of a
/// positive or negative histogram, in member order, and the sums add the
/// histogram entries in a fixed bucket order (reference_adtree_trainer.cc
/// spells out which).
///
/// Test-only: tests/adtree_trainer_equivalence_test.cc checks that the
/// production column-major trainer (ml::TrainAdTree) returns the same
/// tree, bit for bit, for every pool size. Never link this into
/// production code.
AdTree ReferenceTrainAdTree(const std::vector<Instance>& instances,
                            const AdTreeTrainerOptions& options);

/// The same trainer with the sums the histogram replaced: every member
/// adds its weight, in member order, straight to the sums its condition
/// outcome selects. The production trainer computed these until the
/// histogram scan; the equivalence test keeps it to bound the change
/// (same splitters, prediction values within a relative error).
AdTree MemberSumTrainAdTree(const std::vector<Instance>& instances,
                            const AdTreeTrainerOptions& options);

}  // namespace yver::ml

#endif  // YVER_TESTS_SUPPORT_REFERENCE_ADTREE_TRAINER_H_
