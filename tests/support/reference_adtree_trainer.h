#ifndef YVER_TESTS_SUPPORT_REFERENCE_ADTREE_TRAINER_H_
#define YVER_TESTS_SUPPORT_REFERENCE_ADTREE_TRAINER_H_

#include <vector>

#include "ml/adtree.h"
#include "ml/adtree_trainer.h"
#include "ml/instances.h"

namespace yver::ml {

/// The original instance-major ADTree trainer, preserved verbatim as the
/// executable specification of boosting: each round rescans every
/// (prediction node, feature, condition) triple, re-reading every
/// member's FeatureVector once per condition.
///
/// Test-only: tests/adtree_trainer_equivalence_test.cc checks that the
/// production column-major trainer (ml::TrainAdTree) returns the same
/// tree, bit for bit, for every pool size. Never link this into
/// production code.
AdTree ReferenceTrainAdTree(const std::vector<Instance>& instances,
                            const AdTreeTrainerOptions& options);

}  // namespace yver::ml

#endif  // YVER_TESTS_SUPPORT_REFERENCE_ADTREE_TRAINER_H_
