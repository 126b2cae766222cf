#include "core/pipeline.h"

#include <algorithm>
#include <memory>
#include <span>
#include <utility>

#include "util/check.h"
#include "util/timer.h"

namespace yver::core {

UncertainErPipeline::UncertainErPipeline(const data::Dataset& dataset,
                                         data::GeoResolver geo_resolver)
    : dataset_(&dataset) {
  util::Timer timer;
  encoded_ = data::EncodeDataset(dataset, geo_resolver);
  extractor_ = std::make_unique<features::FeatureExtractor>(encoded_);
  encode_seconds_ = timer.ElapsedSeconds();
}

blocking::MfiBlocksResult UncertainErPipeline::RunBlocking(
    const blocking::MfiBlocksConfig& config, size_t num_threads) {
  size_t n = util::ResolveNumThreads(num_threads);
  if (n <= 1) {
    return RunBlocking(config, static_cast<util::ThreadPool*>(nullptr));
  }
  util::ThreadPool pool(n);
  return RunBlocking(config, &pool);
}

blocking::MfiBlocksResult UncertainErPipeline::RunBlocking(
    const blocking::MfiBlocksConfig& config, util::ThreadPool* pool) {
  if (pool != nullptr && pool->num_threads() <= 1) pool = nullptr;
  return blocking::RunMfiBlocks(encoded_, config, pool);
}

std::vector<blocking::CandidatePair> UncertainErPipeline::DiscardSameSource(
    const std::vector<blocking::CandidatePair>& pairs) const {
  std::vector<blocking::CandidatePair> out;
  out.reserve(pairs.size());
  for (const auto& cp : pairs) {
    const data::Record& a = (*dataset_)[cp.pair.a];
    const data::Record& b = (*dataset_)[cp.pair.b];
    if (a.source_id == b.source_id) continue;
    out.push_back(cp);
  }
  return out;
}

namespace {

std::vector<data::RecordPair> PairsOf(
    const std::vector<blocking::CandidatePair>& candidates) {
  std::vector<data::RecordPair> pairs;
  pairs.reserve(candidates.size());
  for (const auto& cp : candidates) pairs.push_back(cp.pair);
  return pairs;
}

}  // namespace

std::vector<ml::Instance> UncertainErPipeline::MakeInstances(
    const std::vector<blocking::CandidatePair>& pairs,
    const PairTagger& tagger, util::ThreadPool* pool,
    StageTimings* timings) const {
  YVER_CHECK(tagger != nullptr);
  // Features first, chunk-parallel into index-addressed slots; then one
  // serial tagging pass in candidate order so a stateful tagger sees the
  // exact call sequence of the serial pipeline.
  util::Timer timer;
  std::vector<features::FeatureVector> features =
      extractor_->ExtractBatch(PairsOf(pairs), pool);
  if (timings != nullptr) timings->extract_seconds += timer.ElapsedSeconds();
  timer.Reset();
  std::vector<ml::Instance> instances;
  instances.reserve(pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    ml::Instance inst;
    inst.pair = pairs[i].pair;
    inst.features = std::move(features[i]);
    inst.tag = tagger(pairs[i].pair.a, pairs[i].pair.b);
    instances.push_back(std::move(inst));
  }
  if (timings != nullptr) timings->tag_seconds += timer.ElapsedSeconds();
  return instances;
}

PipelineResult UncertainErPipeline::Run(const PipelineConfig& config,
                                        const PairTagger& tagger) {
  size_t n = util::ResolveNumThreads(config.num_threads);
  std::unique_ptr<util::ThreadPool> owned_pool;
  util::ThreadPool* pool = nullptr;
  if (n > 1) {
    owned_pool = std::make_unique<util::ThreadPool>(n);
    pool = owned_pool.get();
  }

  PipelineResult result;
  result.timings.encode_seconds = encode_seconds_;
  util::Timer timer;
  result.blocking = RunBlocking(config.blocking, pool);
  result.candidates = config.discard_same_source
                          ? DiscardSameSource(result.blocking.pairs)
                          : result.blocking.pairs;
  result.timings.blocking_seconds = timer.ElapsedSeconds();
  result.timings.blocking_substages = result.blocking.timings;

  std::vector<RankedMatch> matches;
  if (config.use_classifier) {
    YVER_CHECK_MSG(tagger != nullptr,
                   "classifier requested but no tagger provided");
    result.training_instances = ml::ApplyMaybePolicy(
        MakeInstances(result.candidates, tagger, pool, &result.timings),
        ml::MaybePolicy::kOmit);
    // Training runs each round's (node, feature) split searches in
    // parallel into per-task slots and reduces them serially in task
    // order, so the model is bit-identical for every thread count.
    timer.Reset();
    result.model =
        ml::TrainAdTree(result.training_instances, config.trainer, pool);
    result.timings.train_seconds = timer.ElapsedSeconds();
    // Re-extract and score the candidate set in parallel, then assemble
    // matches by a stable chunk-ordered reduction: fixed-size candidate
    // blocks are extracted and scored into index-addressed slots, and the
    // surviving matches are appended by one serial scan per block — so the
    // ranked list is byte-identical to the serial path (no score-order
    // races). The block size bounds the feature-matrix working set.
    constexpr size_t kScoreBlock = 1 << 16;
    std::vector<data::RecordPair> pairs = PairsOf(result.candidates);
    for (size_t begin = 0; begin < pairs.size(); begin += kScoreBlock) {
      size_t end = std::min(pairs.size(), begin + kScoreBlock);
      timer.Reset();
      std::vector<features::FeatureVector> features = extractor_->ExtractBatch(
          std::span<const data::RecordPair>(pairs).subspan(begin, end - begin),
          pool);
      result.timings.extract_seconds += timer.ElapsedSeconds();
      timer.Reset();
      std::vector<double> scores = result.model.ScoreBatch(features, pool);
      result.timings.score_seconds += timer.ElapsedSeconds();
      timer.Reset();
      for (size_t i = begin; i < end; ++i) {
        double score = scores[i - begin];
        if (score <= 0.0) continue;  // the Cls filter drops low scorers
        matches.push_back(RankedMatch{result.candidates[i].pair, score,
                                      result.candidates[i].block_score});
      }
      result.timings.merge_seconds += timer.ElapsedSeconds();
    }
  } else {
    matches.reserve(result.candidates.size());
    for (const auto& cp : result.candidates) {
      matches.push_back(
          RankedMatch{cp.pair, cp.block_score, cp.block_score});
    }
  }
  timer.Reset();
  result.resolution = RankedResolution(std::move(matches));
  result.num_records = dataset_->size();
  result.timings.merge_seconds += timer.ElapsedSeconds();
  return result;
}

}  // namespace yver::core
