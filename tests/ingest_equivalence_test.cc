// Equivalence tests of the live-append path against the code it replaced:
// IncrementalResolver's dense-counter candidate rule against the
// preserved unordered_map rule (tests/support/
// reference_incremental_candidates.h), and ResolutionIndex::Extend's
// merge against a full RankedResolution re-sort. Both must be exact: the
// same matches in the same order, the same index bytes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "core/incremental.h"
#include "core/pipeline.h"
#include "core/ranked_resolution.h"
#include "features/feature_extractor.h"
#include "serve/resolution_index.h"
#include "support/reference_incremental_candidates.h"
#include "synth/gazetteer.h"
#include "synth/generator.h"
#include "synth/tag_oracle.h"
#include "util/rng.h"

namespace yver {
namespace {

using core::IncrementalResolver;
using core::RankedMatch;
using core::RankedResolution;
using serve::ResolutionIndex;

// A resolved seed corpus, its trained model, and a strided sample of held
// out reports to stream in (a suffix would hold out whole persons).
struct Corpus {
  synth::Gazetteer gazetteer;  // must outlive every GeoResolver made here
  data::Dataset initial;
  std::vector<data::Record> arrivals;
  core::PipelineResult resolved;

  Corpus(size_t num_persons, size_t held_out) {
    synth::GeneratorConfig config = synth::ItalyConfig();
    config.num_persons = num_persons;
    config.include_mv = false;
    auto generated = synth::Generate(config);
    size_t stride = std::max<size_t>(2, generated.dataset.size() / held_out);
    for (size_t r = 0; r < generated.dataset.size(); ++r) {
      const data::Record& record =
          generated.dataset[static_cast<data::RecordIdx>(r)];
      if (r % stride == 1 && arrivals.size() < held_out) {
        arrivals.push_back(record);
      } else {
        initial.Add(record);
      }
    }
    core::UncertainErPipeline pipeline(initial, gazetteer.MakeGeoResolver());
    synth::TagOracle oracle(&initial);
    resolved = pipeline.Run(core::RecommendedConfig(),
                            [&](data::RecordIdx a, data::RecordIdx b) {
                              return oracle.Tag(a, b);
                            });
  }
};

const Corpus& SharedCorpus() {
  static const Corpus* corpus = new Corpus(700, 240);
  return *corpus;
}

// The production rule, plus probes of what it was asked: a count of the
// appends whose max_candidates cut fell inside a run of equal shared-item
// counts (the case where the record-index tie-break decides which
// candidates are scored), and a count of those where the new record's two
// longest postings were equally long (the case where which of them the
// rule walks count-only is up to the order ties take).
class TieProbeResolver : public IncrementalResolver {
 public:
  using IncrementalResolver::IncrementalResolver;
  size_t cuts_inside_ties = 0;
  size_t longest_postings_tied = 0;

 protected:
  void SelectCandidates(const data::ItemBag& bag,
                        std::vector<Candidate>* out) override {
    IncrementalResolver::SelectCandidates(bag, out);
    auto all = core::ReferenceIncrementalCandidates(
        postings(), bag, options().min_shared_items,
        std::numeric_limits<size_t>::max());
    if (!out->empty() && all.size() > out->size() &&
        all[out->size()].first == out->back().first) {
      ++cuts_inside_ties;
    }
    std::vector<size_t> lengths;
    for (data::ItemId item : bag) lengths.push_back(postings()[item].size());
    std::sort(lengths.rbegin(), lengths.rend());
    if (lengths.size() >= 2 && lengths[0] > 0 && lengths[0] == lengths[1]) {
      ++longest_postings_tied;
    }
  }
};

// What one stream through both rules saw.
struct StreamCounts {
  size_t appends_with_matches = 0;
  size_t cuts_inside_ties = 0;
  size_t longest_postings_tied = 0;
};

// Streams `arrivals` into the production rule and the reference rule
// over the same seed, asserting equal matches after every append.
StreamCounts StreamThroughBothRules(const data::Dataset& initial,
                                    const RankedResolution& seed,
                                    const ml::AdTree& model,
                                    const data::GeoResolver& geo,
                                    const std::vector<data::Record>& arrivals,
                                    const IncrementalResolver::Options& options) {
  TieProbeResolver production(initial, seed, model, geo, options);
  core::ReferenceCandidateResolver reference(initial, seed, model, geo,
                                             options);
  StreamCounts counts;
  for (size_t i = 0; i < arrivals.size(); ++i) {
    data::RecordIdx a = production.AddRecord(arrivals[i]);
    data::RecordIdx b = reference.AddRecord(arrivals[i]);
    EXPECT_EQ(a, b);
    EXPECT_EQ(production.last_matches(), reference.last_matches())
        << "append " << i;
    EXPECT_EQ(production.matches(), reference.matches()) << "append " << i;
    if (production.matches() != reference.matches()) break;
    if (!production.last_matches().empty()) ++counts.appends_with_matches;
  }
  counts.cuts_inside_ties = production.cuts_inside_ties;
  counts.longest_postings_tied = production.longest_postings_tied;
  return counts;
}

void StreamSharedCorpusThroughBothRules(bool with_model, size_t max_candidates,
                                        size_t min_shared_items = 2) {
  const Corpus& corpus = SharedCorpus();
  ASSERT_GE(corpus.arrivals.size(), 200u);
  IncrementalResolver::Options options;
  options.max_candidates = max_candidates;
  options.min_shared_items = min_shared_items;
  RankedResolution seed =
      with_model ? corpus.resolved.resolution : RankedResolution();
  ml::AdTree model = with_model ? corpus.resolved.model : ml::AdTree();
  ASSERT_EQ(model.empty(), !with_model);
  StreamCounts counts = StreamThroughBothRules(
      corpus.initial, seed, model, corpus.gazetteer.MakeGeoResolver(),
      corpus.arrivals, options);
  // The comparison must have had something to compare, including cuts
  // that only the (count, idx) tie-break decides.
  EXPECT_GT(counts.appends_with_matches, corpus.arrivals.size() / 2);
  EXPECT_GT(counts.cuts_inside_ties, corpus.arrivals.size() / 10);
}

TEST(IncrementalCandidateEquivalenceTest, TrainedModelSmallCut) {
  StreamSharedCorpusThroughBothRules(/*with_model=*/true,
                                     /*max_candidates=*/4);
}

TEST(IncrementalCandidateEquivalenceTest, BlockScoreFallbackSmallCut) {
  StreamSharedCorpusThroughBothRules(/*with_model=*/false,
                                     /*max_candidates=*/4);
}

TEST(IncrementalCandidateEquivalenceTest, BlockScoreFallbackDefaultCut) {
  StreamSharedCorpusThroughBothRules(
      /*with_model=*/false, IncrementalResolver::Options().max_candidates);
}

// min_shared_items 1 walks every posting in full; 3 walks the two longest
// count-only.
TEST(IncrementalCandidateEquivalenceTest, TrainedModelOneSharedItem) {
  StreamSharedCorpusThroughBothRules(/*with_model=*/true,
                                     /*max_candidates=*/4,
                                     /*min_shared_items=*/1);
}

TEST(IncrementalCandidateEquivalenceTest, TrainedModelThreeSharedItems) {
  StreamSharedCorpusThroughBothRules(/*with_model=*/true,
                                     /*max_candidates=*/4,
                                     /*min_shared_items=*/3);
}

TEST(IncrementalCandidateEquivalenceTest, BlockScoreFallbackThreeSharedItems) {
  StreamSharedCorpusThroughBothRules(
      /*with_model=*/false, IncrementalResolver::Options().max_candidates,
      /*min_shared_items=*/3);
}

// Every record carries the same two values, so the two longest postings of
// every append are equally long, and a record they alone reach shares two
// items: exactly min_shared_items at 2, one short of it at 3.
TEST(IncrementalCandidateEquivalenceTest, LongestPostingsTiedInLength) {
  util::Rng rng(71);
  auto make_record = [&rng] {
    data::Record record;
    record.source_id = static_cast<uint32_t>(rng.UniformInt(1, 9));
    record.Add(data::AttributeId::kGender, "M");
    record.Add(data::AttributeId::kBirthCountry, "Italia");
    record.Add(data::AttributeId::kFirstName,
               std::string("f") + std::to_string(rng.UniformInt(0, 30)));
    record.Add(data::AttributeId::kLastName,
               std::string("l") + std::to_string(rng.UniformInt(0, 60)));
    if (rng.UniformInt(0, 1) == 0) {
      record.Add(data::AttributeId::kBirthCity,
                 std::string("c") + std::to_string(rng.UniformInt(0, 12)));
    }
    record.Add(data::AttributeId::kBirthYear,
               std::to_string(rng.UniformInt(1900, 1940)));
    return record;
  };
  data::Dataset initial;
  for (int i = 0; i < 500; ++i) initial.Add(make_record());
  std::vector<data::Record> arrivals;
  for (int i = 0; i < 150; ++i) arrivals.push_back(make_record());

  for (size_t min_shared : {1, 2, 3}) {
    for (size_t max_candidates : {4, 64}) {
      SCOPED_TRACE("min_shared_items " + std::to_string(min_shared) +
                   ", max_candidates " + std::to_string(max_candidates));
      IncrementalResolver::Options options;
      options.min_shared_items = min_shared;
      options.max_candidates = max_candidates;
      StreamCounts counts =
          StreamThroughBothRules(initial, RankedResolution(), ml::AdTree(),
                                 data::GeoResolver(), arrivals, options);
      EXPECT_EQ(counts.longest_postings_tied, arrivals.size());
      EXPECT_EQ(counts.appends_with_matches, arrivals.size());
      EXPECT_GT(counts.cuts_inside_ties, arrivals.size() / 10);
    }
  }
}

// Scoring extracts only the features the model reads; every confidence it
// found must still equal the model's score of a full extraction of the
// pair, also for the appends that follow a retraction.
TEST(IncrementalScoringTest, ConfidenceEqualsTheScoreOfAFullExtraction) {
  const Corpus& corpus = SharedCorpus();
  const ml::AdTree& model = corpus.resolved.model;
  ASSERT_FALSE(model.empty());
  ASSERT_LT(model.UsedFeatures().size(), features::kNumFeatures);
  IncrementalResolver resolver(corpus.initial, corpus.resolved.resolution,
                               model, corpus.gazetteer.MakeGeoResolver());
  size_t seeded = resolver.num_matches();
  size_t retracted = 0;
  for (size_t i = 0; i < corpus.arrivals.size(); ++i) {
    if (i % 7 == 3) {
      // A record found again later, applied and then taken back.
      resolver.AddRecord(corpus.arrivals[(i * 5) % corpus.arrivals.size()]);
      if (!resolver.last_matches().empty()) ++retracted;
      resolver.RetractLastRecord();
    }
    resolver.AddRecord(corpus.arrivals[i]);
  }
  EXPECT_GT(retracted, 5u);

  // Feature values depend on the two records only, not on the ids the
  // resolver's dictionaries gave their values, so one extractor over the
  // final corpus reproduces every pair's full extraction.
  data::EncodedDataset encoded =
      data::EncodeDataset(resolver.dataset(), corpus.gazetteer.MakeGeoResolver());
  features::FeatureExtractor full(encoded);
  ASSERT_GT(resolver.num_matches(), seeded + corpus.arrivals.size() / 2);
  for (size_t m = seeded; m < resolver.num_matches(); ++m) {
    const RankedMatch& match = resolver.matches()[m];
    double want = model.Score(full.Extract(match.pair.a, match.pair.b));
    ASSERT_EQ(0, std::memcmp(&want, &match.confidence, sizeof(double)))
        << "match " << m << " (" << match.pair.a << ", " << match.pair.b
        << "): " << match.confidence << " vs " << want;
  }
}

// ---------------------------------------------------------------------------
// IncrementalResolver::RetractLastRecord

// Exposes the dictionary's growth: postings are sized to it.
class ItemCountingResolver : public IncrementalResolver {
 public:
  using IncrementalResolver::IncrementalResolver;
  size_t num_items() const { return postings().size(); }
};

// A retracted append must leave no trace a later append can see: after
// adding a record that interns new items and tokens and finds matches,
// and retracting it, every later append's last_matches(), the whole
// matches() list and the index built over them equal those of a resolver
// that never saw the record — although the retracting one keeps the
// record's items and tokens interned.
void StreamAfterRetraction(bool with_model) {
  const Corpus& corpus = SharedCorpus();
  ASSERT_GE(corpus.arrivals.size(), 100u);
  RankedResolution seed =
      with_model ? corpus.resolved.resolution : RankedResolution();
  ml::AdTree model = with_model ? corpus.resolved.model : ml::AdTree();
  ItemCountingResolver retracting(corpus.initial, seed, model,
                                  corpus.gazetteer.MakeGeoResolver());
  IncrementalResolver fresh(corpus.initial, seed, model,
                            corpus.gazetteer.MakeGeoResolver());

  // Arrivals with two never-seen values each, retracted one after another
  // until one of them has found matches to take back.
  size_t items_before = retracting.num_items();
  data::RecordIdx doomed_idx = 0;
  bool matched = false;
  for (size_t i = 0; i < 20 && !matched; ++i) {
    data::Record doomed = corpus.arrivals[i];
    doomed.Add(data::AttributeId::kFirstName, "Zebulonxq" + std::to_string(i));
    doomed.Add(data::AttributeId::kBirthCity, "Qwertyville");
    doomed_idx = retracting.AddRecord(doomed);
    matched = !retracting.last_matches().empty();
    retracting.RetractLastRecord();
  }
  ASSERT_TRUE(matched) << "no retracted record found matches to take back";
  ASSERT_GT(retracting.num_items(), items_before) << "no item was interned";
  EXPECT_TRUE(retracting.last_matches().empty());
  EXPECT_EQ(retracting.dataset().size(), fresh.dataset().size());
  EXPECT_EQ(retracting.matches(), fresh.matches());

  size_t appends_with_matches = 0;
  for (size_t i = 0; i < corpus.arrivals.size(); ++i) {
    data::RecordIdx a = retracting.AddRecord(corpus.arrivals[i]);
    data::RecordIdx b = fresh.AddRecord(corpus.arrivals[i]);
    ASSERT_EQ(a, b);
    if (i == 0) {
      EXPECT_EQ(a, doomed_idx);
    }
    ASSERT_EQ(retracting.last_matches(), fresh.last_matches()) << "append " << i;
    ASSERT_EQ(retracting.matches(), fresh.matches()) << "append " << i;
    ASSERT_EQ(ResolutionIndex(retracting.Resolution(),
                              retracting.dataset().size())
                  .Checksum(),
              ResolutionIndex(fresh.Resolution(), fresh.dataset().size())
                  .Checksum())
        << "append " << i;
    if (!fresh.last_matches().empty()) ++appends_with_matches;
  }
  EXPECT_GT(appends_with_matches, corpus.arrivals.size() / 2);
  // The record's items stayed interned; only its effects went.
  EXPECT_GT(retracting.num_items(), items_before);
}

TEST(IncrementalRetractionTest, TrainedModelMatchesAResolverThatNeverSawIt) {
  StreamAfterRetraction(/*with_model=*/true);
}

TEST(IncrementalRetractionTest, BlockScoreFallbackMatchesAResolverThatNeverSawIt) {
  StreamAfterRetraction(/*with_model=*/false);
}

TEST(IncrementalRetractionDeathTest, RetractNeedsAnAddSinceTheLastRetract) {
  data::Dataset initial;
  data::Record record;
  record.Add(data::AttributeId::kFirstName, "chaim");
  initial.Add(record);
  IncrementalResolver resolver(initial, RankedResolution(), ml::AdTree());
  EXPECT_DEATH(resolver.RetractLastRecord(), "no AddRecord to retract");
  resolver.AddRecord(record);
  resolver.RetractLastRecord();
  EXPECT_DEATH(resolver.RetractLastRecord(), "no AddRecord to retract");
}

// ---------------------------------------------------------------------------
// ResolutionIndex::Extend

// Extend must agree with a full rebuild on everything a query can see:
// the arena (and so Checksum), and every record's adjacency list, matches
// and entity.
void ExpectSameIndex(const ResolutionIndex& extended,
                     const ResolutionIndex& rebuilt) {
  ASSERT_EQ(extended.num_records(), rebuilt.num_records());
  ASSERT_EQ(extended.matches(), rebuilt.matches());
  ASSERT_EQ(extended.Checksum(), rebuilt.Checksum());
  for (size_t r = 0; r < rebuilt.num_records(); ++r) {
    auto record = static_cast<data::RecordIdx>(r);
    auto want = rebuilt.Neighbors(record);
    auto got = extended.Neighbors(record);
    ASSERT_TRUE(std::equal(want.begin(), want.end(), got.begin(), got.end()))
        << "record " << r;
    for (double certainty : {0.0, 0.5}) {
      ASSERT_EQ(extended.ForRecord(record, certainty),
                rebuilt.ForRecord(record, certainty))
          << "record " << r << " at " << certainty;
    }
    // Entities: block-score chains link most of the corpus at low
    // certainties, so walk them at a high one, on every record the last
    // step could have touched and a stride of the rest.
    if (r % 16 == 0 || r + 8 >= rebuilt.num_records()) {
      ASSERT_EQ(extended.EntityOf(record, 0.9), rebuilt.EntityOf(record, 0.9))
          << "record " << r;
    }
  }
}

ResolutionIndex Rebuild(const std::vector<RankedMatch>& all,
                        size_t num_records) {
  return ResolutionIndex(RankedResolution(all), num_records);
}

// Model-less live appends: confidences are shared-item fractions, so the
// arena is full of exact ties that only the pair tie-break orders. Batch
// sizes cycle through 0 (an empty extension), 1 and several appends.
TEST(ResolutionIndexExtendTest, ChainOverBlockScoreAppendsMatchesRebuild) {
  const Corpus& corpus = SharedCorpus();
  IncrementalResolver resolver(corpus.initial, RankedResolution(),
                               ml::AdTree());
  ResolutionIndex index(resolver.Resolution(), resolver.dataset().size());
  size_t built = resolver.num_matches();
  const size_t kBatchSizes[] = {1, 0, 3, 1, 5, 2};
  size_t next = 0;
  for (size_t step = 0; next < corpus.arrivals.size(); ++step) {
    size_t batch = kBatchSizes[step % std::size(kBatchSizes)];
    for (size_t i = 0; i < batch && next < corpus.arrivals.size(); ++i) {
      resolver.AddRecord(corpus.arrivals[next++]);
    }
    std::span<const RankedMatch> all(resolver.matches());
    index = ResolutionIndex::Extend(index, all.subspan(built),
                                    resolver.dataset().size());
    built = all.size();
    ExpectSameIndex(index, Rebuild(resolver.matches(),
                                   resolver.dataset().size()));
  }
  // Ties are what the merge has to get right; make sure there were many.
  std::set<double> distinct;
  for (const RankedMatch& m : resolver.matches()) distinct.insert(m.confidence);
  EXPECT_GT(resolver.num_matches(), 4 * distinct.size());
}

// One append per step through the trained model, as the live builder
// publishes: about half the appends find no match, and those extensions
// share their base's arena instead of rebuilding it. Every step, matching
// or not, must equal a full rebuild.
TEST(ResolutionIndexExtendTest, ChainOfMatchlessAndMatchingAppendsMatchesRebuild) {
  const Corpus& corpus = SharedCorpus();
  IncrementalResolver resolver(corpus.initial, corpus.resolved.resolution,
                               corpus.resolved.model,
                               corpus.gazetteer.MakeGeoResolver());
  ResolutionIndex index(resolver.Resolution(), resolver.dataset().size());
  size_t built = resolver.num_matches();
  size_t matchless = 0;
  size_t matching = 0;
  for (const data::Record& arrival : corpus.arrivals) {
    resolver.AddRecord(arrival);
    std::span<const RankedMatch> all(resolver.matches());
    ResolutionIndex next = ResolutionIndex::Extend(
        index, all.subspan(built), resolver.dataset().size());
    if (all.size() == built) {
      ++matchless;
      EXPECT_EQ(&next.matches(), &index.matches())
          << "a match-less extension copied its base's arena";
    } else {
      ++matching;
    }
    index = std::move(next);
    built = all.size();
    ExpectSameIndex(index, Rebuild(resolver.matches(),
                                   resolver.dataset().size()));
  }
  EXPECT_GT(matchless, corpus.arrivals.size() / 10);
  EXPECT_GT(matching, corpus.arrivals.size() / 10);
}

TEST(ResolutionIndexExtendTest, GrowsTheCorpusWithoutMatches) {
  std::vector<RankedMatch> all;
  for (data::RecordIdx b = 1; b < 6; ++b) {
    all.push_back({data::RecordPair(0, b), 0.5, 0.5});
  }
  ResolutionIndex base = Rebuild(all, 6);
  ResolutionIndex grown = ResolutionIndex::Extend(base, {}, 9);
  ExpectSameIndex(grown, Rebuild(all, 9));
  EXPECT_TRUE(grown.Neighbors(8).empty());
  // An empty extension at the same size is the same index.
  ExpectSameIndex(ResolutionIndex::Extend(grown, {}, 9), grown);
  // Extending an empty index.
  ResolutionIndex empty;
  ExpectSameIndex(ResolutionIndex::Extend(empty, all, 6), base);
}

// Random batches of random pairs with heavily quantized confidences: the
// merge must reproduce the stable re-sort whether an added match lands
// before, between or after runs of equal-confidence base matches.
TEST(ResolutionIndexExtendTest, RandomTiedBatchesMatchRebuild) {
  util::Rng rng(23);
  std::set<data::RecordPair> seen;
  std::vector<RankedMatch> all;
  size_t num_records = 40;
  ResolutionIndex index = Rebuild(all, num_records);
  for (int step = 0; step < 150; ++step) {
    num_records += static_cast<size_t>(rng.UniformInt(0, 2));
    std::vector<RankedMatch> added;
    int64_t batch = rng.UniformInt(0, 6);
    while (static_cast<int64_t>(added.size()) < batch) {
      auto a = static_cast<data::RecordIdx>(
          rng.UniformInt(0, static_cast<int64_t>(num_records) - 1));
      auto b = static_cast<data::RecordIdx>(
          rng.UniformInt(0, static_cast<int64_t>(num_records) - 1));
      if (a == b || !seen.insert(data::RecordPair(a, b)).second) continue;
      added.push_back(
          {data::RecordPair(a, b), rng.UniformInt(1, 4) / 4.0,
           rng.UniformDouble()});
    }
    all.insert(all.end(), added.begin(), added.end());
    index = ResolutionIndex::Extend(index, added, num_records);
    ExpectSameIndex(index, Rebuild(all, num_records));
  }
  EXPECT_GT(all.size(), 300u);
}

TEST(ResolutionIndexExtendDeathTest, RejectsOutOfRangeAndShrinking) {
  ResolutionIndex base = Rebuild({{data::RecordPair(0, 1), 1.0, 1.0}}, 2);
  std::vector<RankedMatch> beyond = {{data::RecordPair(0, 2), 1.0, 1.0}};
  EXPECT_DEATH(ResolutionIndex::Extend(base, beyond, 2), "beyond the corpus");
  EXPECT_DEATH(ResolutionIndex::Extend(base, {}, 1), "shrink");
}

}  // namespace
}  // namespace yver
