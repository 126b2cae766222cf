// E4 — Figure 12: MFI mining run-time against the minsup
// parameter, for a large and a small dataset, with and without pruning of
// the 0.03% most frequent items. The paper ran 6.5M and 600K records; we
// scale both by the same factor and look for the same qualitative shape:
// runtime grows steeply as minsup decreases, roughly linearly with
// dataset size, and pruning flattens the curve. The paper mined with
// FP-Growth; mining::MineItemsets is a depth-first vertical miner that
// also returns every MFI's support set.
//
// A second section measures the end-to-end resolve pipeline (blocking,
// feature extraction, ADTree training, scoring, ranked assembly) across
// thread counts on a ~50K-record corpus — the paper reports multi-day
// serial resolve runs (§7), so this is the scaling story the parallel
// pipeline exists for. The ranked output is asserted identical across
// thread counts (the determinism contract of UncertainErPipeline::Run).
//
//   bench_fig12_runtime [--skip-mining] [--resolve-scale S]
//                       [--threads T1,T2,...]
//
// --resolve-scale defaults to 0.5 (~50K records); --threads defaults to
// 1,2,8. Speedups are relative to the first listed thread count.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common.h"
#include "data/item_dictionary.h"
#include "mining/vertical_miner.h"
#include "util/timer.h"

namespace {

double MineSeconds(const std::vector<yver::data::ItemBag>& bags,
                   uint32_t minsup) {
  yver::util::Timer timer;
  yver::mining::MinerOptions options;
  options.minsup = minsup;
  auto mfis = yver::mining::MineItemsets(bags, options);
  double s = timer.ElapsedSeconds();
  std::printf("  minsup=%u: %7.3fs  (%zu MFIs)\n", minsup, s,
              mfis.num_mined);
  return s;
}

void RunMiningSection() {
  using namespace yver;
  struct Series {
    const char* label;
    double scale;
  };
  // Paper: 6.5M and 600K (10.8x apart); we keep the ~10x ratio.
  const Series series[] = {{"Large (6.5M stand-in)", 1.0},
                           {"Small (600K stand-in)", 0.1}};
  for (const auto& s : series) {
    auto generated = bench::MakeRandomSet(s.scale);
    auto encoded = data::EncodeDataset(generated.dataset);
    std::printf("\n%s: %zu records, %zu distinct items\n", s.label,
                generated.dataset.size(), encoded.dictionary.size());
    std::printf(" no pruning:\n");
    for (uint32_t minsup = 5; minsup >= 2; --minsup) {
      MineSeconds(encoded.bags, minsup);
    }
    std::printf(" pruning 0.03%% most frequent items:\n");
    auto pruned = encoded.PruneMostFrequent(0.0003);
    for (uint32_t minsup = 5; minsup >= 2; --minsup) {
      MineSeconds(pruned, minsup);
    }
  }
}

void RunResolveScalingSection(double scale,
                              const std::vector<size_t>& thread_counts) {
  using namespace yver;
  auto generated = bench::MakeRandomSet(scale);
  std::printf("\nEnd-to-end resolve scaling: %zu records "
              "(%zu hardware threads available)\n",
              generated.dataset.size(), util::ResolveNumThreads(0));
  synth::Gazetteer gazetteer;
  core::UncertainErPipeline pipeline(generated.dataset,
                                     gazetteer.MakeGeoResolver());
  core::PipelineConfig config = core::RecommendedConfig();

  double baseline_s = 0.0;
  std::vector<core::RankedMatch> baseline_matches;
  for (size_t threads : thread_counts) {
    config.num_threads = threads;
    // Fresh oracle per run: the tagger is stateful, and the determinism
    // contract is defined over identical tagger state.
    synth::TagOracle oracle(&generated.dataset);
    util::Timer timer;
    auto result = pipeline.Run(config, bench::MakeTagger(oracle));
    double s = timer.ElapsedSeconds();
    if (baseline_s == 0.0) {
      baseline_s = s;
      baseline_matches = result.resolution.matches();
    }
    bool identical = result.resolution.matches() == baseline_matches;
    std::printf("  threads=%zu: %8.3fs  speedup %.2fx  (%zu matches, "
                "output %s)\n",
                threads, s, s > 0 ? baseline_s / s : 0.0,
                result.resolution.size(),
                identical ? "identical" : "DIVERGED");
    if (!identical) {
      std::fprintf(stderr,
                   "determinism contract violated at threads=%zu\n", threads);
      std::exit(1);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace yver;
  bool skip_mining = false;
  double resolve_scale = 0.5;  // ~50K records
  std::vector<size_t> thread_counts = {1, 2, 8};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--skip-mining") == 0) {
      skip_mining = true;
    } else if (std::strcmp(argv[i], "--resolve-scale") == 0 && i + 1 < argc) {
      resolve_scale = std::strtod(argv[++i], nullptr);
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      thread_counts.clear();
      for (const char* p = argv[++i]; *p != '\0';) {
        thread_counts.push_back(static_cast<size_t>(std::strtoul(p, nullptr, 10)));
        p = std::strchr(p, ',');
        if (p == nullptr) break;
        ++p;
      }
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return 2;
    }
  }
  bench::PrintHeader("E4: MFI mining run-time vs minsup + resolve scaling",
                     "Figure 12, §6.3 / §7");
  if (!skip_mining) RunMiningSection();
  if (resolve_scale > 0 && !thread_counts.empty()) {
    RunResolveScalingSection(resolve_scale, thread_counts);
  }
  return 0;
}
