// Live-ingest microbench: the two per-append costs of the live path,
// before and after the dense candidate counter and the merging publish.
// A resolved archive (the ~22K-report sample corpus) takes a stream of
// 1,000 held-out reports twice, through two resolvers fed the same
// records in the same order:
//
//   before  ReferenceCandidateResolver::AddRecord (the unordered_map
//           candidate rule, tests/support) and, per publish,
//           ResolutionIndex(resolver.Resolution(), n): copy, re-sort and
//           index every match;
//   after   IncrementalResolver::AddRecord (dense counter, partial sort)
//           and, per publish, ResolutionIndex::Extend of the previous
//           snapshot by the matches the append found.
//
// Each append is one publish (the CLI's and perfbench's publish_batch 1).
// Before any number is reported the bench asserts that both sides found
// the same matches and built byte-identical snapshots (equal Checksum())
// after every append. It prints, and with --out writes as JSON
// (BENCH_ingest.json), the exact p50/p99 of each cost on each side.
//
//   bench_ingest [--out file]
//
// The one-time offline resolve that seeds both resolvers uses every
// hardware thread; the timed loop is single-threaded.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "core/incremental.h"
#include "core/pipeline.h"
#include "serve/resolution_index.h"
#include "support/reference_incremental_candidates.h"
#include "synth/gazetteer.h"
#include "synth/generator.h"
#include "synth/tag_oracle.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace {

using namespace yver;

constexpr size_t kPersons = 12000;  // ~22K reports
constexpr size_t kAppends = 1000;

// The only flag is --out FILE; exits 2 on anything else.
std::string ParseOut(int argc, char** argv) {
  std::string out;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out = argv[++i];
    } else {
      std::fprintf(stderr, "usage: bench_ingest [--out file]\n");
      std::exit(2);
    }
  }
  return out;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Exact nearest-rank percentile, as perfbench reports them.
double Percentile(std::vector<double> samples, double p) {
  size_t rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(samples.size()) - 1e-9));
  rank = std::clamp<size_t>(rank, 1, samples.size());
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

// Per-append samples of one side, in microseconds.
struct Side {
  std::vector<double> add_us;
  std::vector<double> build_us;

  double add(double p) const { return Percentile(add_us, p); }
  double build(double p) const { return Percentile(build_us, p); }
  std::string Json() const {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"add_p50_us\": %.1f, \"add_p99_us\": %.1f, "
                  "\"build_p50_us\": %.1f, \"build_p99_us\": %.1f}",
                  add(0.50), add(0.99), build(0.50), build(0.99));
    return buf;
  }
};

[[noreturn]] void Diverged(const char* what, size_t append) {
  std::fprintf(stderr, "FATAL: %s diverged at append %zu\n", what, append);
  std::exit(1);
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = ParseOut(argc, argv);

  // The archive and the held-out stream, as perfbench's offline_resolve
  // builds them: the sample corpus, and the same generator on another
  // seed for the reports that arrive later.
  synth::GeneratorConfig config;
  config.num_persons = kPersons;
  config.include_mv = true;
  auto archive = synth::Generate(config);
  config.seed ^= 0x9e3779b97f4a7c15ULL;
  config.num_persons = kAppends / 2 + 200;
  auto held_out = synth::Generate(config);
  if (held_out.dataset.size() < kAppends) {
    std::fprintf(stderr, "held-out corpus too small\n");
    return 1;
  }

  synth::Gazetteer gazetteer;
  core::UncertainErPipeline pipeline(archive.dataset,
                                     gazetteer.MakeGeoResolver());
  synth::TagOracle oracle(&archive.dataset);
  core::PipelineConfig pipeline_config = core::RecommendedConfig();
  pipeline_config.num_threads = util::ResolveNumThreads(0);
  util::Timer resolve_timer;
  core::PipelineResult resolved = pipeline.Run(
      pipeline_config,
      [&](data::RecordIdx a, data::RecordIdx b) { return oracle.Tag(a, b); });
  std::printf("archive: %zu records, %zu matches (resolved in %.2f s); "
              "%zu appends\n",
              archive.dataset.size(), resolved.resolution.size(),
              resolve_timer.ElapsedSeconds(), kAppends);

  core::ReferenceCandidateResolver before_resolver(
      archive.dataset, resolved.resolution, resolved.model,
      gazetteer.MakeGeoResolver());
  core::IncrementalResolver after_resolver(archive.dataset,
                                           resolved.resolution, resolved.model,
                                           gazetteer.MakeGeoResolver());
  serve::ResolutionIndex after_index(after_resolver.Resolution(),
                                     after_resolver.dataset().size());
  size_t after_built = after_resolver.num_matches();

  Side before, after;
  for (size_t i = 0; i < kAppends; ++i) {
    const data::Record& record =
        held_out.dataset[static_cast<data::RecordIdx>(i)];
    // Alternate which side goes first, so neither always meets warm caches
    // the other left behind.
    uint64_t before_checksum = 0;
    auto run_before = [&] {
      int64_t t0 = NowNs();
      before_resolver.AddRecord(record);
      int64_t t1 = NowNs();
      serve::ResolutionIndex index(before_resolver.Resolution(),
                                   before_resolver.dataset().size());
      int64_t t2 = NowNs();
      before.add_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
      before.build_us.push_back(static_cast<double>(t2 - t1) * 1e-3);
      before_checksum = index.Checksum();
    };
    auto run_after = [&] {
      int64_t t0 = NowNs();
      after_resolver.AddRecord(record);
      int64_t t1 = NowNs();
      std::span<const core::RankedMatch> all(after_resolver.matches());
      after_index = serve::ResolutionIndex::Extend(
          after_index, all.subspan(after_built),
          after_resolver.dataset().size());
      int64_t t2 = NowNs();
      after_built = all.size();
      after.add_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
      after.build_us.push_back(static_cast<double>(t2 - t1) * 1e-3);
    };
    if (i % 2 == 0) {
      run_before();
      run_after();
    } else {
      run_after();
      run_before();
    }
    if (after_resolver.matches() != before_resolver.matches()) {
      Diverged("matches", i);
    }
    if (after_index.Checksum() != before_checksum) Diverged("snapshot", i);
  }

  std::printf("identical matches and snapshots after every append "
              "(%zu matches at the end)\n",
              after_resolver.num_matches());
  std::printf("before: AddRecord p50 %8.1f us  p99 %8.1f us   "
              "snapshot p50 %8.1f us  p99 %8.1f us\n",
              before.add(0.50), before.add(0.99), before.build(0.50),
              before.build(0.99));
  std::printf("after:  AddRecord p50 %8.1f us  p99 %8.1f us   "
              "snapshot p50 %8.1f us  p99 %8.1f us\n",
              after.add(0.50), after.add(0.99), after.build(0.50),
              after.build(0.99));
  double add_speedup = before.add(0.50) / after.add(0.50);
  double build_speedup = before.build(0.50) / after.build(0.50);
  std::printf("p50 speedup: AddRecord %.2fx, snapshot %.2fx\n", add_speedup,
              build_speedup);

  if (!out_path.empty()) {
    std::ofstream out(out_path);
    char speedups[128];
    std::snprintf(speedups, sizeof(speedups),
                  "  \"add_p50_speedup\": %.2f,\n"
                  "  \"build_p50_speedup\": %.2f,\n",
                  add_speedup, build_speedup);
    out << "{\n"
        << "  \"bench\": \"ingest\",\n"
        << "  \"host_hardware_threads\": " << util::ResolveNumThreads(0)
        << ",\n"
        << "  \"corpus_records\": " << archive.dataset.size() << ",\n"
        << "  \"seed_matches\": " << resolved.resolution.size() << ",\n"
        << "  \"appends\": " << kAppends << ",\n"
        << "  \"final_matches\": " << after_resolver.num_matches() << ",\n"
        << "  \"identical_after_every_append\": true,\n"
        << speedups
        << "  \"before\": " << before.Json() << ",\n"
        << "  \"after\": " << after.Json() << "\n"
        << "}\n";
    std::printf("wrote %s\n", out_path.c_str());
  }
  return 0;
}
