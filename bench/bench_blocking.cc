// Blocking-stage thread sweep: RunMfiBlocks at 1 thread vs N threads on a
// synthetic corpus, reporting candidate pairs/sec and the per-substage
// wall-time breakdown (mine / support / score / threshold / emit). The
// sweep asserts output identity between the serial and every parallel run
// (the blocking determinism contract) before reporting any number, and
// writes a JSON record (--out) so the repo can track the perf trajectory
// (BENCH_blocking.json). --before embeds an earlier record of this bench
// (say, one written by the previous commit's build on the same host)
// verbatim under "before", so one committed file holds a before/after
// pair.
//
//   bench_blocking [--persons N] [--maxminsup K] [--ng G]
//                  [--threads T1,T2,...] [--out bench.json]
//                  [--before earlier.json]
//
// On a single-core host the speedup is ~1.0x by construction; the
// identity assertion is the part that must hold everywhere.

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "blocking/mfi_blocks.h"
#include "data/item_dictionary.h"
#include "synth/gazetteer.h"
#include "synth/generator.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace {

using namespace yver;

struct Options {
  size_t persons = 4000;
  uint32_t max_minsup = 5;
  double ng = 3.5;
  std::vector<size_t> threads = {1, 2, 4, 8};
  std::string out;
  std::string before;
};

std::vector<size_t> ParseThreadList(const char* arg) {
  std::vector<size_t> out;
  for (const char* p = arg; *p != '\0';) {
    out.push_back(static_cast<size_t>(std::strtoul(p, nullptr, 10)));
    p = std::strchr(p, ',');
    if (p == nullptr) break;
    ++p;
  }
  return out;
}

Options ParseOptions(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--persons") == 0) {
      options.persons = static_cast<size_t>(std::atol(next("--persons")));
    } else if (std::strcmp(argv[i], "--maxminsup") == 0) {
      options.max_minsup =
          static_cast<uint32_t>(std::atol(next("--maxminsup")));
    } else if (std::strcmp(argv[i], "--ng") == 0) {
      options.ng = std::atof(next("--ng"));
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      options.threads = ParseThreadList(next("--threads"));
    } else if (std::strcmp(argv[i], "--out") == 0) {
      options.out = next("--out");
    } else if (std::strcmp(argv[i], "--before") == 0) {
      options.before = next("--before");
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      std::exit(2);
    }
  }
  return options;
}

struct SweepPoint {
  size_t threads = 0;
  double seconds = 0.0;
  double pairs_per_sec = 0.0;
  blocking::BlockingTimings timings;
};

// The JSON object in `path` (an earlier --out of this bench), trailing
// whitespace trimmed; exits 2 when it is unreadable or not an object.
std::string ReadRecord(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  std::string record = text.str();
  while (!record.empty() &&
         std::isspace(static_cast<unsigned char>(record.back()))) {
    record.pop_back();
  }
  if (record.empty() || record.front() != '{' || record.back() != '}') {
    std::fprintf(stderr, "--before %s is not a bench_blocking record\n",
                 path.c_str());
    std::exit(2);
  }
  return record;
}

bool SameResult(const blocking::MfiBlocksResult& a,
                const blocking::MfiBlocksResult& b) {
  return a.blocks == b.blocks && a.pairs == b.pairs &&
         a.num_mfis_mined == b.num_mfis_mined &&
         a.num_blocks_considered == b.num_blocks_considered &&
         a.num_records_covered == b.num_records_covered;
}

}  // namespace

int main(int argc, char** argv) {
  Options options = ParseOptions(argc, argv);
  // Read before writing: --before and --out may name the same file.
  const std::string before =
      options.before.empty() ? "" : ReadRecord(options.before);

  auto config = synth::ItalyConfig();
  config.num_persons = options.persons;
  config.include_mv = true;
  config.seed = 11;
  auto generated = synth::Generate(config);
  synth::Gazetteer gazetteer;
  auto encoded =
      data::EncodeDataset(generated.dataset, gazetteer.MakeGeoResolver());

  blocking::MfiBlocksConfig blocking_config;
  blocking_config.max_minsup = options.max_minsup;
  blocking_config.ng = options.ng;
  blocking_config.expert_weighting = true;

  std::printf(
      "corpus: %zu records, %zu distinct items; maxminsup=%u ng=%.2f\n",
      generated.dataset.size(), encoded.dictionary.size(),
      options.max_minsup, options.ng);

  std::vector<SweepPoint> sweep;
  blocking::MfiBlocksResult reference;
  for (size_t num_threads : options.threads) {
    std::unique_ptr<util::ThreadPool> pool;
    if (num_threads > 1) {
      pool = std::make_unique<util::ThreadPool>(num_threads);
    }
    util::Timer timer;
    auto result = blocking::RunMfiBlocks(encoded, blocking_config,
                                         pool.get());
    SweepPoint point;
    point.threads = num_threads;
    point.seconds = timer.ElapsedSeconds();
    point.pairs_per_sec =
        static_cast<double>(result.pairs.size()) / point.seconds;
    point.timings = result.timings;
    if (sweep.empty()) {
      reference = std::move(result);
    } else if (!SameResult(result, reference)) {
      std::fprintf(stderr,
                   "FATAL: blocking output diverged at %zu threads — the "
                   "determinism contract is broken\n",
                   num_threads);
      return 1;
    }
    std::printf(
        "threads=%zu  %8.3f s  %10.0f pairs/s  "
        "(mine %.3f  support %.3f  score %.3f  threshold %.3f  emit %.3f)\n",
        point.threads, point.seconds, point.pairs_per_sec,
        point.timings.mine_seconds, point.timings.support_seconds,
        point.timings.score_seconds, point.timings.threshold_seconds,
        point.timings.emit_seconds);
    sweep.push_back(point);
  }

  double speedup = sweep.size() > 1 && sweep.back().seconds > 0.0
                       ? sweep.front().seconds / sweep.back().seconds
                       : 1.0;
  std::printf("blocks=%zu pairs=%zu mfis=%zu  speedup(%zu->%zu threads)=%.2fx\n",
              reference.blocks.size(), reference.pairs.size(),
              reference.num_mfis_mined, sweep.front().threads,
              sweep.back().threads, speedup);

  if (!options.out.empty()) {
    std::ofstream out(options.out);
    out << "{\n"
        << "  \"bench\": \"blocking\",\n"
        << "  \"host_hardware_threads\": "
        << util::ResolveNumThreads(0) << ",\n"
        << "  \"corpus_records\": " << generated.dataset.size() << ",\n"
        << "  \"distinct_items\": " << encoded.dictionary.size() << ",\n"
        << "  \"max_minsup\": " << options.max_minsup << ",\n"
        << "  \"ng\": " << options.ng << ",\n"
        << "  \"blocks\": " << reference.blocks.size() << ",\n"
        << "  \"pairs\": " << reference.pairs.size() << ",\n"
        << "  \"mfis_mined\": " << reference.num_mfis_mined << ",\n"
        << "  \"identity_across_thread_counts\": true,\n"
        << "  \"sweep\": [\n";
    for (size_t i = 0; i < sweep.size(); ++i) {
      const SweepPoint& p = sweep[i];
      char buf[512];
      std::snprintf(
          buf, sizeof(buf),
          "    {\"threads\": %zu, \"seconds\": %.4f, \"pairs_per_sec\": "
          "%.0f, \"mine_seconds\": %.4f, \"support_seconds\": %.4f, "
          "\"score_seconds\": %.4f, \"threshold_seconds\": %.4f, "
          "\"emit_seconds\": %.4f}%s\n",
          p.threads, p.seconds, p.pairs_per_sec, p.timings.mine_seconds,
          p.timings.support_seconds, p.timings.score_seconds,
          p.timings.threshold_seconds, p.timings.emit_seconds,
          i + 1 < sweep.size() ? "," : "");
      out << buf;
    }
    char tail[64];
    std::snprintf(tail, sizeof(tail), "  \"speedup\": %.2f", speedup);
    out << "  ],\n" << tail;
    if (!before.empty()) out << ",\n  \"before\": " << before;
    out << "\n}\n";
    std::printf("wrote %s\n", options.out.c_str());
  }
  return 0;
}
