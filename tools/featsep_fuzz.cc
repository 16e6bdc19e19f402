// Differential fuzzer for the featsep engines.
//
// Loops generate -> check -> shrink over seeded random instances, comparing
// the optimized kernels against the naive reference oracle and metamorphic
// laws (see src/testing/). Every failure prints a `--seed S --iters 1`
// command line that regenerates the identical instance.
//
// With --corpus and/or --mutate the loop turns coverage-guided: the
// instrumented kernels (src/testing/coverage.h) are bracketed around every
// check, inputs producing new (site, hit-bucket) edges are minimized and
// admitted to the corpus, and most iterations mutate a corpus entry picked
// with energy proportional to how rare its edges are. Failures found by
// mutation are persisted under <corpus>/crashes/ and reproduce with
// --replay.
//
// Usage:
//   featsep_fuzz [--iters N] [--seed S] [--config NAME] [--no-shrink]
//                [--corpus DIR] [--mutate] [--coverage-stats]
//                [--replay FILE]...
// Configs: hom, eval, containment, core, ghw, sep, qbe, covergame,
// dimension, linsep, faults, serve, incremental, crashio, mixed (default).
// The faults config injects deterministic cancellations/timeouts/allocation
// failures into the budgeted decision procedures and checks the robustness
// invariants (no cache poisoning, interrupt-then-resume determinism). The
// serve config runs seeded random Submit/poll/cancel/pause interleavings
// through the async serve front-end against the serial evaluation path as
// oracle. The crashio config runs the durable tier (disk cache, breaker-
// gated EvalService) under seeded filesystem fault schedules — EIO/ENOSPC,
// torn writes, partial scans, kill-at-a-random-I/O-point then recover —
// checking that corrupt entries are never trusted and answers stay
// bit-identical to serial.
//
// A malformed or out-of-range number for --iters or --seed prints the usage
// text and exits 2.

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <string_view>

#include "serve/wire_format.h"
#include "testing/fuzz.h"

namespace {

void Usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0
      << " [--iters N] [--seed S] [--config hom|eval|containment|core|ghw|"
         "sep|qbe|covergame|dimension|linsep|faults|serve|incremental|"
         "crashio|mixed] "
         "[--no-shrink]\n"
         "       [--corpus DIR] [--mutate] [--coverage-stats] "
         "[--replay FILE]...\n";
}

}  // namespace

int main(int argc, char** argv) {
  featsep::testing::FuzzOptions options;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << arg << "\n";
        Usage(argv[0]);
        std::exit(2);
      }
      return argv[++i];
    };
    auto next_u64 = [&]() -> std::uint64_t {
      const char* text = next();
      std::uint64_t value = 0;
      if (!featsep::serve::wire::ParseU64(text, &value)) {
        std::cerr << "bad value for " << arg << ": " << text << "\n";
        Usage(argv[0]);
        std::exit(2);
      }
      return value;
    };
    if (arg == "--iters") {
      options.iterations = next_u64();
    } else if (arg == "--seed") {
      options.seed = next_u64();
    } else if (arg == "--config") {
      const char* name = next();
      auto config = featsep::testing::ParseFuzzConfig(name);
      if (!config.has_value()) {
        std::cerr << "unknown config: " << name << "\n";
        Usage(argv[0]);
        return 2;
      }
      options.config = *config;
    } else if (arg == "--no-shrink") {
      options.shrink = false;
    } else if (arg == "--corpus") {
      options.corpus_dir = next();
    } else if (arg == "--mutate") {
      options.mutate = true;
    } else if (arg == "--coverage-stats") {
      options.coverage_stats = true;
    } else if (arg == "--replay") {
      options.replay_paths.emplace_back(next());
    } else if (arg == "--help" || arg == "-h") {
      Usage(argv[0]);
      return 0;
    } else {
      std::cerr << "unknown argument: " << arg << "\n";
      Usage(argv[0]);
      return 2;
    }
  }

  if (!options.replay_paths.empty()) {
    std::cout << "featsep_fuzz: replaying " << options.replay_paths.size()
              << " instance(s)" << (options.shrink ? "" : " (no shrink)")
              << std::endl;
  } else {
    std::cout << "featsep_fuzz: config="
              << featsep::testing::FuzzConfigName(options.config)
              << " seed=" << options.seed << " iters=" << options.iterations
              << (options.mutate || !options.corpus_dir.empty()
                      ? " (coverage-guided)"
                      : "")
              << (options.corpus_dir.empty() ? ""
                                             : " corpus=" +
                                                   options.corpus_dir)
              << (options.shrink ? "" : " (no shrink)") << std::endl;
  }

  featsep::testing::FuzzReport report =
      featsep::testing::RunFuzz(options, &std::cerr);

  if (report.coverage_edges > 0 || report.corpus_size > 0) {
    std::cout << "coverage: " << report.coverage_edges
              << " edges; corpus: " << report.corpus_size << " entries (+"
              << report.corpus_added << " this run)" << std::endl;
  }
  for (const auto& line : report.coverage_lines) {
    std::cout << "  " << line << std::endl;
  }

  if (report.ok()) {
    std::cout << "OK: " << report.iterations
              << " iterations, no discrepancies" << std::endl;
    return 0;
  }
  std::cout << "FAILED: " << report.failures.size() << " discrepanc"
            << (report.failures.size() == 1 ? "y" : "ies") << " in "
            << report.iterations << " iterations" << std::endl;
  for (const auto& failure : report.failures) {
    std::cout << "  [" << failure.config << "/" << failure.property
              << "] reproduce: " << failure.reproduce << std::endl;
  }
  return 1;
}
