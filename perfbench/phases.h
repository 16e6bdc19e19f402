#ifndef FEATSEP_PERFBENCH_PHASES_H_
#define FEATSEP_PERFBENCH_PHASES_H_

// The three pipelines the benchmark drives through the library's public
// API. Every run executes all three (so every run reports every metric);
// the selected workload sets the size of the serve catalog relative to the
// LRU. Each phase is built (its set-up: input generation, service
// construction, cache warm-up) by its constructor.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "relational/training_database.h"

namespace perfbench {

/// Input sizes. The defaults are what the benchmark measures; `Tiny()`
/// keeps every code path at a fraction of the cost (used by the self-test).
struct Sizes {
  // train: entities per stage class.
  std::size_t cq_entities = 32;     // DecideCqSep, DecideCqmSep(m = 2)
  std::size_t ghw_entities = 16;    // GHW(1)-SEP, Algorithm 1, Algorithm 2
  std::size_t dim_entities = 8;     // DecideSepDim(l = 1)
  std::size_t train_instances = 12;  // fixed instance list, whole passes
  std::size_t min_train_passes = 2;
  // serve. The catalog size comes from the workload (see kWorkloads).
  std::size_t catalog_dbs = 60;
  std::size_t min_nodes = 32;
  std::size_t max_nodes = 64;
  std::size_t fresh_every = 20;  // every 20th request: a never-seen graph
  double zipf_s = 0.5;
  double open_rate_per_s = 100.0;
  // update.
  std::size_t update_entities = 32;
  std::size_t update_background = 56;  // 32 entities + paths + 56 = 128
  std::size_t recheck_every = 8;
  // An odd multiple of recheck_every: rechecks alternate between a flipped
  // and a restored labeling, so verification sees both.
  std::size_t verify_every = 120;

  static Sizes Tiny();
};

struct PhaseConfig {
  std::uint64_t seed = 1;
  bool trace = false;
  Sizes sizes;
  /// Directory (inside the checkout) for the serve phase's disk tier.
  std::string work_dir = ".bench_build/perfbench-work";
};

// A run interleaves the phases in rounds (train, serve, update slices), so
// every metric's samples spread over the whole run rather than one window
// of it; Finish() then completes what a metric needs (a whole pass, the
// minimum sample counts, the answer checks) and reports.

/// Offline pipeline: Table 1 deciders and Algorithms 1 and 2.
class TrainPhase {
 public:
  explicit TrainPhase(const PhaseConfig& config);
  ~TrainPhase();
  /// Runs jobs (at least one) over the instance list for `seconds`.
  void RunSlice(double seconds, Report& report);
  /// Completes the current pass over the instance list and reports.
  void Finish(Report& report);

 private:
  struct State;
  std::unique_ptr<State> state_;
};

/// Online serving: an open-loop Poisson burst, then a closed-loop burst.
class ServePhase {
 public:
  explicit ServePhase(const PhaseConfig& config);
  ~ServePhase();
  void RunSlice(double seconds, Report& report);
  /// Tops the open loop up to its minimum request count, checks every
  /// served matrix, and reports.
  void Finish(Report& report);

 private:
  struct State;
  std::unique_ptr<State> state_;
};

/// Writes beside reads: single-fact mutations with delta maintenance.
class UpdatePhase {
 public:
  explicit UpdatePhase(const PhaseConfig& config);
  ~UpdatePhase();
  void RunSlice(double seconds, Report& report);
  /// Tops the steps up to their minimum count and reports.
  void Finish(Report& report);

 private:
  struct State;
  std::unique_ptr<State> state_;
};

/// A labelled planted graph with fixed counts, so that only its wiring
/// depends on the seed: half the entities start a directed path of two
/// edges (positive: the CQ[2] and GHW(1) feature), a quarter one edge and a
/// quarter none (negative), beside `background` values carrying `edges`
/// forward-only random edges. Noise-free: CQ[2]- and GHW(1)-separable.
std::shared_ptr<featsep::TrainingDatabase> PlantedGraph(
    std::size_t entities, std::size_t background, std::size_t edges,
    std::uint64_t seed);

/// Number of hardware threads (the client-concurrency cap).
std::size_t HardwareThreads();

/// The phases, in the order a round runs them, and each one's share of a
/// run's measured time.
inline constexpr const char* kPhases[] = {"train", "serve", "update"};
inline constexpr double kPhaseShare[] = {0.4, 0.3, 0.3};

/// A workload differs from the other only in the serve catalog: with the
/// 51-feature bank, 60 graphs hold 3060 (digest, feature) entries, about 3x
/// the default 1024-entry LRU, so the disk tier and the LRU both serve;
/// 12 graphs hold 612, which fit, so catalog reads are LRU hits.
struct Workload {
  const char* name;
  std::size_t catalog_dbs;
};
inline constexpr Workload kWorkloads[] = {{"spill", 60}, {"fit", 12}};

struct RunOptions {
  std::string workload = "spill";
  double seconds = 10.0;
  PhaseConfig phase;
  /// Where the traced run writes its spans (JSON lines); empty = nowhere.
  std::string trace_out;
};

/// Sets up every phase, runs them in rounds (train, serve, update), sets
/// them up again eight more times spread over the run (setup_s is the
/// median of the nine, each normalised by the probe), and fills `report`: end-to-end metrics always,
/// per-layer metrics, coverage and tracing overhead when tracing. Returns
/// a human-readable summary (the self-time table when tracing).
std::string RunWorkload(const RunOptions& options, Report& report);

}  // namespace perfbench

#endif  // FEATSEP_PERFBENCH_PHASES_H_
