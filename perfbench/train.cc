// train: the paper's offline pipeline. Each job runs the Table 1 deciders
// and Algorithms 1 and 2 on noise-free planted graphs, sized per complexity
// class, with the library's default options. A run repeats a fixed,
// seed-generated instance list a whole number of times.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/dimension_bounded.h"
#include "core/ghw_separability.h"
#include "core/separability.h"
#include "core/statistic.h"
#include "covergame/cover_game.h"
#include "cq/enumeration.h"
#include "cq/homomorphism.h"
#include "linsep/separability_lp.h"
#include "phases.h"

namespace perfbench {

using namespace featsep;

namespace {

std::shared_ptr<TrainingDatabase> Planted(std::size_t entities,
                                          std::uint64_t seed) {
  return PlantedGraph(entities, entities / 2, entities * 3 / 4, seed);
}

struct Instance {
  std::shared_ptr<TrainingDatabase> cq;   // CQ-SEP and CQ[2]-SEP
  std::shared_ptr<TrainingDatabase> ghw;  // GHW(1)-SEP, Algorithms 1 and 2
  std::shared_ptr<Database> held_out;     // Algorithm 1's evaluation DB
  std::shared_ptr<TrainingDatabase> noisy;  // `ghw` with labels flipped
  std::size_t flips = 0;
  std::shared_ptr<TrainingDatabase> dim;  // Sep[l]
};

Instance MakeInstance(const Sizes& sizes, std::uint64_t seed) {
  Instance in;
  in.cq = Planted(sizes.cq_entities, SubSeed(seed, 1));
  in.ghw = Planted(sizes.ghw_entities, SubSeed(seed, 2));
  in.held_out = Planted(sizes.ghw_entities, SubSeed(seed, 3))->database_ptr();
  in.dim = Planted(sizes.dim_entities, SubSeed(seed, 4));
  // A 20%-noise copy: the same database, an exact number of labels flipped.
  in.noisy = std::make_shared<TrainingDatabase>(in.ghw->database_ptr());
  std::vector<Value> entities = in.ghw->Entities();
  Rng rng(SubSeed(seed, 5));
  std::vector<std::size_t> order(entities.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.Below(i)]);
  }
  in.flips = (entities.size() + 2) / 5;
  for (std::size_t i = 0; i < order.size(); ++i) {
    Value e = entities[order[i]];
    Label label = in.ghw->label(e);
    in.noisy->SetLabel(e, i < in.flips ? -label : label);
  }
  return in;
}

/// Per-layer accumulators filled by the traced replays.
struct LayerSamples {
  std::vector<double> cqsep_pairs;
  std::uint64_t hom_calls = 0;
  std::uint64_t hom_nodes = 0;
  double hom_ms = 0.0;
  std::vector<double> enum_ms, lp_ms, lp_rows, lp_cols;
  std::vector<double> build_ms, decide_ms, positions, strategies;
  std::vector<double> classify_ms;
  std::uint64_t oracle_calls = 0;
  std::uint64_t oracle_accepts = 0;
  std::vector<double> oracle_ms;  // per job: total oracle time
};

/// DecideCqSep's pair sweep, replayed serially through FindHomomorphism
/// (both directions, the backward search preferring the forward witness).
void ReplayCqSep(const TrainingDatabase& training, LayerSamples& layers) {
  ScopedSpan replay("replay.cqsep");
  const Database& db = training.database();
  for (Value p : training.PositiveExamples()) {
    for (Value n : training.NegativeExamples()) {
      ScopedSpan hom("cq.hom");
      Clock::time_point start = Clock::now();
      HomResult fwd = FindHomomorphism(db, db, {{p, n}});
      ++layers.hom_calls;
      layers.hom_nodes += fwd.nodes;
      if (fwd.status == HomStatus::kFound) {
        HomOptions backward;
        for (Value v : db.domain()) {
          if (fwd.mapping[v] != kNoValue) {
            backward.prefer.emplace_back(fwd.mapping[v], v);
          }
        }
        HomResult bwd = FindHomomorphism(db, db, {{n, p}}, backward);
        ++layers.hom_calls;
        layers.hom_nodes += bwd.nodes;
      }
      layers.hom_ms += MsSince(start);
    }
  }
}

/// DecideCqmSep as enumerate, then MakeTrainingCollection, then
/// FindSeparator.
void ReplayCqmSep(const TrainingDatabase& training, LayerSamples& layers) {
  ScopedSpan replay("replay.cqmsep");
  Clock::time_point start = Clock::now();
  std::vector<ConjunctiveQuery> features;
  {
    ScopedSpan span("cq.enum");
    features = EnumerateFeatureQueries(training.database().schema_ptr(), 2);
  }
  layers.enum_ms.push_back(MsSince(start));
  TrainingCollection collection;
  {
    ScopedSpan span("core.training_collection");
    collection = MakeTrainingCollection(Statistic(features), training);
  }
  start = Clock::now();
  {
    ScopedSpan span("linsep.lp");
    FindSeparator(collection);
  }
  layers.lp_ms.push_back(MsSince(start));
  layers.lp_rows.push_back(static_cast<double>(collection.size()));
  layers.lp_cols.push_back(static_cast<double>(features.size()));
}

/// ComputeGhwStructure as one CoverGameSolver plus a Decide per entity
/// pair — the work behind GHW(1)-SEP, Algorithm 1's training and
/// Algorithm 2 on this database.
void ReplayCoverGame(const Database& db, LayerSamples& layers) {
  ScopedSpan replay("replay.covergame");
  Clock::time_point start = Clock::now();
  std::unique_ptr<CoverGameSolver> solver;
  {
    ScopedSpan span("covergame.build");
    solver = std::make_unique<CoverGameSolver>(db, db, 1);
  }
  layers.build_ms.push_back(MsSince(start));
  layers.positions.push_back(static_cast<double>(solver->num_positions()));
  layers.strategies.push_back(
      static_cast<double>(solver->num_candidate_strategies()));
  start = Clock::now();
  {
    ScopedSpan span("covergame.decide");
    std::vector<Value> entities = db.Entities();
    for (Value a : entities) {
      for (Value b : entities) solver->Decide({a}, {b});
    }
  }
  layers.decide_ms.push_back(MsSince(start));
}

enum Stage { kCqSep, kCqmSep, kGhwSep, kAlg1, kAlg2, kSepDim, kStages };
constexpr const char* kStageMetric[kStages] = {
    "cqsep_ms", "cqmsep_ms", "ghwsep_ms", "alg1_ms", "alg2_ms", "sepdim_ms"};
/// Whether a stage's time is a gated end-to-end metric. DecideCqSep and
/// DecideSepDim spread their work over threads, and on the host this was
/// built on the guest scheduler runs all of a call's threads on one vCPU
/// in some periods and on all four in others: their times switch by 2-3.5x
/// between runs of the same code, far past any bound. They are reported,
/// unnormalised, among the per-layer metrics instead.
constexpr bool kStageGated[kStages] = {false, true, true, true, true, false};

}  // namespace

struct TrainPhase::State {
  PhaseConfig config;
  std::vector<Instance> instances;
  std::size_t next = 0;  // index of the next instance in the list
  std::uint64_t jobs = 0;
  /// Every call's wall time per stage, in ms, normalised by the probe
  /// taken right before it; `raw_times` unnormalised. A traced run
  /// alternates passes with tracing on (`times`) and off
  /// (`untraced_times`).
  std::vector<double> times[kStages];
  std::vector<double> raw_times[kStages];
  std::vector<double> untraced_times[kStages];
  LayerSamples layers;

  void RunJob(std::size_t index, Report& report);
};

TrainPhase::TrainPhase(const PhaseConfig& config)
    : state_(std::make_unique<State>()) {
  state_->config = config;
  for (std::size_t i = 0; i < config.sizes.train_instances; ++i) {
    state_->instances.push_back(
        MakeInstance(config.sizes, SubSeed(config.seed, 100 + i)));
  }
}

TrainPhase::~TrainPhase() = default;

void TrainPhase::RunSlice(double seconds, Report& report) {
  State& s = *state_;
  Clock::time_point start = Clock::now();
  do {
    s.RunJob(s.next, report);
    s.next = (s.next + 1) % s.instances.size();
  } while (MsSince(start) < seconds * 1000.0);
}

void TrainPhase::State::RunJob(std::size_t index, Report& report) {
  const Instance& in = instances[index];
  // In a traced run every other pass runs untraced, so that comparing the
  // two measures what tracing adds to the timed calls.
  const bool trace = config.trace && (jobs / instances.size()) % 2 == 0;
  SpanRecorder* recorder = SpanRecorder::active();
  if (!trace) SpanRecorder::set_active(nullptr);
  std::vector<double>* sink =
      config.trace && !trace ? untraced_times : times;
  const std::uint64_t job = ++jobs;
  ScopedSpan job_span("train.job", job);
  Clock::time_point start;
  double probe = 0.0;
  auto begin = [&] {
    probe = ProbeMs();
    start = Clock::now();
  };
  auto record = [&](Stage stage) {
    const double ms = MsSince(start);
    sink[stage].push_back(Normalized(ms, probe));
    if (sink == times) raw_times[stage].push_back(ms);
  };
  // The six stages, each timed as one call (Algorithm 1 as Train plus
  // Classify on a held-out database).
  begin();
  CqSepResult cq;
  {
    ScopedSpan span("pipeline.cqsep");
    cq = DecideCqSep(*in.cq);
  }
  record(kCqSep);

  begin();
  CqmSepResult cqm;
  {
    ScopedSpan span("pipeline.cqmsep");
    cqm = DecideCqmSep(*in.cq, 2);
  }
  record(kCqmSep);

  begin();
  GhwSepResult ghw;
  {
    ScopedSpan span("pipeline.ghwsep");
    ghw = DecideGhwSep(*in.ghw, 1);
  }
  record(kGhwSep);

  begin();
  std::optional<GhwClassifier> classifier;
  Labeling held_out_labels;
  {
    ScopedSpan span("pipeline.alg1");
    classifier = GhwClassifier::Train(in.ghw, 1);
    if (classifier.has_value()) {
      Clock::time_point classify_start = Clock::now();
      ScopedSpan classify("core.alg1_classify");
      held_out_labels = classifier->Classify(*in.held_out);
      if (trace) layers.classify_ms.push_back(MsSince(classify_start));
    }
  }
  record(kAlg1);

  begin();
  GhwRelabelResult relabel;
  {
    ScopedSpan span("pipeline.alg2");
    relabel = GhwOptimalRelabel(*in.noisy, 1);
  }
  record(kAlg2);

  if (trace) layers.oracle_ms.push_back(0.0);
  begin();
  SepDimResult dim;
  {
    ScopedSpan span("pipeline.sepdim");
    QbeOracle oracle = MakeCqmQbeOracle(2);
    if (trace) {
      // The traced run wraps the oracle it passes in, to count and time
      // the QBE calls.
      oracle = [this, inner = std::move(oracle)](const QbeInstance& query) {
        ScopedSpan call("qbe.oracle");
        Clock::time_point call_start = Clock::now();
        bool accepted = inner(query);
        layers.oracle_ms.back() += MsSince(call_start);
        ++layers.oracle_calls;
        if (accepted) ++layers.oracle_accepts;
        return accepted;
      };
    }
    dim = DecideSepDim(*in.dim, 1, oracle);
  }
  record(kSepDim);
  report.CountOps(6, 0);

  // Answer checks, outside the timed calls.
  const std::string where = "train job " + std::to_string(job) + ": ";
  if (cqm.outcome != BudgetOutcome::kCompleted || !cqm.separable) {
    report.Fail(where + "CQ[2]-SEP rejected a noise-free planted instance");
  } else if (!cqm.model.has_value() ||
             cqm.model->TrainingErrors(*in.cq) != 0) {
    report.Fail(where + "CQ[2]-SEP model mislabels its training data");
  }
  if (cq.outcome != BudgetOutcome::kCompleted ||
      (cqm.separable && !cq.separable)) {
    report.Fail(where + "CQ[2]-SEP holds but CQ-SEP does not");
  }
  if (!ghw.separable) {
    report.Fail(where + "GHW(1)-SEP rejected a noise-free planted instance");
  }
  if (!classifier.has_value()) {
    report.Fail(where + "Algorithm 1 refused a GHW(1)-separable instance");
  } else {
    Labeling own = classifier->Classify(in.ghw->database());
    for (Value e : in.ghw->Entities()) {
      if (own.Get(e) != in.ghw->label(e)) {
        report.Fail(where + "Algorithm 1 relabels training entity " +
                    in.ghw->database().value_name(e));
        break;
      }
    }
    if (held_out_labels.size() != in.held_out->Entities().size()) {
      report.Fail(where + "Algorithm 1 left held-out entities unlabeled");
    }
  }
  if (relabel.disagreement > in.flips) {
    report.Fail(where + "Algorithm 2 disagreement " +
                std::to_string(relabel.disagreement) + " exceeds the " +
                std::to_string(in.flips) + " injected flips");
  }
  // The planted path feature alone explains the positives, so one
  // CQ[2] feature separates; its bipartition is the labeling itself.
  std::vector<Value> positives = in.dim->PositiveExamples();
  std::vector<Value> negatives = in.dim->NegativeExamples();
  if (!dim.separable) {
    report.Fail(where + "Sep[1] rejected a planted CQ[2] instance");
  } else if (!positives.empty() && !negatives.empty()) {
    std::vector<Value> side = dim.feature_positive_sets.at(0);
    std::sort(side.begin(), side.end());
    std::sort(positives.begin(), positives.end());
    std::sort(negatives.begin(), negatives.end());
    if (side != positives && side != negatives) {
      report.Fail(where + "Sep[1] feature does not realize the labeling");
    }
  }

  if (trace) {
    layers.cqsep_pairs.push_back(static_cast<double>(cq.pairs_checked));
    ReplayCqSep(*in.cq, layers);
    ReplayCqmSep(*in.cq, layers);
    ReplayCoverGame(in.ghw->database(), layers);
  }
  SpanRecorder::set_active(recorder);
}

void TrainPhase::Finish(Report& report) {
  State& s = *state_;
  // Whole passes only, and a minimum of them, so every instance weighs the
  // same in the medians (and a traced run has traced and untraced passes).
  while (s.next != 0 ||
         s.jobs < s.config.sizes.min_train_passes * s.instances.size()) {
    s.RunJob(s.next, report);
    s.next = (s.next + 1) % s.instances.size();
  }
  const bool trace = s.config.trace;
  const LayerSamples& layers = s.layers;
  // A stage's time is the median of the run's normalised calls; each
  // instance weighs the same, since the run made whole passes.
  for (int stage = 0; stage < kStages; ++stage) {
    const std::size_t n = s.times[stage].size();
    if (kStageGated[stage]) {
      report.AddEndToEnd(kStageMetric[stage], Median(s.times[stage]), "ms",
                         n);
      report.AddRaw(kStageMetric[stage], Median(s.raw_times[stage]), "ms");
    } else {
      report.AddLayer(kStageMetric[stage], Median(s.raw_times[stage]), "ms",
                      n);
    }
  }
  if (!trace) return;
  // Tracing overhead, measured: the summed stage figures of the traced
  // passes over those of the untraced ones.
  double traced_ms = 0.0, untraced_ms = 0.0;
  for (int stage = 0; stage < kStages; ++stage) {
    traced_ms += Median(s.times[stage]);
    untraced_ms += Median(s.untraced_times[stage]);
  }
  report.AddLayer("trace.overhead_pct",
                  100.0 * (traced_ms / untraced_ms - 1.0), "%",
                  static_cast<std::size_t>(s.jobs));
  const std::size_t traced = layers.cqsep_pairs.size();
  report.AddLayer("core.cqsep_pairs", Median(layers.cqsep_pairs), "count",
                  traced);
  report.AddLayer("core.alg1_classify_ms", Median(layers.classify_ms), "ms",
                  layers.classify_ms.size());
  report.AddLayer("covergame.build_ms", Median(layers.build_ms), "ms", traced);
  report.AddLayer("covergame.decide_ms", Median(layers.decide_ms), "ms",
                  traced);
  report.AddLayer("covergame.positions", Median(layers.positions), "count",
                  traced);
  report.AddLayer("covergame.strategies", Median(layers.strategies), "count",
                  traced);
  report.AddLayer("cq.enum_ms", Median(layers.enum_ms), "ms", traced);
  report.AddLayer("linsep.lp_ms", Median(layers.lp_ms), "ms", traced);
  report.AddLayer("linsep.lp_rows", Median(layers.lp_rows), "count", traced);
  report.AddLayer("linsep.lp_cols", Median(layers.lp_cols), "count", traced);
  report.AddLayer("qbe.oracle_calls",
                  static_cast<double>(layers.oracle_calls) /
                      static_cast<double>(traced),
                  "count/job", traced);
  report.AddLayer("qbe.oracle_ms", Median(layers.oracle_ms), "ms", traced);
  report.AddLayer("qbe.accept_ratio",
                  layers.oracle_calls == 0
                      ? 0.0
                      : static_cast<double>(layers.oracle_accepts) /
                            static_cast<double>(layers.oracle_calls),
                  "ratio", layers.oracle_calls);
  report.Tally("hom.replays", static_cast<double>(traced));
  report.Tally("hom.calls", static_cast<double>(layers.hom_calls));
  report.Tally("hom.nodes", static_cast<double>(layers.hom_nodes));
  report.Tally("hom.ms", layers.hom_ms);
}

}  // namespace perfbench
