// update: writes beside reads on one warm cache. A labelled planted graph
// of about 128 values is served by an EvalService (LRU only) over the full
// CQ[2] bank; each step replaces one background edge with a fresh one (an
// insert and a remove, so the fact count stays steady), maintains the
// cache after each with IncrementalMaintainer::ApplyDelta, then reads the
// Matrix. Every few steps a label flips and
// IncrementalSeparability::Recheck re-decides.

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/separability.h"
#include "core/statistic.h"
#include "cq/enumeration.h"
#include "linsep/separability_lp.h"
#include "phases.h"
#include "serve/eval_service.h"
#include "serve/incremental.h"
#include "workload/generators.h"

namespace perfbench {

using namespace featsep;

struct UpdatePhase::State {
  PhaseConfig config;
  std::vector<ConjunctiveQuery> features;
  std::shared_ptr<TrainingDatabase> training;
  RelationId edge = 0;
  std::vector<Value> background;
  /// Background edges the benchmark added; removals draw from these, so
  /// the planted paths (and hence the planted labels) stay intact.
  std::vector<std::pair<Value, Value>> pool;
  std::set<std::pair<Value, Value>> present;
  std::unique_ptr<serve::EvalService> service;
  std::unique_ptr<serve::IncrementalMaintainer> maintainer;
  std::unique_ptr<serve::IncrementalSeparability> separability;
  Rng rng{0};

  // Progress and samples.
  std::size_t steps = 0;
  /// Verified steps, by labeling: [0] restored (separable), [1] flipped.
  std::size_t verified[2] = {0, 0};
  Value flipped = kNoValue;  // entity whose label is currently flipped
  std::set<std::string> changed;  // rows changed since the last Recheck
  std::vector<double> write_ms, read_ms, recheck_ms, mutate_us, apply_ms;
  /// write_ms and recheck_ms normalised by the probe taken at the start
  /// of their step.
  std::vector<double> write_norm, recheck_norm;
  serve::IncrementalStats maint_before;
  serve::IncrementalSepStats sep_before;

  void Step(Report& report);

  /// A forward (lower to higher index) background edge not yet present.
  std::pair<Value, Value> FreshEdge() {
    for (;;) {
      std::size_t a = rng.Below(background.size());
      std::size_t b = rng.Below(background.size());
      if (a == b) continue;
      std::pair<Value, Value> edge_args{background[std::min(a, b)],
                                        background[std::max(a, b)]};
      if (present.insert(edge_args).second) return edge_args;
    }
  }
};

UpdatePhase::UpdatePhase(const PhaseConfig& config)
    : state_(std::make_unique<State>()) {
  State& s = *state_;
  const Sizes& sizes = config.sizes;
  s.config = config;
  s.rng = Rng(SubSeed(config.seed, 31));
  s.features = EnumerateFeatureQueries(GraphWorkloadSchema(), 2);
  s.training =
      PlantedGraph(sizes.update_entities, sizes.update_background,
                   sizes.update_background * 3 / 2, SubSeed(config.seed, 32));
  Database& db = s.training->mutable_database();
  s.edge = db.schema().FindRelation("E");
  for (std::size_t i = 0; i < sizes.update_background; ++i) {
    s.background.push_back(db.Intern("bg" + std::to_string(i)));
  }
  for (FactIndex f : db.FactsOf(s.edge)) {
    s.present.emplace(db.fact(f).args[0], db.fact(f).args[1]);
  }
  for (std::size_t i = 0; i < sizes.update_background / 2; ++i) {
    std::pair<Value, Value> e = s.FreshEdge();
    db.AddFact(s.edge, {e.first, e.second});
    s.pool.push_back(e);
  }
  // Default serve options: LRU only (no disk tier), incremental patching.
  s.service = std::make_unique<serve::EvalService>();
  s.service->Matrix(s.features, db);
  s.maintainer =
      std::make_unique<serve::IncrementalMaintainer>(s.service.get(),
                                                     s.features);
  s.separability =
      std::make_unique<serve::IncrementalSeparability>(s.features);
  s.separability->Recheck(*s.training, s.service.get(), {});
  s.maint_before = s.maintainer->stats();
  s.sep_before = s.separability->stats();
}

UpdatePhase::~UpdatePhase() = default;

void UpdatePhase::RunSlice(double seconds, Report& report) {
  State& s = *state_;
  Clock::time_point start = Clock::now();
  do {
    s.Step(report);
  } while (MsSince(start) < seconds * 1000.0);
}

void UpdatePhase::State::Step(Report& report) {
  const std::size_t step = steps++;
  Database& db = training->mutable_database();
  ScopedSpan step_span("update.step", step + 1);
  // A write replaces one benchmark-added edge with a fresh one: an insert
  // and a remove, each maintained by ApplyDelta. The fact count stays
  // steady and every write does the same work; an insert costs about four
  // removes here, so alternating single-fact writes would put the p50 on
  // the edge between two modes.
  const std::size_t slot = rng.Below(pool.size());
  const std::pair<Value, Value> removed = pool[slot];
  const std::pair<Value, Value> added = FreshEdge();
  const double probe = ProbeMs();
  Clock::time_point start = Clock::now();
  for (bool insert : {true, false}) {
    const std::pair<Value, Value>& e = insert ? added : removed;
    Clock::time_point mutate_start = Clock::now();
    Delta delta;
    {
      ScopedSpan span("relational.mutate");
      delta = insert ? db.InsertFact(edge, {e.first, e.second})
                     : db.RemoveFact(edge, {e.first, e.second});
    }
    Clock::time_point mutated = Clock::now();
    serve::DeltaMaintenance maintenance;
    {
      ScopedSpan span("serve.incremental.apply");
      maintenance = maintainer->ApplyDelta(db, delta);
    }
    mutate_us.push_back(std::chrono::duration<double, std::micro>(
                            mutated - mutate_start)
                            .count());
    apply_ms.push_back(MsSince(mutated));
    changed.insert(maintenance.changed_entities.begin(),
                   maintenance.changed_entities.end());
  }
  write_ms.push_back(MsSince(start));
  write_norm.push_back(Normalized(write_ms.back(), probe));
  pool[slot] = added;
  present.erase(removed);

  start = Clock::now();
  std::vector<FeatureVector> rows;
  {
    ScopedSpan span("serve.read");
    rows = service->Matrix(features, db);
  }
  read_ms.push_back(MsSince(start));
  report.CountOps(3, 0);

  if ((step + 1) % config.sizes.recheck_every != 0) return;
  // Relabel: flip one entity, and flip it back at the next recheck.
  if (flipped == kNoValue) {
    std::vector<Value> entities = db.Entities();
    flipped = entities[rng.Below(entities.size())];
    training->SetLabel(flipped, -training->label(flipped));
  } else {
    training->SetLabel(flipped, -training->label(flipped));
    flipped = kNoValue;
  }
  std::vector<std::string> changed_list(changed.begin(), changed.end());
  changed.clear();
  start = Clock::now();
  serve::IncrementalSeparability::Verdict verdict;
  {
    ScopedSpan span("serve.recheck");
    verdict = separability->Recheck(*training, service.get(),
                                      changed_list);
  }
  recheck_ms.push_back(MsSince(start));
  recheck_norm.push_back(Normalized(recheck_ms.back(), probe));
  report.CountOps(1, 0);

  if ((step + 1) % config.sizes.verify_every != 0) return;
  // Answer check, untimed: a from-scratch recompute on a fresh copy.
  ++verified[flipped == kNoValue ? 0 : 1];
  auto copy = std::make_shared<Database>(db);
  TrainingDatabase fresh(copy);
  for (Value v : copy->Entities()) fresh.SetLabel(v, training->label(v));
  Statistic statistic(features);
  const std::string where = "update step " + std::to_string(step + 1) + ": ";
  if (statistic.Matrix(*copy) != rows) {
    report.Fail(where + "warm matrix differs from a recompute");
  }
  bool lin = FindSeparator(MakeTrainingCollection(statistic, fresh))
                 .has_value();
  if (lin != verdict.lin_separable) {
    report.Fail(where + "Recheck linear-separability verdict is wrong");
  }
  if (DecideCqSep(fresh).separable != verdict.cq_sep.separable) {
    report.Fail(where + "Recheck CQ-SEP verdict is wrong");
  }
}

void UpdatePhase::Finish(Report& report) {
  State& s = *state_;
  // write_p99_ms needs a sample count the percentile rule allows p99 for,
  // and a step of each labeling must have been checked against a recompute.
  while (HighestPercentileBp(s.write_ms.size()) < 9900 ||
         s.verified[0] == 0 || s.verified[1] == 0) {
    s.Step(report);
  }
  const bool trace = s.config.trace;
  const serve::IncrementalStats& maint_before = s.maint_before;
  const serve::IncrementalSepStats& sep_before = s.sep_before;
  const std::vector<double>& write_ms = s.write_ms;
  const std::vector<double>& read_ms = s.read_ms;
  const std::vector<double>& recheck_ms = s.recheck_ms;

  // The gated p50s are medians of the normalised samples. The p99 is the
  // unnormalised tail, reported but not gated: it is set by the few
  // slowest writes, and on the host this was built on their time moved by
  // more than any bound between runs of the same code.
  const std::size_t n = write_ms.size();
  report.AddEndToEnd("write_p50_ms", Median(s.write_norm), "ms", n);
  report.AddRaw("write_p50_ms", Median(write_ms), "ms");
  report.AddLayer("write_p99_ms", Percentile(write_ms, 9900), "ms", n);
  // read_p50_ms (about 0.1 ms) is reported unnormalised but not gated: it
  // follows the host's slow periods 1.5-2x more steeply than the probe,
  // and runs in which the guest kernel keeps a call's threads on one vCPU
  // read 15% faster; its spread over seeds reached 0.22 normalised.
  report.AddLayer("read_p50_ms", Median(read_ms), "ms", read_ms.size());
  report.AddEndToEnd("recheck_p50_ms", Median(s.recheck_norm), "ms",
                     recheck_ms.size());
  report.AddRaw("recheck_p50_ms", Median(recheck_ms), "ms");
  if (!trace) return;
  const serve::IncrementalStats m = s.maintainer->stats();
  const serve::IncrementalSepStats sep = s.separability->stats();
  const double rechecked = static_cast<double>(m.entities_rechecked -
                                               maint_before.entities_rechecked);
  const double screened = static_cast<double>(
      m.entities_screened_out - maint_before.entities_screened_out);
  const double deltas =
      static_cast<double>(m.deltas_applied - maint_before.deltas_applied);
  const double warm = static_cast<double>(sep.lin_warm_hits -
                                          sep_before.lin_warm_hits);
  const double resolves =
      static_cast<double>(sep.lin_resolves - sep_before.lin_resolves);
  report.AddLayer("relational.mutate_us", Median(s.mutate_us), "us",
                  s.mutate_us.size());
  report.AddLayer("serve.incremental.apply_ms", Median(s.apply_ms), "ms",
                  s.apply_ms.size());
  report.AddLayer("serve.incremental.recheck_share",
                  rechecked / std::max(1.0, rechecked + screened), "ratio", n);
  report.AddLayer("serve.incremental.features_patched",
                  static_cast<double>(m.features_patched -
                                      maint_before.features_patched) /
                      std::max(1.0, deltas),
                  "count/delta", n);
  report.AddLayer("linsep.warm_hit_ratio", warm / std::max(1.0, warm + resolves),
                  "ratio", recheck_ms.size());
}

}  // namespace perfbench
