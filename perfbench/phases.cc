#include "phases.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>

#include "workload/generators.h"

namespace perfbench {

Sizes Sizes::Tiny() {
  Sizes sizes;
  sizes.cq_entities = 8;
  sizes.ghw_entities = 6;
  sizes.dim_entities = 4;
  sizes.train_instances = 2;
  sizes.min_train_passes = 2;
  sizes.min_nodes = 8;
  sizes.max_nodes = 12;
  sizes.open_rate_per_s = 200.0;
  sizes.update_entities = 6;
  sizes.update_background = 8;
  sizes.recheck_every = 4;
  sizes.verify_every = 12;
  return sizes;
}

std::shared_ptr<featsep::TrainingDatabase> PlantedGraph(
    std::size_t entities, std::size_t background, std::size_t edges,
    std::uint64_t seed) {
  using namespace featsep;
  Rng rng(seed);
  auto db = std::make_shared<Database>(GraphWorkloadSchema());
  auto training = std::make_shared<TrainingDatabase>(db);
  RelationId eta = db->schema().entity_relation();
  RelationId edge = db->schema().FindRelation("E");
  std::vector<std::size_t> lengths(entities);
  for (std::size_t i = 0; i < entities; ++i) {
    lengths[i] = i < entities / 2 ? 2 : (i < entities * 3 / 4 ? 1 : 0);
  }
  for (std::size_t i = entities; i > 1; --i) {
    std::swap(lengths[i - 1], lengths[rng.Below(i)]);
  }
  for (std::size_t i = 0; i < entities; ++i) {
    std::string name = "e" + std::to_string(i);
    Value entity = db->Intern(name);
    db->AddFact(eta, {entity});
    Value previous = entity;
    for (std::size_t j = 1; j <= lengths[i]; ++j) {
      Value next = db->Intern(name + "_" + std::to_string(j));
      db->AddFact(edge, {previous, next});
      previous = next;
    }
    training->SetLabel(entity, lengths[i] == 2 ? kPositive : kNegative);
  }
  std::vector<Value> nodes;
  for (std::size_t i = 0; i < background; ++i) {
    nodes.push_back(db->Intern("bg" + std::to_string(i)));
  }
  // Forward-only edges keep the background acyclic, so it never lengthens
  // a planted path.
  const std::size_t max_edges = background * (background - 1) / 2;
  for (std::size_t added = 0; added < std::min(edges, max_edges);) {
    std::size_t a = rng.Below(background);
    std::size_t b = rng.Below(background);
    if (a != b &&
        db->AddFact(edge, {nodes[std::min(a, b)], nodes[std::max(a, b)]})) {
      ++added;
    }
  }
  return training;
}

std::size_t HardwareThreads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

namespace {

/// Rounds of (train, serve, update) slices a run is cut into.
constexpr int kRounds = 16;
/// Set-ups per run: the one measured, then throwaway ones spread over the
/// run, so that setup_s (their median) samples the whole run.
constexpr int kSetups = 9;

struct Phases {
  std::unique_ptr<TrainPhase> train;
  std::unique_ptr<ServePhase> serve;
  std::unique_ptr<UpdatePhase> update;
};

Phases SetUp(const PhaseConfig& config) {
  return {std::make_unique<TrainPhase>(config),
          std::make_unique<ServePhase>(config),
          std::make_unique<UpdatePhase>(config)};
}

}  // namespace

std::string RunWorkload(const RunOptions& options, Report& report) {
  PhaseConfig config = options.phase;
  for (const Workload& w : kWorkloads) {
    if (options.workload == w.name) config.sizes.catalog_dbs = w.catalog_dbs;
  }
  std::vector<double> setup_s, setup_norm;
  auto timed_setup = [&](const PhaseConfig& c) {
    const double probe = MedianProbeMs(3);
    Clock::time_point start = Clock::now();
    Phases phases = SetUp(c);
    setup_s.push_back(MsSince(start) / 1000.0);
    setup_norm.push_back(Normalized(setup_s.back(), probe));
    return phases;
  };
  Phases phases = timed_setup(config);
  PhaseConfig throwaway = config;
  throwaway.trace = false;
  throwaway.work_dir = config.work_dir + "/setup";

  auto slice = [&](int phase) {
    return options.seconds * kPhaseShare[phase] / kRounds;
  };
  SpanRecorder recorder;
  if (config.trace) SpanRecorder::set_active(&recorder);
  double phase_s[3] = {0, 0, 0};
  auto timed = [&](int index, auto&& work) {
    Clock::time_point start = Clock::now();
    work();
    phase_s[index] += MsSince(start) / 1000.0;
  };
  for (int round = 0; round < kRounds; ++round) {
    timed(0, [&] { phases.train->RunSlice(slice(0), report); });
    timed(1, [&] { phases.serve->RunSlice(slice(1), report); });
    timed(2, [&] { phases.update->RunSlice(slice(2), report); });
    if ((round + 1) % (kRounds / (kSetups - 1)) == 0) {
      SpanRecorder* active = SpanRecorder::active();
      SpanRecorder::set_active(nullptr);
      timed_setup(throwaway);
      SpanRecorder::set_active(active);
    }
  }
  timed(0, [&] { phases.train->Finish(report); });
  timed(1, [&] { phases.serve->Finish(report); });
  timed(2, [&] { phases.update->Finish(report); });
  report.AddEndToEnd("setup_s", Median(setup_norm), "s", setup_norm.size());
  report.AddRaw("setup_s", Median(setup_s), "s");
  std::ostringstream out;
  out << "# setups:";
  for (double s : setup_s) out << " " << s;
  out << " s\n";
  for (int i = 0; i < 3; ++i) {
    out << "# phase " << kPhases[i] << ": " << phase_s[i] << " s\n";
  }
  SpanRecorder::set_active(nullptr);
  if (!options.phase.trace) return out.str();

  // Per-layer metrics that combine phases, pipeline coverage, overhead.
  const double replays = std::max(1.0, report.tally("hom.replays"));
  const double nodes = report.tally("hom.nodes");
  report.AddLayer("cq.hom_calls", report.tally("hom.calls") / replays,
                  "count/replay", static_cast<std::size_t>(replays));
  report.AddLayer("cq.hom_nodes", nodes / replays, "count/replay",
                  static_cast<std::size_t>(replays));
  report.AddLayer("cq.ns_per_node",
                  report.tally("hom.ms") * 1e6 / std::max(1.0, nodes), "ns",
                  static_cast<std::size_t>(nodes));

  std::vector<Span> spans = recorder.Snapshot();
  std::map<std::string, NameTotals> totals = TotalsByName(spans);
  auto total_ns = [&](const char* name) {
    auto it = totals.find(name);
    return it == totals.end() ? 0.0 : static_cast<double>(it->second.total_ns);
  };
  auto covered_ns = [&](const char* name) {
    auto it = totals.find(name);
    return it == totals.end() ? 0.0
                              : static_cast<double>(it->second.total_ns -
                                                    it->second.self_ns);
  };
  auto ratio = [](double part, double whole) {
    return whole > 0.0 ? part / whole : 0.0;
  };
  const std::size_t jobs = totals["train.job"].count;
  report.AddLayer("coverage.cqsep",
                  Coverage(totals, "pipeline.cqsep", "replay.cqsep"), "ratio",
                  jobs);
  report.AddLayer("coverage.cqmsep",
                  Coverage(totals, "pipeline.cqmsep", "replay.cqmsep"),
                  "ratio", jobs);
  report.AddLayer("coverage.ghwsep",
                  Coverage(totals, "pipeline.ghwsep", "replay.covergame"),
                  "ratio", jobs);
  report.AddLayer("coverage.alg1",
                  ratio(covered_ns("replay.covergame") +
                            total_ns("core.alg1_classify"),
                        total_ns("pipeline.alg1")),
                  "ratio", jobs);
  report.AddLayer("coverage.alg2",
                  Coverage(totals, "pipeline.alg2", "replay.covergame"),
                  "ratio", jobs);
  report.AddLayer("coverage.sepdim",
                  Coverage(totals, "pipeline.sepdim", "pipeline.sepdim"),
                  "ratio", jobs);
  report.AddLayer("coverage.matrix",
                  Coverage(totals, "pipeline.matrix", "replay.matrix"),
                  "ratio", totals["pipeline.matrix"].count);

  // The cost of one span (trace.overhead_pct, measured on the train
  // passes, is in the train phase's report).
  report.AddLayer("trace.span_ns", MeasureSpanCostNs(200000), "ns", 200000);

  if (!options.trace_out.empty() &&
      !recorder.WriteJsonLines(options.trace_out)) {
    report.Fail("could not write the span file " + options.trace_out);
  }
  out << "# spans: " << spans.size() << "\n";
  out << "# span                          count     total_ms      self_ms\n";
  for (const auto& [name, t] : totals) {
    char line[160];
    std::snprintf(line, sizeof(line), "# %-28s %7zu %12.3f %12.3f\n",
                  name.c_str(), t.count, static_cast<double>(t.total_ns) / 1e6,
                  static_cast<double>(t.self_ns) / 1e6);
    out << line;
  }
  return out.str();
}

}  // namespace perfbench
