// serve: AsyncEvalService answering full-bank Matrix requests. Databases
// are drawn Zipf-popular from a catalog whose size the workload sets (its
// (digest, feature) entries exceed the default LRU capacity or fit in it);
// every 20th request carries a database never seen before, so the cold
// kernel always serves a share. An open-loop Poisson burst gives the
// latency percentiles, then a closed-loop burst with one request in flight
// per hardware thread gives the saturation throughput.

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/statistic.h"
#include "cq/cq.h"
#include "cq/enumeration.h"
#include "cq/evaluation.h"
#include "cq/homomorphism.h"
#include "phases.h"
#include "serve/async_service.h"
#include "serve/disk_cache.h"
#include "serve/eval_service.h"
#include "workload/generators.h"

namespace perfbench {

using namespace featsep;

namespace {

/// Node count of the k-th catalog database: every size in
/// [min_nodes, max_nodes] in a fixed order, so which sizes are popular
/// does not depend on the seed (only the wiring does).
std::size_t NodesAt(std::size_t k, const Sizes& sizes) {
  const std::size_t span = sizes.max_nodes - sizes.min_nodes + 1;
  return sizes.min_nodes + (k * 13) % span;
}

/// Node count of the k-th never-seen database: five sizes evenly spread
/// over [min_nodes, max_nodes], in turn. The short cycle gives every run
/// (about 50 of them in the open loop) the same mix of cold costs, which
/// set serve_p99_ms.
std::size_t FreshNodesAt(std::size_t k, const Sizes& sizes) {
  return sizes.min_nodes + (k % 5) * (sizes.max_nodes - sizes.min_nodes) / 4;
}

/// A random loop-free digraph over the Eta/E schema with three edges per
/// node; every other domain value is an entity.
std::shared_ptr<Database> WorldGraph(std::uint64_t seed, std::size_t nodes) {
  Rng rng(seed);
  auto db = std::make_shared<Database>(GraphWorkloadSchema());
  RelationId e = db->schema().FindRelation("E");
  std::vector<Value> values;
  for (std::size_t i = 0; i < nodes; ++i) {
    values.push_back(db->Intern("v" + std::to_string(i)));
  }
  std::size_t added = 0;
  for (std::size_t attempts = 0; added < nodes * 3 && attempts < nodes * 60;
       ++attempts) {
    Value a = values[rng.Below(nodes)];
    Value b = values[rng.Below(nodes)];
    if (a != b && db->AddFact(e, {a, b})) ++added;
  }
  RelationId eta = db->schema().entity_relation();
  std::vector<Value> domain = db->domain();
  for (std::size_t i = 0; i < domain.size(); i += 2) {
    db->AddFact(eta, {domain[i]});
  }
  return db;
}

using DbPtr = std::shared_ptr<const Database>;

/// A deterministic request stream: the k-th request depends only on the
/// seed, however far a time-bounded run consumes the stream.
struct Stream {
  Rng rng{0};
  std::uint64_t fresh_tag = 0;  // seeds this stream's fresh databases
  std::uint64_t fresh_made = 0;
  std::vector<DbPtr> requests;
  std::size_t next = 0;
};

struct Outcome {
  serve::RequestResult result;
  std::shared_ptr<const Database> db;
};

}  // namespace

/// Share of a serve slice spent in the open loop; the closed loop gets the
/// rest.
constexpr double kOpenFraction = 0.75;

struct ServePhase::State {
  PhaseConfig config;
  std::string cache_dir;
  std::vector<ConjunctiveQuery> features;
  std::vector<DbPtr> catalog;
  std::unique_ptr<ZipfDraw> zipf;
  std::unique_ptr<serve::AsyncEvalService> service;
  serve::ServeStats before;

  // Request streams, generated ahead of each burst (outside its timing).
  Stream open, closed;
  std::uint64_t bursts = 0;
  double closed_capacity = 3000.0;  // requests/s estimate for pre-generation

  // Results.
  std::vector<Outcome> outcomes;
  std::vector<double> latency_ms, late_ms;
  std::uint64_t open_total = 0, closed_total = 0, closed_completed = 0;
  double closed_s = 0.0;

  ~State() {
    service.reset();
    std::error_code ignored;
    std::filesystem::remove_all(cache_dir, ignored);
  }

  /// Extends `stream` to `size` requests: Zipf-popular catalog databases
  /// and, as every fresh_every-th request, a database never seen before
  /// (evenly spaced, so every stretch of the stream has the same share of
  /// cold work).
  void TopUp(Stream& stream, std::size_t size) {
    while (stream.requests.size() < size) {
      if ((stream.requests.size() + 1) % config.sizes.fresh_every == 0) {
        std::size_t k = stream.fresh_made++;
        stream.requests.push_back(
            WorldGraph(SubSeed(config.seed, stream.fresh_tag + k),
                       FreshNodesAt(k, config.sizes)));
      } else {
        stream.requests.push_back(catalog[zipf->Draw(stream.rng)]);
      }
    }
  }

  void OpenBurst(const std::vector<double>& due_s, Report& report);
  void ClosedBurst(double seconds, Report& report);
};

ServePhase::ServePhase(const PhaseConfig& config)
    : state_(std::make_unique<State>()) {
  State& s = *state_;
  const Sizes& sizes = config.sizes;
  s.config = config;
  s.cache_dir = config.work_dir + "/serve-cache";
  std::error_code ignored;
  std::filesystem::remove_all(s.cache_dir, ignored);
  std::filesystem::create_directories(config.work_dir);

  s.features = EnumerateFeatureQueries(GraphWorkloadSchema(), 2);
  for (std::size_t i = 0; i < sizes.catalog_dbs; ++i) {
    std::uint64_t seed = SubSeed(config.seed, 1000 + i);
    s.catalog.push_back(WorldGraph(seed, NodesAt(i, sizes)));
  }
  s.zipf = std::make_unique<ZipfDraw>(s.catalog.size(), sizes.zipf_s);
  s.open.rng = Rng(SubSeed(config.seed, 11));
  s.open.fresh_tag = 1'000'000;
  s.closed.rng = Rng(SubSeed(config.seed, 13));
  s.closed.fresh_tag = 2'000'000;

  // Default service options; only the deployment setting (where the disk
  // tier lives) is chosen here.
  serve::AsyncServeOptions options;
  options.serve.cache_dir = s.cache_dir;
  s.service = std::make_unique<serve::AsyncEvalService>(options);
  // Warm both tiers, least popular first, so the LRU ends up holding the
  // most popular databases.
  for (std::size_t i = s.catalog.size(); i-- > 0;) {
    s.service->backend().Matrix(s.features, *s.catalog[i]);
  }
  s.before = s.service->backend().stats();
}

ServePhase::~ServePhase() = default;

void ServePhase::RunSlice(double seconds, Report& report) {
  State& s = *state_;
  const double open_s = seconds * kOpenFraction;
  const double rate = s.config.sizes.open_rate_per_s;
  std::vector<double> due = PoissonSchedule(
      static_cast<std::size_t>(rate * open_s * 2) + 20, rate,
      SubSeed(s.config.seed, 5000 + s.bursts++));
  std::size_t keep = 1;
  while (keep < due.size() && due[keep] < open_s) ++keep;
  due.resize(keep);
  s.OpenBurst(due, report);
  s.ClosedBurst(seconds - open_s, report);
}

/// Open loop: the calling thread submits on the Poisson schedule and,
/// between submissions, polls the requests in flight; each request is
/// timed from when it was due to when the client saw it done. The client
/// spins (yielding) rather than sleeping or blocking, so its own wake-up
/// latency does not enter the figures, only the service's hand-offs and
/// work do: on the virtual machine this was built on, a sleeping
/// generator and a blocked collector added 0.2-0.35 ms to a 0.1 ms warm
/// request, and how much moved from run to run.
void ServePhase::State::OpenBurst(const std::vector<double>& due_s,
                                  Report& report) {
  const std::size_t n = due_s.size();
  const std::size_t first = open.next;
  TopUp(open, first + n);
  open.next += n;
  std::vector<serve::RequestHandle> handles(n);
  std::vector<serve::RequestResult> results(n);
  std::vector<double> latency(n), late(n);
  std::vector<char> seen(n, 0);
  SpanRecorder* recorder = SpanRecorder::active();
  Clock::time_point start = Clock::now() + std::chrono::milliseconds(2);
  auto due = [&](std::size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(due_s[i]));
  };
  std::size_t submitted = 0;
  std::size_t oldest = 0;  // every earlier request has been seen done
  while (oldest < n) {
    if (submitted < n && Clock::now() >= due(submitted)) {
      const std::size_t i = submitted++;
      late[i] = MsSince(due(i));
      ScopedSpan span("serve.submit", first + i + 1);
      handles[i] = service->Submit(features, open.requests[first + i]);
      continue;
    }
    for (std::size_t i = oldest; i < submitted; ++i) {
      if (seen[i] || !handles[i].done()) continue;
      latency[i] = MsSince(due(i));
      seen[i] = 1;
      results[i] = handles[i].Wait();
      if (recorder != nullptr) {
        Span span;
        span.name = "serve.request";
        span.end_ns = recorder->NowNs();
        span.start_ns =
            span.end_ns - static_cast<std::int64_t>(latency[i] * 1e6);
        span.request = first + i + 1;
        recorder->Close(recorder->Open(), std::move(span));
      }
    }
    while (oldest < submitted && seen[oldest]) ++oldest;
    std::this_thread::yield();
  }
  std::uint64_t failed = 0;
  for (std::size_t i = 0; i < n; ++i) {
    // A rejected or expired request misses every latency limit.
    if (!results[i].complete()) {
      ++failed;
      latency[i] = std::numeric_limits<double>::infinity();
    }
    outcomes.push_back({std::move(results[i]), open.requests[first + i]});
  }
  latency_ms.insert(latency_ms.end(), latency.begin(), latency.end());
  late_ms.insert(late_ms.end(), late.begin(), late.end());
  open_total += n;
  report.CountOps(n, failed);
}

/// Closed loop: one request in flight per hardware thread.
void ServePhase::State::ClosedBurst(double seconds, Report& report) {
  const std::size_t clients = HardwareThreads();
  TopUp(closed, closed.next +
                    static_cast<std::size_t>(closed_capacity * seconds * 2) +
                    64);
  const std::size_t limit = closed.requests.size();
  std::atomic<std::size_t> next{closed.next};
  std::vector<std::vector<Outcome>> per_client(clients);
  Clock::time_point start = Clock::now();
  Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      while (Clock::now() < end) {
        std::size_t i = next.fetch_add(1);
        if (i >= limit) break;
        serve::RequestHandle handle =
            service->Submit(features, closed.requests[i]);
        per_client[c].push_back({handle.Wait(), closed.requests[i]});
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double elapsed = MsSince(start) / 1000.0;
  closed.next = std::min(next.load(), limit);
  std::size_t total = 0, completed = 0;
  for (auto& client : per_client) {
    for (Outcome& o : client) {
      ++total;
      if (o.result.complete()) ++completed;
      outcomes.push_back(std::move(o));
    }
  }
  closed_s += elapsed;
  closed_total += total;
  closed_completed += completed;
  closed_capacity = std::max(closed_capacity, 1.5 * completed / elapsed);
  report.CountOps(total, total - completed);
}

void ServePhase::Finish(Report& report) {
  State& s = *state_;
  const bool trace = s.config.trace;
  serve::AsyncEvalService& service = *s.service;
  // serve_p99_ms needs a sample count the percentile rule allows p99 for.
  std::size_t more = 0;
  while (HighestPercentileBp(s.open_total + more) < 9900) ++more;
  if (more > 0) {
    s.OpenBurst(PoissonSchedule(more, s.config.sizes.open_rate_per_s,
                                SubSeed(s.config.seed, 5000 + s.bursts++)),
                report);
  }
  const serve::ServeStats after = service.backend().stats();
  const serve::ServeStats& before = s.before;
  const std::size_t clients = HardwareThreads();

  // Answer check, outside the timed window: every served matrix equals the
  // serial Statistic::Matrix of its database, computed once per database.
  std::map<const Database*, std::vector<FeatureVector>> expected;
  auto note = [&](const Outcome& o) {
    if (o.result.complete()) expected.try_emplace(o.db.get());
  };
  for (const Outcome& o : s.outcomes) note(o);
  {
    std::vector<std::pair<const Database*, std::vector<FeatureVector>*>> work;
    for (auto& [db, rows] : expected) work.emplace_back(db, &rows);
    Statistic statistic(s.features);
    std::atomic<std::size_t> cursor{0};
    std::vector<std::thread> checkers;
    for (std::size_t c = 0; c < clients; ++c) {
      checkers.emplace_back([&] {
        for (std::size_t i = cursor.fetch_add(1); i < work.size();
             i = cursor.fetch_add(1)) {
          *work[i].second = statistic.Matrix(*work[i].first);
        }
      });
    }
    for (std::thread& t : checkers) t.join();
  }
  std::size_t mismatches = 0;
  auto check = [&](const Outcome& o) {
    if (!o.result.complete()) return;
    const std::vector<FeatureVector>& rows = expected.at(o.db.get());
    std::vector<Value> entities = o.db->Entities();
    for (std::size_t r = 0; r < entities.size(); ++r) {
      for (std::size_t f = 0; f < s.features.size(); ++f) {
        int served =
            o.result.answers[f]->Selects(*o.db, entities[r]) ? 1 : -1;
        if (served != rows[r][f]) {
          ++mismatches;
          return;
        }
      }
    }
  };
  for (const Outcome& o : s.outcomes) check(o);
  if (mismatches > 0) {
    report.Fail("serve: " + std::to_string(mismatches) +
                " served matrices differ from the serial Statistic::Matrix");
  }
  // The disk tier is part of the workload: it must have stayed healthy.
  if (after.disk_io_errors + after.disk_give_ups + after.breaker_trips > 0 ||
      after.disk_writes < s.catalog.size() * s.features.size()) {
    report.Fail("serve: the disk tier faulted (" +
                std::to_string(after.disk_io_errors) + " I/O errors, " +
                std::to_string(after.breaker_trips) + " breaker trips, " +
                std::to_string(after.disk_writes) + " writes)");
  }

  // Reported but not gated (see BENCHMARK.json). On the host this was
  // built on, the guest kernel either runs the library's dispatcher on the
  // client's vCPU or on another, per process; a warm request then takes
  // 0.12 or 0.23 ms (a cross-vCPU wake-up), and about one run in four fell
  // in the first mode. The p99 and the saturation rate are set by the cold
  // requests, whose kernel work the library spreads over threads, and
  // moved by 1.3-4x between runs of the same code (see kStageGated in
  // train.cc).
  const std::size_t n = s.latency_ms.size();
  report.AddLayer("serve_p50_ms", Percentile(s.latency_ms, 5000), "ms", n);
  report.AddLayer("serve_p99_ms", Percentile(s.latency_ms, 9900), "ms", n);
  // Over all closed-loop bursts together: a single burst draws only a few
  // never-seen graphs, whose cost sets its rate.
  report.AddLayer("serve_sat_rps",
                  static_cast<double>(s.closed_completed) / s.closed_s,
                  "1/s", s.closed_total);
  if (!trace) return;

  // Layer probes (traced run only), after the measured phases.
  const std::uint64_t hits = after.cache_hits - before.cache_hits;
  const std::uint64_t misses = after.cache_misses - before.cache_misses;
  const std::uint64_t disk_hits = after.disk_hits - before.disk_hits;
  const std::uint64_t disk_misses = after.disk_misses - before.disk_misses;
  const std::size_t requests = s.open_total + s.closed_total;
  report.AddLayer("serve.lru_hit_ratio",
                  static_cast<double>(hits) /
                      static_cast<double>(std::max<std::uint64_t>(1, hits + misses)),
                  "ratio", hits + misses);
  report.AddLayer("serve.disk_hit_ratio",
                  static_cast<double>(disk_hits) /
                      static_cast<double>(
                          std::max<std::uint64_t>(1, disk_hits + disk_misses)),
                  "ratio", disk_hits + disk_misses);
  report.AddLayer("serve.features_evaluated",
                  static_cast<double>(after.features_evaluated -
                                      before.features_evaluated) /
                      static_cast<double>(requests),
                  "count/request", requests);
  report.AddLayer("serve.entity_evaluations",
                  static_cast<double>(after.entity_evaluations -
                                      before.entity_evaluations) /
                      static_cast<double>(requests),
                  "count/request", requests);
  report.AddLayer(
      "serve.queue_high_water",
      static_cast<double>(
          service.stats().of(serve::RequestPriority::kInteractive)
              .queue_high_water),
      "count", requests);
  report.AddLayer("serve.gen_late_ms", Percentile(s.late_ms, 9900), "ms", n);

  // Warm EvalService::Matrix on the most popular database.
  {
    const Database& db = *s.catalog[0];
    service.backend().Matrix(s.features, db);
    std::vector<double> ns_per_cell;
    const double cells =
        static_cast<double>(db.Entities().size() * s.features.size());
    for (int i = 0; i < 200; ++i) {
      Clock::time_point start = Clock::now();
      ScopedSpan span("serve.warm_matrix");
      service.backend().Matrix(s.features, db);
      ns_per_cell.push_back(MsSince(start) * 1e6 / cells);
    }
    report.AddLayer("serve.warm_ns_per_cell", Median(ns_per_cell), "ns",
                    ns_per_cell.size());
  }
  // DiskResultCache::Load on the phase's own directory; Store is timed
  // below with the never-seen probe databases' answers.
  serve::DiskResultCache disk(s.cache_dir);
  {
    std::vector<double> load_us;
    for (std::size_t d = 0; d < std::min<std::size_t>(8, s.catalog.size());
         ++d) {
      std::uint64_t digest = s.catalog[d]->ContentDigest();
      for (const ConjunctiveQuery& q : s.features) {
        Clock::time_point start = Clock::now();
        ScopedSpan span("serve.disk_load");
        disk.Load(digest, q.ToString());
        load_us.push_back(MsSince(start) * 1000.0);
      }
    }
    report.AddLayer("serve.disk_load_us", Median(load_us), "us",
                    load_us.size());
  }
  // Cold kernel work on never-seen databases: digest, serial Matrix, the
  // per-feature split, and the (feature, entity) probes through
  // FindHomomorphism.
  {
    std::vector<double> digest_ms, matrix_ms, top_share, store_us;
    std::uint64_t hom_calls = 0, hom_nodes = 0;
    double hom_ms = 0.0;
    Statistic statistic(s.features);
    const std::size_t probes = 4;
    for (std::size_t i = 0; i < probes; ++i) {
      std::shared_ptr<Database> db =
          WorldGraph(SubSeed(s.config.seed, 3'000'000 + i),
                     s.config.sizes.max_nodes);
      Clock::time_point start = Clock::now();
      {
        ScopedSpan span("relational.digest");
        db->ContentDigest();
      }
      digest_ms.push_back(MsSince(start));
      start = Clock::now();
      {
        ScopedSpan span("pipeline.matrix");
        statistic.Matrix(*db);
      }
      matrix_ms.push_back(MsSince(start));
      std::vector<double> per_feature;
      std::vector<std::vector<Value>> selected;
      {
        ScopedSpan replay("replay.matrix");
        for (const ConjunctiveQuery& q : s.features) {
          ScopedSpan span("cq.evaluate");
          Clock::time_point feature_start = Clock::now();
          selected.push_back(CqEvaluator(q).Evaluate(*db));
          per_feature.push_back(MsSince(feature_start));
        }
      }
      // The write-behind a cold request pays once per feature.
      for (std::size_t f = 0; f < s.features.size(); ++f) {
        std::vector<std::string> names;
        for (Value v : selected[f]) names.push_back(db->value_name(v));
        Clock::time_point store_start = Clock::now();
        ScopedSpan span("serve.disk_store");
        disk.Store(db->ContentDigest(), s.features[f].ToString(),
                   std::move(names));
        store_us.push_back(MsSince(store_start) * 1000.0);
      }
      double total = 0.0;
      for (double ms : per_feature) total += ms;
      top_share.push_back(
          *std::max_element(per_feature.begin(), per_feature.end()) / total);
      for (const ConjunctiveQuery& q : s.features) {
        auto [canonical, free] = q.CanonicalDatabase();
        for (Value e : db->Entities()) {
          Clock::time_point probe = Clock::now();
          HomResult r = FindHomomorphism(canonical, *db, {{free[0], e}});
          hom_ms += MsSince(probe);
          ++hom_calls;
          hom_nodes += r.nodes;
        }
      }
    }
    report.AddLayer("relational.digest_ms", Median(digest_ms), "ms",
                    digest_ms.size());
    report.AddLayer("serve.disk_store_us", Median(store_us), "us",
                    store_us.size());
    report.AddLayer("cq.matrix_ms", Median(matrix_ms), "ms", matrix_ms.size());
    report.AddLayer("cq.top_feature_share", Median(top_share), "ratio",
                    top_share.size());
    report.Tally("hom.replays", static_cast<double>(probes));
    report.Tally("hom.calls", static_cast<double>(hom_calls));
    report.Tally("hom.nodes", static_cast<double>(hom_nodes));
    report.Tally("hom.ms", hom_ms);
  }
}

}  // namespace perfbench
