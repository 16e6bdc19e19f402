#ifndef FEATSEP_PERFBENCH_HARNESS_H_
#define FEATSEP_PERFBENCH_HARNESS_H_

// Helpers shared by the featsep end-to-end benchmark: its own seeded
// randomness (so a library change can never alter the generated inputs),
// the percentile rule, the open-loop arrival schedule, the popularity draw,
// the result report, and the span recorder used by the traced run.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Milliseconds elapsed since `start`.
double MsSince(Clock::time_point start);

/// splitmix64: the benchmark's only source of randomness.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next();
  /// Uniform in [0, n); n must be positive.
  std::size_t Below(std::size_t n) { return Next() % n; }
  /// Uniform in [0, 1).
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

/// Derives an independent stream seed from a run seed and a stream tag.
std::uint64_t SubSeed(std::uint64_t seed, std::uint64_t tag);

// ---------------------------------------------------------------------------
// Percentiles.

/// Percentiles the benchmark may report, highest first, in basis points.
inline constexpr int kPercentileLadderBp[] = {9999, 9990, 9900, 9000, 5000};

/// Samples strictly above the nearest-rank `bp`-th percentile of `n`.
std::size_t SamplesBeyond(std::size_t n, int bp);

/// The percentile rule: the highest ladder percentile (in basis points)
/// with at least ten samples beyond it; 0 when not even the median has.
int HighestPercentileBp(std::size_t n);

/// Nearest-rank percentile of `values` (need not be sorted); `bp` in basis
/// points. Empty input yields 0.
double Percentile(std::vector<double> values, int bp);

/// Conventional median (mean of the middle pair for even sizes).
double Median(std::vector<double> values);

// ---------------------------------------------------------------------------
// Host-speed normalisation.
//
// On the shared 4-vCPU host this benchmark was built on, the same code runs
// up to 1.7x slower for seconds to minutes at a time, and whole runs can
// fall in a slow period. Thread CPU time rises as much as wall time, so the
// thread is not descheduled: each instruction is slower. A median moves with
// the share of slow time a run hits. The gated times are therefore
// normalised: each sample is divided by the time of a fixed, benchmark-owned
// computation measured right before it, and scaled to a fixed nominal probe
// time. Of the probes tried there (sorting, scattered fills, DRAM-latency
// and bandwidth loops, std::map/unordered_map/string work, small heap
// allocations), small heap allocations followed the library's slow periods
// most closely: over 25-second windows, DecideCqmSep moved 1.75x while this
// probe moved 1.72x (correlation 0.97), DecideGhwSep 2.2x (0.87).

/// Wall time, in ms, of the benchmark's fixed probe: 4000 allocations of
/// 256-508 byte blocks, each touched and freed. It calls no featsep code.
/// It does go through the process's allocator, so a change that replaces
/// the global allocator moves the probe too; judge such a change by the
/// unnormalised figures every run prints.
double ProbeMs();

/// The probe time every normalised metric is scaled to: about the probe's
/// time on that host when it runs fast.
inline constexpr double kNominalProbeMs = 0.2;

/// `ms` scaled to the nominal probe time: ms * kNominalProbeMs / probe_ms.
double Normalized(double ms, double probe_ms);

/// Median of `count` probes, for a phase that cannot probe before every
/// sample (the serve bursts, the set-ups).
double MedianProbeMs(int count);

// ---------------------------------------------------------------------------
// Load generation.

/// Due times, in seconds from the start of the loop, of `count` Poisson
/// arrivals at `rate_per_s`. Deterministic in `seed`.
std::vector<double> PoissonSchedule(std::size_t count, double rate_per_s,
                                    std::uint64_t seed);

/// Draws ranks in [0, n) with P(rank) proportional to 1 / (rank + 1)^s.
class ZipfDraw {
 public:
  ZipfDraw(std::size_t n, double s);
  std::size_t Draw(Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

// ---------------------------------------------------------------------------
// Results.

/// One reported metric with the number of samples behind it.
struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

/// Everything a run prints: metrics, operation counts and answer checks.
/// Thread-safe, except the end_to_end() view.
class Report {
 public:
  void AddEndToEnd(const std::string& name, double value,
                   const std::string& unit, std::size_t samples);
  void AddLayer(const std::string& name, double value,
                const std::string& unit, std::size_t samples);

  /// Records the unnormalised value behind a normalised end-to-end metric
  /// (see Normalized); the table prints it, the result line does not.
  void AddRaw(const std::string& name, double value, const std::string& unit);

  /// Counts operations attempted and failed (a failed answer check, or a
  /// request that was rejected or expired).
  void CountOps(std::uint64_t attempted, std::uint64_t failed);
  /// Records a failed answer check: counts one failed operation and keeps
  /// the message (the first few are printed).
  void Fail(const std::string& message);

  /// Sums a named quantity across phases (combined into layer metrics at
  /// the end of a traced run).
  void Tally(const std::string& name, double amount);
  double tally(const std::string& name) const;

  std::uint64_t attempted() const;
  std::uint64_t failed() const;
  /// Read once the run is over (not synchronized).
  const std::map<std::string, Metric>& end_to_end() const { return e2e_; }
  const std::vector<std::string>& failures() const { return failures_; }

  /// Human-readable metric table (name, value, unit, samples).
  std::string Table(bool layers) const;
  /// The single result line: {"correct", "attempted", "failed", "metrics"}.
  std::string ResultJson(bool layers) const;

 private:
  mutable std::mutex mutex_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
  std::map<std::string, Metric> e2e_;
  std::map<std::string, Metric> layers_;
  std::map<std::string, Metric> raw_;
  std::map<std::string, double> tallies_;
};

// ---------------------------------------------------------------------------
// Tracing.

/// One recorded span: [start_ns, end_ns) relative to the recorder's epoch.
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  /// Index of the enclosing span on the same thread; -1 for a root.
  std::int64_t parent = -1;
  /// Spans of one request (a training job, a served request, an update
  /// step) share this id; inherited from the parent when not given.
  std::uint64_t request = 0;

  std::int64_t duration_ns() const { return end_ns - start_ns; }
};

/// In-memory span store, safe to record into from several threads. Ids are
/// assigned when a span opens; spans are stored when they close.
class SpanRecorder {
 public:
  SpanRecorder();

  /// The recorder ScopedSpan writes to; nullptr (the default) disables
  /// tracing, making every ScopedSpan a no-op.
  static SpanRecorder* active();
  static void set_active(SpanRecorder* recorder);

  std::int64_t Open();
  void Close(std::int64_t id, Span span);
  std::int64_t NowNs() const;

  /// Closed spans sorted by id (open order), parents as indexes into the
  /// result.
  std::vector<Span> Snapshot() const;

  /// Writes one JSON object per span per line.
  bool WriteJsonLines(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::int64_t next_id_ = 0;
  std::vector<std::pair<std::int64_t, Span>> closed_;
};

/// RAII span on the active recorder; no-op when tracing is off.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, std::uint64_t request = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  std::int64_t id_ = -1;
  Span span_;
};

/// Self time of every span (indexed like `spans`, which must be sorted by
/// id with parents referring to indexes): its duration minus the part of
/// its interval covered by its children.
std::vector<std::int64_t> SelfTimesNs(const std::vector<Span>& spans);

/// Per span name: count, total duration and total self time.
struct NameTotals {
  std::size_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
};
std::map<std::string, NameTotals> TotalsByName(const std::vector<Span>& spans);

/// Pipeline coverage: the time the public parts recorded under spans named
/// `replay` cover (their duration minus self time), as a share of the total
/// duration of the monolithic spans named `pipeline`. 0 when absent.
double Coverage(const std::map<std::string, NameTotals>& totals,
                const std::string& pipeline, const std::string& replay);

/// Mean cost of one open/close pair on a private recorder, in ns.
double MeasureSpanCostNs(std::size_t iterations);

}  // namespace perfbench

#endif  // FEATSEP_PERFBENCH_HARNESS_H_
