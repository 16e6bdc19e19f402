// Self-test of the benchmark's own helpers, plus a tiny-size run of every
// workload (untraced and traced) that must finish with zero failed
// operations. Each tiny run's result line is printed after "RESULT " so
// run.py --selftest can compare its metric names with BENCHMARK.json.

#include <cmath>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "harness.h"
#include "phases.h"

namespace {

int g_failures = 0;

#define EXPECT(condition)                                              \
  do {                                                                 \
    if (!(condition)) {                                                \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, \
                   #condition);                                        \
      ++g_failures;                                                    \
    }                                                                  \
  } while (0)

using namespace perfbench;

void TestPercentileRule() {
  EXPECT(SamplesBeyond(1000, 9900) == 10);
  EXPECT(HighestPercentileBp(1000) == 9900);
  EXPECT(HighestPercentileBp(999) == 9000);
  EXPECT(HighestPercentileBp(100) == 9000);
  EXPECT(HighestPercentileBp(20) == 5000);
  EXPECT(HighestPercentileBp(19) == 0);
  EXPECT(HighestPercentileBp(10000) == 9990);
  EXPECT(HighestPercentileBp(100000) == 9999);
  std::vector<double> values;
  for (int i = 100; i >= 1; --i) values.push_back(i);
  EXPECT(Percentile(values, 9900) == 99.0);
  EXPECT(Percentile(values, 5000) == 50.0);
  EXPECT(Median(values) == 50.5);
  EXPECT(Median({3.0, 1.0, 2.0}) == 2.0);
  EXPECT(Percentile({}, 5000) == 0.0);
}

void TestNormalization() {
  EXPECT(Normalized(10.0, kNominalProbeMs) == 10.0);
  // A host running twice as slow doubles both the probe and the sample.
  EXPECT(Normalized(20.0, 2 * kNominalProbeMs) == 10.0);
  double probe = MedianProbeMs(3);
  EXPECT(probe > 0.0 && std::isfinite(probe));
}

void TestPoissonSchedule() {
  std::vector<double> a = PoissonSchedule(20000, 200.0, 7);
  std::vector<double> b = PoissonSchedule(20000, 200.0, 7);
  std::vector<double> c = PoissonSchedule(20000, 200.0, 8);
  EXPECT(a == b);
  EXPECT(a != c);
  bool increasing = true;
  for (std::size_t i = 1; i < a.size(); ++i) increasing &= a[i] > a[i - 1];
  EXPECT(increasing);
  // 20000 arrivals at 200/s take about 100 s.
  EXPECT(std::fabs(a.back() - 100.0) < 5.0);
}

void TestZipfDraw() {
  ZipfDraw zipf(60, 1.0);
  Rng r1(42), r2(42);
  std::vector<std::size_t> counts(60);
  bool same = true;
  for (int i = 0; i < 60000; ++i) {
    std::size_t x = zipf.Draw(r1);
    same &= x == zipf.Draw(r2);
    EXPECT(x < 60);
    ++counts[x];
  }
  EXPECT(same);
  EXPECT(counts[0] > counts[1] && counts[1] > counts[9]);
  // P(rank 0) = 1 / H(60) ~ 0.214.
  EXPECT(std::fabs(counts[0] / 60000.0 - 0.214) < 0.01);
}

void TestSelfTime() {
  // root [0,100) with children A [10,40) and B [30,60) (overlapping:
  // covered 50); A has a child [15,20).
  std::vector<Span> spans(4);
  spans[0] = {"root", 0, 100, -1, 1};
  spans[1] = {"a", 10, 40, 0, 1};
  spans[2] = {"a.child", 15, 20, 1, 1};
  spans[3] = {"b", 30, 60, 0, 1};
  std::vector<std::int64_t> self = SelfTimesNs(spans);
  EXPECT(self[0] == 50);
  EXPECT(self[1] == 25);
  EXPECT(self[2] == 5);
  EXPECT(self[3] == 30);
  std::map<std::string, NameTotals> totals = TotalsByName(spans);
  EXPECT(totals["a"].total_ns == 30 && totals["a"].self_ns == 25);
  // The children of "root" cover 50 of its 100 ns.
  EXPECT(Coverage(totals, "root", "root") == 0.5);
  EXPECT(Coverage(totals, "missing", "root") == 0.0);

  // Recorded through ScopedSpan: parents and request ids follow nesting.
  SpanRecorder recorder;
  SpanRecorder::set_active(&recorder);
  {
    ScopedSpan outer("outer", 9);
    { ScopedSpan inner("inner"); }
    { ScopedSpan other("other", 4); }
  }
  { ScopedSpan alone("alone"); }
  SpanRecorder::set_active(nullptr);
  { ScopedSpan ignored("ignored"); }
  std::vector<Span> recorded = recorder.Snapshot();
  EXPECT(recorded.size() == 4);
  if (recorded.size() == 4) {
    EXPECT(recorded[0].name == "outer" && recorded[0].parent == -1);
    EXPECT(recorded[1].name == "inner" && recorded[1].parent == 0 &&
           recorded[1].request == 9);
    EXPECT(recorded[2].parent == 0 && recorded[2].request == 4);
    EXPECT(recorded[3].name == "alone" && recorded[3].parent == -1);
    std::vector<std::int64_t> recorded_self = SelfTimesNs(recorded);
    EXPECT(recorded_self[0] <= recorded[0].duration_ns() -
                                   recorded[1].duration_ns() -
                                   recorded[2].duration_ns());
  }
}

void TestTinyRuns() {
  for (const Workload& w : kWorkloads) {
    const char* workload = w.name;
    for (bool trace : {false, true}) {
      RunOptions options;
      options.workload = workload;
      options.seconds = 0.5;
      options.phase.seed = 5;
      options.phase.trace = trace;
      options.phase.sizes = Sizes::Tiny();
      options.phase.work_dir = ".bench_build/perfbench-selftest";
      Report report;
      RunWorkload(options, report);
      for (const std::string& failure : report.failures()) {
        std::fprintf(stderr, "tiny %s: %s\n", workload, failure.c_str());
      }
      EXPECT(report.failed() == 0);
      EXPECT(report.attempted() > 0);
      for (const auto& [name, metric] : report.end_to_end()) {
        if (!(metric.value > 0.0)) {
          std::fprintf(stderr, "tiny %s: %s = %g\n", workload, name.c_str(),
                       metric.value);
          ++g_failures;
        }
      }
      std::cout << "RESULT " << workload << " " << (trace ? 1 : 0) << " "
                << report.ResultJson(trace) << "\n";
    }
  }
}

}  // namespace

int main() {
  TestPercentileRule();
  TestNormalization();
  TestPoissonSchedule();
  TestZipfDraw();
  TestSelfTime();
  TestTinyRuns();
  if (g_failures > 0) {
    std::fprintf(stderr, "perfbench_selftest: %d failure(s)\n", g_failures);
    return 1;
  }
  std::printf("perfbench_selftest: ok\n");
  return 0;
}
