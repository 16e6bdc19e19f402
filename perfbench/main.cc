// featsep end-to-end benchmark.
//
//   featsep_perfbench --workload <spill|fit> --seed <n>
//                     --seconds <s> --trace <0|1>
//                     [--commit <id>] [--work-dir <dir>] [--trace-out <file>]
//
// Prints a header ("# key: value" lines), a metric table, and as the last
// line of stdout one JSON object: {"correct", "attempted", "failed",
// "metrics"}. With --trace 0 the metrics are the end-to-end ones; with
// --trace 1 the per-layer ones, the pipeline coverage and the tracing
// overhead. perfbench/run.py builds this binary and forwards its arguments.

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "phases.h"

namespace {

std::string ReadLoadAvg() {
  std::FILE* f = std::fopen("/proc/loadavg", "r");
  if (f == nullptr) return "unavailable";
  char buffer[128];
  std::size_t n = std::fread(buffer, 1, sizeof(buffer) - 1, f);
  std::fclose(f);
  buffer[n] = '\0';
  std::string line(buffer);
  std::size_t end = line.find_last_not_of(" \n");
  return end == std::string::npos ? line : line.substr(0, end + 1);
}

/// Median time from std::thread construction to the new thread running,
/// in microseconds. The library starts threads per parallel call, so runs
/// on a host where this is high show slow parallel stages; the header
/// records it to explain such runs.
double ThreadStartUs() {
  std::vector<double> us;
  for (int i = 0; i < 101; ++i) {
    perfbench::Clock::time_point start = perfbench::Clock::now();
    double started = 0.0;
    std::thread t([&] { started = perfbench::MsSince(start) * 1000.0; });
    t.join();
    us.push_back(started);
  }
  return perfbench::Median(us);
}

int Usage(const std::string& problem) {
  std::cerr << "featsep_perfbench: " << problem
            << "\nusage: featsep_perfbench --workload <spill|fit> "
               "--seed <n> --seconds <s> --trace <0|1> [--commit <id>] "
               "[--work-dir <dir>] [--trace-out <file>]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  std::string commit = "unknown";
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) return Usage("missing value for " + flag);
    std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        options.phase.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
        have_seconds = options.seconds > 0;
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
        options.phase.trace = value == "1";
      } else if (flag == "--commit") {
        commit = value;
      } else if (flag == "--work-dir") {
        options.phase.work_dir = value;
      } else if (flag == "--trace-out") {
        options.trace_out = value;
      } else {
        return Usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      return Usage("bad value for " + flag + ": " + value);
    }
  }
  bool known = false;
  for (const perfbench::Workload& w : perfbench::kWorkloads) {
    known |= options.workload == w.name;
  }
  if (!have_workload || !known) return Usage("unknown or missing --workload");
  if (!have_seed || !have_seconds) return Usage("--seed and --seconds > 0 are required");

#ifndef NDEBUG
  std::cerr << "featsep_perfbench: the library was compiled without NDEBUG "
               "(not a Release build); refusing to report its numbers.\n";
  return 3;
#endif

  std::cout << "# workload: " << options.workload << "\n"
            << "# seed: " << options.phase.seed << "\n"
            << "# seconds: " << options.seconds << "\n"
            << "# trace: " << (options.phase.trace ? 1 : 0) << "\n"
            << "# nproc: " << perfbench::HardwareThreads() << "\n"
            << "# featsep_build_type: release\n"
#ifdef FEATSEP_NATIVE
            << "# featsep_native: true\n"
#else
            << "# featsep_native: false\n"
#endif
            << "# load_avg_at_start: " << ReadLoadAvg() << "\n"
            << "# thread_start_us: " << ThreadStartUs() << "\n"
            << "# probe_ms: " << perfbench::MedianProbeMs(21) << "\n"
            << "# commit: " << commit << "\n";
  std::cout.flush();

  perfbench::Report report;
  std::string summary = perfbench::RunWorkload(options, report);
  std::cout << summary;
  std::cout << report.Table(options.phase.trace);
  if (!options.phase.trace) {
    // Measured in every run but not gated (see BENCHMARK.json per_layer).
    std::cout << "# measured, not gated:\n" << report.Table(true);
  }
  std::cout << "# attempted: " << report.attempted()
            << " failed: " << report.failed() << "\n";
  for (const std::string& failure : report.failures()) {
    std::cerr << "CHECK FAILED: " << failure << "\n";
  }
  std::cout << report.ResultJson(options.phase.trace) << std::endl;
  return 0;
}
