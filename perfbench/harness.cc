#include "harness.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>

namespace perfbench {

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

std::uint64_t Rng::Next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t SubSeed(std::uint64_t seed, std::uint64_t tag) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + tag);
  return rng.Next();
}

std::size_t SamplesBeyond(std::size_t n, int bp) {
  // Nearest rank: the smallest r with r >= n * bp / 10000.
  std::size_t rank = (n * static_cast<std::size_t>(bp) + 9999) / 10000;
  return n - rank;
}

int HighestPercentileBp(std::size_t n) {
  for (int bp : kPercentileLadderBp) {
    if (SamplesBeyond(n, bp) >= 10) return bp;
  }
  return 0;
}

double Percentile(std::vector<double> values, int bp) {
  if (values.empty()) return 0.0;
  std::size_t rank =
      (values.size() * static_cast<std::size_t>(bp) + 9999) / 10000;
  if (rank == 0) rank = 1;
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double ProbeMs() {
  Clock::time_point start = Clock::now();
  std::uint64_t sum = 0;
  for (std::uint32_t i = 0; i < 4000; ++i) {
    // Heap blocks of 256-508 bytes, zero-filled, freed at once: the
    // allocate-touch-free pattern the library's queries and tables make.
    auto* block = new std::vector<std::uint32_t>(64 + i % 64);
    (*block)[i % block->size()] = i;
    sum += (*block)[(i * 7) % block->size()] + block->size();
    delete block;
  }
  const double ms = MsSince(start);
  // Keeps the work observable, so the compiler cannot drop it.
  static std::atomic<std::uint64_t> sink{0};
  sink.fetch_add(sum, std::memory_order_relaxed);
  return ms;
}

double Normalized(double ms, double probe_ms) {
  return ms * kNominalProbeMs / probe_ms;
}

double MedianProbeMs(int count) {
  std::vector<double> probes;
  for (int i = 0; i < count; ++i) probes.push_back(ProbeMs());
  return Median(probes);
}

std::vector<double> PoissonSchedule(std::size_t count, double rate_per_s,
                                    std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> due;
  due.reserve(count);
  double t = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    t += -std::log(1.0 - rng.Uniform()) / rate_per_s;
    due.push_back(t);
  }
  return due;
}

ZipfDraw::ZipfDraw(std::size_t n, double s) {
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
}

std::size_t ZipfDraw::Draw(Rng& rng) const {
  double u = rng.Uniform();
  auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<std::size_t>(it - cdf_.begin(), cdf_.size() - 1);
}

// ---------------------------------------------------------------------------

void Report::AddEndToEnd(const std::string& name, double value,
                         const std::string& unit, std::size_t samples) {
  std::lock_guard<std::mutex> lock(mutex_);
  e2e_[name] = Metric{value, unit, samples};
}

void Report::AddLayer(const std::string& name, double value,
                      const std::string& unit, std::size_t samples) {
  std::lock_guard<std::mutex> lock(mutex_);
  layers_[name] = Metric{value, unit, samples};
}

void Report::AddRaw(const std::string& name, double value,
                    const std::string& unit) {
  std::lock_guard<std::mutex> lock(mutex_);
  raw_[name] = Metric{value, unit, 0};
}

void Report::CountOps(std::uint64_t attempted, std::uint64_t failed) {
  std::lock_guard<std::mutex> lock(mutex_);
  attempted_ += attempted;
  failed_ += failed;
}

void Report::Fail(const std::string& message) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++failed_;
  if (failures_.size() < 20) failures_.push_back(message);
}

void Report::Tally(const std::string& name, double amount) {
  std::lock_guard<std::mutex> lock(mutex_);
  tallies_[name] += amount;
}

double Report::tally(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = tallies_.find(name);
  return it == tallies_.end() ? 0.0 : it->second;
}

std::uint64_t Report::attempted() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return attempted_;
}

std::uint64_t Report::failed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return failed_;
}

namespace {

std::string Number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace

std::string Report::Table(bool layers) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream out;
  for (const auto& [name, metric] : layers ? layers_ : e2e_) {
    char line[256];
    std::snprintf(line, sizeof(line), "%-34s %14.6g %-12s n=%zu\n",
                  name.c_str(), metric.value, metric.unit.c_str(),
                  metric.samples);
    out << line;
  }
  if (!layers) {
    for (const auto& [name, metric] : raw_) {
      out << "# unnormalised " << name << ": " << metric.value << " "
          << metric.unit << "\n";
    }
  }
  return out.str();
}

std::string Report::ResultJson(bool layers) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream out;
  out << "{\"correct\": " << (failures_.empty() ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : layers ? layers_ : e2e_) {
    out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
        << Number(metric.value) << ", \"unit\": \"" << metric.unit << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

// ---------------------------------------------------------------------------

namespace {

SpanRecorder* g_active = nullptr;
thread_local std::vector<std::pair<std::int64_t, std::uint64_t>> t_open;

}  // namespace

SpanRecorder::SpanRecorder() : epoch_(Clock::now()) {}

SpanRecorder* SpanRecorder::active() { return g_active; }

void SpanRecorder::set_active(SpanRecorder* recorder) { g_active = recorder; }

std::int64_t SpanRecorder::Open() {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_id_++;
}

void SpanRecorder::Close(std::int64_t id, Span span) {
  std::lock_guard<std::mutex> lock(mutex_);
  closed_.emplace_back(id, std::move(span));
}

std::int64_t SpanRecorder::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

std::vector<Span> SpanRecorder::Snapshot() const {
  std::vector<std::pair<std::int64_t, Span>> closed;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closed = closed_;
  }
  std::sort(closed.begin(), closed.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  // Re-index parents from ids to positions (ids of spans still open are
  // dropped, so positions and ids can differ).
  std::map<std::int64_t, std::int64_t> position;
  for (std::size_t i = 0; i < closed.size(); ++i) {
    position[closed[i].first] = static_cast<std::int64_t>(i);
  }
  std::vector<Span> spans;
  spans.reserve(closed.size());
  for (auto& [id, span] : closed) {
    auto it = position.find(span.parent);
    span.parent = it == position.end() ? -1 : it->second;
    spans.push_back(std::move(span));
  }
  return spans;
}

bool SpanRecorder::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::vector<Span> spans = Snapshot();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << "{\"id\": " << i << ", \"name\": \"" << s.name
        << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << ", \"parent\": " << s.parent << ", \"request\": " << s.request
        << "}\n";
  }
  return static_cast<bool>(out);
}

ScopedSpan::ScopedSpan(const char* name, std::uint64_t request)
    : recorder_(SpanRecorder::active()) {
  if (recorder_ == nullptr) return;
  id_ = recorder_->Open();
  span_.name = name;
  if (!t_open.empty()) {
    span_.parent = t_open.back().first;
    if (request == 0) request = t_open.back().second;
  }
  span_.request = request;
  t_open.emplace_back(id_, request);
  span_.start_ns = recorder_->NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (recorder_ == nullptr) return;
  span_.end_ns = recorder_->NowNs();
  t_open.pop_back();
  recorder_->Close(id_, std::move(span_));
}

std::vector<std::int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                                s.end_ns);
    }
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent's.
    std::int64_t covered = 0;
    std::int64_t cursor = spans[i].start_ns;
    for (auto [start, end] : kids) {
      start = std::max(start, cursor);
      end = std::min(end, spans[i].end_ns);
      if (end > start) {
        covered += end - start;
        cursor = end;
      }
    }
    self[i] = spans[i].duration_ns() - covered;
  }
  return self;
}

std::map<std::string, NameTotals> TotalsByName(const std::vector<Span>& spans) {
  std::vector<std::int64_t> self = SelfTimesNs(spans);
  std::map<std::string, NameTotals> totals;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    NameTotals& t = totals[spans[i].name];
    ++t.count;
    t.total_ns += spans[i].duration_ns();
    t.self_ns += self[i];
  }
  return totals;
}

double Coverage(const std::map<std::string, NameTotals>& totals,
                const std::string& pipeline, const std::string& replay) {
  auto whole = totals.find(pipeline);
  auto parts = totals.find(replay);
  if (whole == totals.end() || parts == totals.end() ||
      whole->second.total_ns <= 0) {
    return 0.0;
  }
  return static_cast<double>(parts->second.total_ns - parts->second.self_ns) /
         static_cast<double>(whole->second.total_ns);
}

double MeasureSpanCostNs(std::size_t iterations) {
  SpanRecorder* previous = SpanRecorder::active();
  SpanRecorder scratch;
  SpanRecorder::set_active(&scratch);
  Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < iterations; ++i) {
    ScopedSpan span("trace.probe");
  }
  double ns = std::chrono::duration<double, std::nano>(Clock::now() - start)
                  .count();
  SpanRecorder::set_active(previous);
  return ns / static_cast<double>(iterations);
}

}  // namespace perfbench
