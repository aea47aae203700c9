// Host-time spans recorded by the end-to-end benchmark around its own calls
// into each layer (assembler, kernel, dataplane, NIC, scheduler, obs). Spans
// live in memory and are written out once, at exit, as Chrome trace-event
// JSON that Perfetto loads.
//
// Per-operation bench callbacks (the tx hook's verification and HTTP work)
// run hundreds of thousands of times per round; one span each would swamp
// both memory and the trace viewer. They are recorded as *aggregate* child
// spans instead: a (count, total time) pair attached to the enclosing span
// and written into its args. Self time is a span's duration minus its child
// spans and aggregates.
#ifndef BENCH_E2E_SPANS_H_
#define BENCH_E2E_SPANS_H_

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace e2e {

inline double NowNs() {
  return static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                 std::chrono::steady_clock::now().time_since_epoch())
                                 .count());
}

// The cost one NowNs() read adds to an interval it closes: the median gap
// between back-to-back reads. Per-operation timings subtract it once per
// timed interval.
inline double TimerCostNs() {
  std::vector<double> gaps(2001);
  for (double& g : gaps) {
    const double a = NowNs();
    g = NowNs() - a;
  }
  std::nth_element(gaps.begin(), gaps.begin() + 1000, gaps.end());
  return gaps[1000];
}

struct Aggregate {
  unsigned long long count = 0;
  double ns = 0;
};

struct Span {
  std::string name;
  double start_ns = 0;
  double end_ns = 0;
  int parent = -1;  // index into the recorder's span list, -1 for a root
  int round = 0;
  std::map<std::string, Aggregate> aggregates;
  double duration_ns() const { return end_ns - start_ns; }
};

class SpanRecorder {
 public:
  // A disabled recorder keeps nothing; Begin returns -1 and End ignores it,
  // so untraced rounds pay one branch per call site.
  void set_enabled(bool on) { enabled_ = on; }
  void set_round(int round) { round_ = round; }

  int Begin(const char* name) {
    if (!enabled_) return -1;
    Span s;
    s.name = name;
    s.parent = open_.empty() ? -1 : open_.back();
    s.round = round_;
    s.start_ns = NowNs();
    spans_.push_back(std::move(s));
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  void End(int id) {
    if (id < 0) return;
    spans_[static_cast<size_t>(id)].end_ns = NowNs();
    if (!open_.empty() && open_.back() == id) open_.pop_back();
  }

  // Attributes `count` calls totalling `ns` of per-operation callback work
  // named `name` to span `id` (callers accumulate while the span runs).
  void AddAggregate(int id, const char* name, unsigned long long count, double ns) {
    if (id < 0 || count == 0) return;
    Aggregate& a = spans_[static_cast<size_t>(id)].aggregates[name];
    a.count += count;
    a.ns += ns;
  }

  const std::vector<Span>& spans() const { return spans_; }

  // Duration minus the time covered by direct child spans and aggregates.
  double SelfNs(int id) const {
    const Span& s = spans_[static_cast<size_t>(id)];
    double child = 0;
    for (const Span& c : spans_) {
      if (c.parent == id) child += c.duration_ns();
    }
    for (const auto& kv : s.aggregates) child += kv.second.ns;
    return s.duration_ns() - child;
  }

  // Chrome trace-event JSON ("X" complete events, microsecond timestamps
  // relative to the first span). `metadata_json` is a JSON object literal
  // written under "metadata" (the provenance stamp).
  bool WriteChromeTrace(const std::string& path, const std::string& metadata_json) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const double t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\",\n\"metadata\": %s,\n\"traceEvents\": [\n",
                 metadata_json.c_str());
    std::fprintf(f,
                 "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 1, "
                 "\"args\": {\"name\": \"palladium_e2e\"}}");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   ",\n{\"name\": \"%s\", \"cat\": \"bench\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"round\": %d, "
                   "\"span_id\": %zu, \"parent_id\": %d, \"self_us\": %.3f",
                   s.name.c_str(), (s.start_ns - t0) / 1e3, s.duration_ns() / 1e3, s.round, i,
                   s.parent, SelfNs(static_cast<int>(i)) / 1e3);
      for (const auto& kv : s.aggregates) {
        std::fprintf(f, ", \"%s.count\": %llu, \"%s.total_us\": %.3f", kv.first.c_str(),
                     kv.second.count, kv.first.c_str(), kv.second.ns / 1e3);
      }
      std::fprintf(f, "}}");
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_ = false;
  int round_ = 0;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace e2e

#endif  // BENCH_E2E_SPANS_H_
