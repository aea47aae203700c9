// palladium_e2e: one workload of the end-to-end benchmark in one process.
//
//   palladium_e2e --workload W [--seed S] [--rounds R | --seconds T]
//                 [--trace FILE] [--json FILE] [--scale F]
//
// The process generates the workload's inputs from the seed, runs one
// warmup round and then measured rounds, each on a freshly built machine
// (set-up and run phase timed separately in host time), and verifies every
// round's outputs. Simulated results must be identical in every round.
//
// Untraced (default): reports the end-to-end metrics: set-up time as the
// median over the measured rounds, run-phase throughput from the fastest
// time of each stretch of kCheckpointOps ops over the rounds (see MinPath),
// simulated latency and cycles per op pooled over the warmup round and one
// round on each of two more traffic sets drawn from the seed, and the
// simulated capacity found by bisection.
// --trace FILE: alternates untraced and traced rounds; traced rounds attach
// obs::CycleProfile and record spans around the benchmark's calls into each
// layer. Reports the per-layer metrics and writes the spans to FILE as
// Chrome trace-event JSON. The traced rounds' simulated results must equal
// the untraced ones (observation is free in simulated time).
//
// Exit status: 0 when every check passed, 1 on any failed check, 2 on a
// usage error.
#include <sys/resource.h>
#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "spans.h"
#include "workloads.h"

#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif

namespace e2e {
namespace {

// Every runtime switch the library reads from the environment.
constexpr const char* kEnvKnobs[] = {
    "PALLADIUM_NO_DTLB", "PALLADIUM_NO_BLOCKS",    "PALLADIUM_NO_TRACE",   "PALLADIUM_NO_NAPI",
    "PALLADIUM_SMP",     "PALLADIUM_HOST_THREADS", "PALLADIUM_EPOCH_CYCLES"};

using palladium::CyclesToUs;
using palladium::kCpuMhz;

constexpr double kLatencyLimitUs = 500.0;  // capacity criterion at p99.9
constexpr int kCapacitySteps = 7;
// Traffic sets whose rounds the simulated latency and cycle metrics pool.
constexpr u32 kTrafficSets = 3;
// The benchmark's own work in the tx hook must stay this small a share of
// the run phase, or it distorts host_ops_per_s.
constexpr double kHookShareLimit = 0.05;

struct Args {
  std::string workload;
  u64 seed = 1;
  int rounds = 0;
  double seconds = 0;
  std::string trace;
  std::string json;
  double scale = 1.0;
};

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr,
               "%s\nusage: palladium_e2e --workload W [--seed S] [--rounds R | --seconds T] "
               "[--trace FILE] [--json FILE] [--scale F]\nworkloads:",
               msg);
  for (Workload w : AllWorkloads()) std::fprintf(stderr, " %s", WorkloadName(w));
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
    } else if (flag == "--rounds") {
      a.rounds = static_cast<int>(std::strtol(v, &end, 10));
      if (a.rounds < 1) Usage("--rounds must be at least 1");
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, &end);
      if (!(a.seconds > 0)) Usage("--seconds must be positive");
    } else if (flag == "--trace") {
      a.trace = v;
    } else if (flag == "--json") {
      a.json = v;
    } else if (flag == "--scale") {
      a.scale = std::strtod(v, &end);
      if (!(a.scale > 0) || a.scale > 10) Usage("--scale must be in (0, 10]");
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') Usage(("malformed value for " + flag).c_str());
  }
  if (a.workload.empty()) Usage("--workload is required");
  if (a.rounds == 0 && a.seconds == 0) a.rounds = 7;
  return a;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string ProvenanceJson() {
  std::string out = "{\"build_type\": \"" + JsonEscape(E2E_BUILD_TYPE) + "\", \"compiler\": \"" +
#if defined(__clang__)
                    "clang " +
#elif defined(__GNUC__)
                    "gcc " +
#endif
                    JsonEscape(__VERSION__) + "\", \"nproc\": " +
                    std::to_string(std::thread::hardware_concurrency()) + ", \"env\": {";
  bool first = true;
  for (const char* knob : kEnvKnobs) {
    const char* v = std::getenv(knob);
    out += std::string(first ? "" : ", ") + "\"" + knob + "\": " +
           (v != nullptr ? "\"" + JsonEscape(v) + "\"" : std::string("null"));
    first = false;
  }
  return out + "}}";
}

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
  std::vector<double> samples;  // per round, when the value summarizes rounds
  std::string note;
};

class Report {
 public:
  void Add(const std::string& name, const std::string& unit, double value,
           const std::string& note = "") {
    metrics_.push_back({name, unit, value, {}, note});
  }
  void AddMedian(const std::string& name, const std::string& unit, std::vector<double> samples) {
    const double median = Median(samples);
    AddSampled(name, unit, median, std::move(samples));
  }
  void AddSampled(const std::string& name, const std::string& unit, double value,
                  std::vector<double> samples) {
    metrics_.push_back({name, unit, value, std::move(samples), ""});
  }
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

u64 Counter(const std::map<std::string, u64>& c, const std::string& key) {
  auto it = c.find(key);
  return it == c.end() ? 0 : it->second;
}

// Sums "cpu<N>.<suffix>" over every vCPU.
u64 CpuSum(const std::map<std::string, u64>& c, const std::string& suffix) {
  u64 sum = 0;
  for (const auto& [k, v] : c) {
    if (k.compare(0, 3, "cpu") != 0) continue;
    const size_t dot = k.find('.');
    if (dot != std::string::npos && k.compare(dot + 1, std::string::npos, suffix) == 0) sum += v;
  }
  return sum;
}

double Ratio(double a, double b) { return b != 0 ? a / b : 0; }

// The busy cycles of a profiled round are the profiler's six busy buckets,
// which with the idle bucket must sum exactly to the profiled span of every
// vCPU.
constexpr const char* kBusyBuckets[] = {"user", "kernel", "filter_body", "crossing", "irq",
                                        "tlb_miss"};

u64 BusyCycles(const RoundResult& r) {
  u64 busy = 0;
  for (const char* b : kBusyBuckets) busy += Counter(r.profile, std::string("obs.profile.") + b);
  return busy;
}

// The shortest time a phase takes on this host: the time between each pair
// of consecutive checkpoints at its fastest over the rounds, summed. Every
// round repeats the same work checkpoint by checkpoint, so other load on the
// host (another tenant on the same core, cache or memory bus) only ever
// lengthens a segment. The per-segment minimum leaves that load out, where a
// median over whole rounds keeps whatever share of each round it hit.
class MinPath {
 public:
  // Folds in one round's checkpoints (ns since the phase began); false when
  // they do not line up with the rounds before.
  bool Add(const std::vector<double>& marks) {
    if (best_.empty()) best_.assign(marks.size(), INFINITY);
    if (marks.size() != best_.size()) return false;
    for (size_t j = 0; j < marks.size(); ++j) {
      best_[j] = std::min(best_[j], marks[j] - (j > 0 ? marks[j - 1] : 0));
    }
    return true;
  }
  double TotalNs() const {
    double sum = 0;
    for (double b : best_) sum += b;
    return sum;
  }

 private:
  std::vector<double> best_;
};

// Deterministic bisection for the highest offered rate whose p99.9 latency
// stays within the limit, where every failed op (lost, dropped, wrong)
// counts as missing the limit: up to 0.1% of a probe may fail. Each probe
// runs the workload's whole traffic with its gaps rescaled to the probe rate.
double FindCapacity(const Inputs& in, const CapacityRange& range, std::string* log) {
  double lo = range.lo, hi = range.hi;
  for (int step = 0; step < kCapacitySteps; ++step) {
    const double mid = (lo + hi) / 2;
    RoundOptions o;
    o.rate = mid;
    const RoundResult r = RunRound(in, o);
    const size_t served = r.latencies.size();
    const size_t rank = static_cast<size_t>(
        std::ceil(0.999 * static_cast<double>(served + r.failed)));
    const double p999 =
        rank >= 1 && rank <= served ? CyclesToUs(r.latencies[rank - 1]) : INFINITY;
    const bool pass = p999 <= kLatencyLimitUs;
    char buf[160];
    std::snprintf(buf, sizeof(buf), "  probe %.0f ops/s: %llu failed, p99.9 %.1f us -> %s\n", mid,
                  static_cast<unsigned long long>(r.failed), p999, pass ? "pass" : "fail");
    *log += buf;
    (pass ? lo : hi) = mid;
  }
  return lo;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  using namespace e2e;
#ifdef __GLIBC__
  // Pin glibc's mmap threshold at its default. Left dynamic, it rises the
  // first time a large block is freed, at a moment that depends on host
  // timing, and peak RSS then differs by ~2 MB from run to run.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
#endif
  const Args args = ParseArgs(argc, argv);
  const std::optional<Workload> workload = ParseWorkload(args.workload);
  if (!workload) Usage(("unknown workload " + args.workload).c_str());
  const bool traced_mode = !args.trace.empty();

  const Inputs in = GenerateInputs(*workload, args.seed, args.scale);
  std::vector<std::string> diagnostics;

  std::string capacity_log;
  double capacity = 0;
  const std::optional<CapacityRange> range = CapacitySearchRange(*workload);
  if (!traced_mode && range) capacity = FindCapacity(in, *range, &capacity_log);

  SpanRecorder spans;
  std::vector<RoundResult> untraced, traced;
  u64 attempted = 0, failed = 0;
  auto account = [&](RoundResult r, std::vector<RoundResult>* into) {
    attempted += r.attempted;
    failed += r.failed;
    for (const std::string& d : r.diagnostics) diagnostics.push_back(d);
    // Latencies are read from the profiled rounds only, and checkpoints are
    // folded into the MinPath as rounds end. Keeping every round's (8 bytes
    // per op, per kCheckpointOps ops) would make peak RSS grow with the
    // number of rounds that fit in --seconds, that is, with the host's speed.
    r.latencies = std::vector<u64>();  // `= {}` would keep the capacity
    r.run_marks_ns = std::vector<double>();
    if (into != nullptr) into->push_back(std::move(r));
  };

  // The warmup round carries the cycle profiler: its ledger defines the busy
  // cycles, and every unprofiled round after it must reproduce its simulated
  // counters exactly.
  RoundOptions profiled;
  profiled.profile = true;
  const RoundResult warmup = RunRound(in, profiled);
  const std::map<std::string, u64> reference = warmup.counters;
  account(warmup, nullptr);
  // The simulated latency and cycle metrics pool the warmup round with one
  // profiled round on each further traffic set: three times the samples
  // narrow how far a tail percentile moves from one seed to the next.
  std::vector<u64> pooled_latencies = warmup.latencies;
  std::vector<RoundResult> other_sets;
  for (u32 set = 1; !traced_mode && set < kTrafficSets; ++set) {
    RoundResult r =
        RunRound(GenerateInputs(*workload, TrafficSeed(args.seed, set), args.scale), profiled);
    pooled_latencies.insert(pooled_latencies.end(), r.latencies.begin(), r.latencies.end());
    account(std::move(r), &other_sets);
  }
  std::sort(pooled_latencies.begin(), pooled_latencies.end());
  MinPath run_path;
  bool paths_ok = true;
  const double measure_start = NowNs();
  for (int k = 0;; ++k) {
    const bool time_left = args.seconds > 0 && (NowNs() - measure_start) / 1e9 < args.seconds;
    const int min_rounds = traced_mode ? 2 : 3;
    if (args.rounds > 0 ? k >= args.rounds : (!time_left && k >= min_rounds) || k >= 1000) break;
    RoundResult r = RunRound(in, RoundOptions{});
    paths_ok = run_path.Add(r.run_marks_ns) && paths_ok;
    account(std::move(r), &untraced);
    if (traced_mode) {
      spans.set_enabled(true);
      spans.set_round(k);
      RoundOptions o;
      o.traced = true;
      o.spans = &spans;
      account(RunRound(in, o), &traced);
      spans.set_enabled(false);
    }
  }

  // --- Self-checks -------------------------------------------------------------
  bool sim_identical = true;
  auto check_same = [&](const std::vector<RoundResult>& rounds, const char* kind) {
    for (size_t i = 0; i < rounds.size(); ++i) {
      if (rounds[i].counters == reference) continue;
      sim_identical = false;
      std::string what = "has extra simulated counters";
      for (const auto& [k, v] : reference) {
        const u64 got = Counter(rounds[i].counters, k);
        if (got != v) {
          what = "differs in simulated counter " + k + ": " + std::to_string(got) + " vs " +
                 std::to_string(v);
          break;
        }
      }
      diagnostics.push_back(std::string(kind) + " round " + std::to_string(i) + " " + what);
    }
  };
  check_same(untraced, "untraced");
  check_same(traced, "traced");
  // Every profiled round's buckets must sum to the profiler's total, and
  // its busy cycles must repeat on every round of the same traffic.
  const u64 busy_cycles = BusyCycles(warmup);
  bool profile_ok = true;
  auto check_profile = [&](const RoundResult& r, bool same_traffic) {
    const u64 busy = BusyCycles(r);
    const u64 all = busy + Counter(r.profile, "obs.profile.idle");
    if (profile_ok && (all != r.profile_total || (same_traffic && busy != busy_cycles))) {
      profile_ok = false;
      diagnostics.push_back("profile buckets sum to " + std::to_string(all) + " (busy " +
                            std::to_string(busy) + "), profiler total " +
                            std::to_string(r.profile_total) + ", reference busy " +
                            std::to_string(busy_cycles));
    }
  };
  check_profile(warmup, true);
  for (const RoundResult& r : traced) check_profile(r, true);
  for (const RoundResult& r : other_sets) check_profile(r, false);
  if (!paths_ok) diagnostics.push_back("host-time checkpoints differ between rounds");
  bool correct = failed == 0 && sim_identical && profile_ok && paths_ok && !untraced.empty();
  // obs::BusyCycles (vCPUs x wall - scheduler idle) also counts a vCPU's
  // clock skips to a wakee's stamp and its tail after its last process
  // exited as busy; at N>1 it exceeds the profiler's ledger. Reported, not
  // gated: the gap is a library accounting finding, not a benchmark failure.
  std::vector<std::string> notes;
  const u64 obs_busy = Counter(warmup.counters, "bench.obs_busy_cycles");
  if (obs_busy != busy_cycles) {
    notes.push_back("obs::BusyCycles " + std::to_string(obs_busy) + " vs profiled busy " +
                    std::to_string(busy_cycles) + " (" +
                    Num(100.0 * (static_cast<double>(obs_busy) / busy_cycles - 1)) + "% over)");
  }

  // --- Metrics -----------------------------------------------------------------
  const std::map<std::string, u64>& c = reference;
  const double ops = static_cast<double>(warmup.attempted - warmup.failed);
  const double busy = static_cast<double>(busy_cycles);
  Report report;
  if (!traced_mode) {
    std::vector<double> setup_s, ops_per_s;
    for (const RoundResult& r : untraced) {
      setup_s.push_back(r.setup_ns / 1e9);
      ops_per_s.push_back(ops / (r.run_ns / 1e9));
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    report.AddMedian("setup_s", "s", setup_s);
    report.AddSampled("host_ops_per_s", "ops/s", Ratio(ops, run_path.TotalNs() / 1e9), ops_per_s);
    report.Add("host_rss_mb", "MB", static_cast<double>(ru.ru_maxrss) / 1024.0);
    double pooled_busy = busy, pooled_ops = ops;
    for (const RoundResult& r : other_sets) {
      pooled_busy += static_cast<double>(BusyCycles(r));
      pooled_ops += static_cast<double>(r.attempted - r.failed);
    }
    const std::string sets = " over " + std::to_string(1 + other_sets.size()) + " traffic sets";
    report.Add("sim_cycles_per_op", "cycles", Ratio(pooled_busy, pooled_ops), sets);
    const u64 samples = pooled_latencies.size();
    const u64 beyond =
        samples - static_cast<u64>(std::ceil(0.999 * static_cast<double>(samples)));
    report.Add("sim_lat_p50_us", "us", CyclesToUs(Percentile(pooled_latencies, 0.5)),
               std::to_string(samples) + " samples" + sets);
    report.Add("sim_lat_p999_us", "us", CyclesToUs(Percentile(pooled_latencies, 0.999)),
               std::to_string(samples) + " samples, " + std::to_string(beyond) + " beyond" + sets);
    if (range) {
      report.Add("sim_capacity_rps", "ops/s", capacity,
                 "bisection over " + Num(range->lo) + ".." + Num(range->hi));
    } else {
      // A closed loop has no offered rate to search, but run.py requires
      // every end-to-end metric of BENCHMARK.json from every workload: report
      // the rate it sustains (1 / sim_cycles_per_op), labelled as such.
      report.Add("sim_capacity_rps", "ops/s", Ratio(kCpuMhz * 1e6 * pooled_ops, pooled_busy),
                 "closed loop: 1 / sim_cycles_per_op");
    }
  } else {
    const double insns = static_cast<double>(CpuSum(c, "instructions_retired"));
    const double kops = ops / 1000.0;
    std::vector<double> mips, asm_s, load_s, flow_s, inject_s, ns_per_kcycle, hook_share,
        http_ns, upgrade_ms, traced_run, untraced_run;
    for (const RoundResult& r : untraced) untraced_run.push_back(r.run_ns);
    // Per-op hook timings each include one timer read; take it back out.
    const double timer_ns = TimerCostNs();
    auto net_ns = [timer_ns](double ns, u64 intervals) {
      return std::max(0.0, ns - timer_ns * static_cast<double>(intervals));
    };
    // Spans are grouped by round; each traced round contributes one sample.
    std::map<int, std::map<std::string, double>> by_round;
    std::map<int, double> run_self;
    for (size_t i = 0; i < spans.spans().size(); ++i) {
      const Span& s = spans.spans()[i];
      by_round[s.round][s.name] += s.duration_ns();
      if (s.name == "Scheduler::RunAll" || s.name == "Kernel::RunProcess") {
        run_self[s.round] = spans.SelfNs(static_cast<int>(i));
      }
    }
    for (size_t k = 0; k < traced.size(); ++k) {
      const RoundResult& r = traced[k];
      auto& sp = by_round[static_cast<int>(k)];
      traced_run.push_back(r.run_ns);
      mips.push_back(insns / (r.run_ns / 1e9) / 1e6);
      asm_s.push_back(sp["AssembleAndLink"] / 1e9);
      load_s.push_back((sp["Machine+Kernel"] + sp["CreateProcess+LoadUserImage"]) / 1e9);
      flow_s.push_back(sp["PacketDataplane+AddFlow"] / 1e9);
      inject_s.push_back(sp["Nic::Inject"] / 1e9);
      ns_per_kcycle.push_back(Ratio(run_self[static_cast<int>(k)], busy / 1000.0));
      hook_share.push_back(Ratio(net_ns(r.verify_ns, r.verify_calls), r.run_ns));
      http_ns.push_back(
          Ratio(net_ns(r.http_ns, r.http_requests), static_cast<double>(r.http_requests)));
      for (double u : r.upgrade_ns) upgrade_ms.push_back(u / 1e6);
    }
    const std::map<std::string, u64>& p = warmup.profile;
    report.AddMedian("cpu.host_mips", "MIPS", mips);
    report.Add("cpu.trace_insns_per_entry", "insns",
               Ratio(CpuSum(c, "trace.uop_insns"), CpuSum(c, "trace.entries")));
    report.Add("cpu.trace_coverage", "ratio", Ratio(CpuSum(c, "trace.uop_insns"), insns));
    report.Add("cpu.block_chain_ratio", "ratio",
               Ratio(CpuSum(c, "block.chains"), CpuSum(c, "block.entries")));
    report.Add("cpu.insns_per_op", "insns", Ratio(insns, ops));
    report.Add("isa.decode_builds_per_kop", "count", Ratio(CpuSum(c, "decode.builds"), kops));
    report.Add("tlb.miss_ratio", "ratio",
               Ratio(CpuSum(c, "tlb.misses"), CpuSum(c, "tlb.misses") + CpuSum(c, "tlb.hits")));
    report.Add("dtlb.miss_ratio", "ratio",
               Ratio(CpuSum(c, "dtlb.misses"), CpuSum(c, "dtlb.misses") + CpuSum(c, "dtlb.hits")));
    report.Add("nic.rx_irqs_per_kop", "count", Ratio(Counter(c, "dataplane.nic_irqs"), kops));
    report.Add("nic.bytes_per_op", "B",
               Ratio(Counter(c, "nic.rx_bytes") + Counter(c, "nic.tx_bytes"), ops));
    report.Add("nic.rx_drops", "count", Counter(c, "nic.rx_dropped"));
    report.Add("smp.shootdown_ipis_per_kop", "count",
               Ratio(Counter(c, "kernel.smp.shootdown_ipis"), kops));
    report.Add("smp.ipis_received_per_kop", "count",
               Ratio(Counter(c, "kernel.smp.ipis_received"), kops));
    report.Add("sched.ctx_switches_per_op", "count",
               Ratio(Counter(c, "sched.context_switches"), ops));
    report.Add("sched.preemptions_per_kop", "count", Ratio(Counter(c, "sched.preemptions"), kops));
    report.Add("sched.steals_per_kop", "count", Ratio(Counter(c, "sched.steals"), kops));
    report.Add("sched.idle_ratio", "ratio",
               Ratio(Counter(c, "sched.idle_cycles"),
                     static_cast<double>(warmup.cpus) * Counter(c, "bench.wall_cycles")));
    report.Add("kext.frames_per_crossing", "frames",
               Ratio(Counter(c, "dataplane.filter_frames"),
                     Counter(c, "dataplane.filter_invocations")));
    report.Add("kext.crossings_per_kop", "count",
               Ratio(Counter(c, "dataplane.filter_invocations"), kops));
    report.AddMedian("kext.upgrade_ms", "ms", upgrade_ms);
    double lat_sum = 0;
    for (u64 l : warmup.latencies) lat_sum += static_cast<double>(l);
    report.Add("uext.cycles_per_call", "cycles",
               *workload == Workload::kUextComputeN1
                   ? Ratio(lat_sum, static_cast<double>(warmup.latencies.size()))
                   : 0.0);
    report.Add("dataplane.frames_per_poll", "frames",
               Ratio(Counter(c, "dataplane.napi_frames"), Counter(c, "dataplane.napi_polls")));
    report.Add("dataplane.calls_avoided_per_kop", "count",
               Ratio(Counter(c, "dataplane.filter_calls_avoided"), kops));
    report.Add("dataplane.queue_full_drops", "count", Counter(c, "dataplane.dropped_queue_full"));
    report.AddMedian("web.http_ns_per_req", "ns", http_ns);
    for (const char* b : kBusyBuckets) {
      report.Add(std::string("profile.") + b + "_cyc_per_op", "cycles",
                 Ratio(Counter(p, std::string("obs.profile.") + b), ops));
    }
    report.Add("profile.idle_ratio", "ratio",
               Ratio(Counter(p, "obs.profile.idle"), Counter(p, "obs.profile.total_cycles")));
    report.AddMedian("setup.asm_s", "s", asm_s);
    report.AddMedian("setup.load_s", "s", load_s);
    report.AddMedian("setup.flow_s", "s", flow_s);
    report.AddMedian("setup.inject_s", "s", inject_s);
    report.AddMedian("host.ns_per_busy_kcycle", "ns", ns_per_kcycle);
    report.AddMedian("bench.hook_share", "ratio", hook_share);
    report.Add("obs.trace_overhead", "ratio", Ratio(Median(traced_run), Median(untraced_run)) - 1);
    const double share = Median(hook_share);
    if (share >= kHookShareLimit) {
      correct = false;
      diagnostics.push_back("bench hook share " + Num(share) + " of the run phase (limit " +
                            Num(kHookShareLimit) + ")");
    }
  }

  // --- Output ------------------------------------------------------------------
  const std::string provenance = ProvenanceJson();
  std::printf("palladium_e2e %s seed %llu scale %g: %zu measured round(s)%s\n",
              WorkloadName(*workload), static_cast<unsigned long long>(args.seed), args.scale,
              untraced.size(), traced_mode ? " + traced round(s)" : "");
  if (!capacity_log.empty()) std::printf("capacity search:\n%s", capacity_log.c_str());
  std::printf("%-32s %16s %-8s\n", "metric", "value", "unit");
  for (const Metric& m : report.metrics()) {
    if (m.samples.empty()) {
      std::printf("%-32s %16.6g %-8s  %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                  m.note.c_str());
    } else {
      std::printf("%-32s %16.6g %-8s  from %zu rounds\n", m.name.c_str(), m.value, m.unit.c_str(),
                  m.samples.size());
    }
  }
  std::printf("attempted %llu, failed %llu, simulated results identical across rounds: %s\n",
              static_cast<unsigned long long>(attempted), static_cast<unsigned long long>(failed),
              sim_identical ? "yes" : "NO");
  for (const std::string& d : notes) std::printf("note: %s\n", d.c_str());
  for (const std::string& d : diagnostics) std::printf("FAIL: %s\n", d.c_str());

  if (!args.json.empty()) {
    std::FILE* f = std::fopen(args.json.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", args.json.c_str());
      return 1;
    }
    std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %llu, \"scale\": %s, \"mode\": \"%s\",\n",
                 WorkloadName(*workload), static_cast<unsigned long long>(args.seed),
                 Num(args.scale).c_str(), traced_mode ? "traced" : "untraced");
    std::fprintf(f, "\"provenance\": %s,\n", provenance.c_str());
    std::fprintf(f,
                 "\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"sim_identical\": %s,\n",
                 correct ? "true" : "false", static_cast<unsigned long long>(attempted),
                 static_cast<unsigned long long>(failed), sim_identical ? "true" : "false");
    std::fprintf(f, "\"rounds\": {\"warmup\": 1, \"measured\": %zu, \"traced\": %zu},\n",
                 untraced.size(), traced.size());
    std::fprintf(f, "\"diagnostics\": [");
    for (size_t i = 0; i < diagnostics.size(); ++i) {
      std::fprintf(f, "%s\"%s\"", i ? ", " : "", JsonEscape(diagnostics[i]).c_str());
    }
    std::fprintf(f, "],\n\"notes\": [");
    for (size_t i = 0; i < notes.size(); ++i) {
      std::fprintf(f, "%s\"%s\"", i ? ", " : "", JsonEscape(notes[i]).c_str());
    }
    std::fprintf(f, "],\n\"metrics\": {");
    for (size_t i = 0; i < report.metrics().size(); ++i) {
      const Metric& m = report.metrics()[i];
      std::fprintf(f, "%s\n  \"%s\": {\"value\": %s, \"unit\": \"%s\"", i ? "," : "",
                   m.name.c_str(), Num(m.value).c_str(), m.unit.c_str());
      if (!m.samples.empty()) {
        std::fprintf(f, ", \"samples\": [");
        for (size_t k = 0; k < m.samples.size(); ++k) {
          std::fprintf(f, "%s%s", k ? ", " : "", Num(m.samples[k]).c_str());
        }
        std::fprintf(f, "]");
      }
      if (!m.note.empty()) std::fprintf(f, ", \"note\": \"%s\"", JsonEscape(m.note).c_str());
      std::fprintf(f, "}");
    }
    std::fprintf(f, "\n},\n\"counters\": {");
    size_t i = 0;
    for (const auto& [k, v] : reference) {
      std::fprintf(f, "%s\n  \"%s\": %llu", i++ ? "," : "", k.c_str(),
                   static_cast<unsigned long long>(v));
    }
    std::fprintf(f, "\n}}\n");
    if (std::fclose(f) != 0) return 1;
  }
  if (traced_mode && !spans.WriteChromeTrace(args.trace, provenance)) {
    std::fprintf(stderr, "cannot write trace %s\n", args.trace.c_str());
    return 1;
  }
  return correct ? 0 : 1;
}
