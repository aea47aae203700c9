// The four seeded workloads of the end-to-end benchmark and the code that
// runs one round of each on a freshly built machine.
//
// A process generates its inputs once, from the seed (GenerateInputs); every
// round then builds a new machine, injects exactly those inputs and runs
// them. The program under test only ever receives the generated inputs.
// Each round verifies its own outputs while it runs (the tx hook checks
// every echoed frame or served request) and after it (loss accounting, the
// NIC's wire log, the extension checksum).
#ifndef BENCH_E2E_WORKLOADS_H_
#define BENCH_E2E_WORKLOADS_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "spans.h"
#include "src/hw/types.h"

namespace e2e {

using palladium::u16;
using palladium::u32;
using palladium::u64;
using palladium::u8;

enum class Workload { kFilterSmallN1, kFilterImixN4, kWebKeepaliveN4, kUextComputeN1 };

const char* WorkloadName(Workload w);
std::optional<Workload> ParseWorkload(const std::string& name);
std::vector<Workload> AllWorkloads();

// One frame or request of a network workload.
struct NetOp {
  double gap_units = 0;  // Exp(1) draw; the arrival gap is gap_units x mean gap
  int flow = -1;         // filter workloads: matching flow, -1 = matches none
  u32 src_ip = 0;
  u16 src_port = 0;
  u16 dst_port = 0;
  u8 proto = 0;
  u16 payload_len = 0;   // filter: payload bytes; web: HTTP request bytes
};

struct Inputs {
  Workload workload = Workload::kFilterSmallN1;
  u64 seed = 1;
  double scale = 1.0;
  std::vector<NetOp> ops;               // network workloads
  std::vector<std::vector<u8>> records;  // uext: record bodies
  u32 passes = 0;                        // uext: passes over the records
  u64 upgrade_period = 0;                // filter_small: tx frames per live upgrade
  u32 expected_connections = 0;          // web: distinct client 5-tuples
};

Inputs GenerateInputs(Workload w, u64 seed, double scale);

// The seed of traffic set `set` of a run whose --seed is `seed`. Set 0 is
// the seed itself and is the one every timed round replays; the other sets
// only add samples to the simulated metrics.
u64 TrafficSeed(u64 seed, u32 set);

// The p-quantile of `sorted` by the nearest-rank rule; 0 when it is empty.
u64 Percentile(const std::vector<u64>& sorted, double p);

// Offered rate of the nominal run, in ops per simulated second (0 for the
// closed-loop uext workload), and the capacity-search range.
double NominalRate(Workload w);
struct CapacityRange {
  double lo = 0;
  double hi = 0;
};
std::optional<CapacityRange> CapacitySearchRange(Workload w);

struct RoundOptions {
  bool profile = false;         // attach obs::CycleProfile
  bool traced = false;          // profile, and time the hooks into `spans`
  SpanRecorder* spans = nullptr;
  double rate = 0;              // ops per simulated second; 0 = nominal
};

// A round's run phase takes a host-time checkpoint every this many ops
// (frames handed to TX, requests answered or protected calls returned).
constexpr u64 kCheckpointOps = 32;

struct RoundResult {
  double setup_ns = 0;
  double run_ns = 0;
  // Run-phase checkpoints, in ns since the run phase began, every
  // kCheckpointOps ops; the last one is the phase's end. Every round of a
  // process does the same work between the same two checkpoints, since its
  // simulation is identical.
  std::vector<double> run_marks_ns;
  u64 attempted = 0;
  u64 failed = 0;
  std::vector<std::string> diagnostics;
  std::vector<u64> latencies;  // simulated cycles, sorted
  u32 cpus = 1;
  // Simulated counters: every integral obs::MetricsRegistry value of the
  // machine, NIC, dataplane and kext layers, plus the benchmark's own.
  // Identical in every round of a process, profiled, traced or not.
  std::map<std::string, u64> counters;
  // Profiled rounds only.
  std::map<std::string, u64> profile;  // obs::CycleProfile bucket totals
  u64 profile_total = 0;               // CycleProfile::TotalAll
  // Traced rounds only.
  double verify_ns = 0;                // bench-owned hook work
  u64 verify_calls = 0;
  double http_ns = 0;                  // web layer work inside the tx hook
  u64 http_requests = 0;
  std::vector<double> upgrade_ns;      // one per UpgradeFlow
};

RoundResult RunRound(const Inputs& in, const RoundOptions& opt);

}  // namespace e2e

#endif  // BENCH_E2E_WORKLOADS_H_
