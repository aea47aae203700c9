// Dataplane throughput: packets/sec through the protected-extension filter
// path, interrupt-driven end to end (NIC RX IRQ -> NAPI poll -> SPL 1
// compiled filter, a batch of frames per protected crossing -> per-process
// queue -> worker pkt_recvm/pkt_sendm -> TX ring), versus the
// run-to-completion baseline (the kernel invoking the same protected filter
// in a tight loop with no devices, no scheduler, no context switches).
// The difference is the asynchronous machinery's overhead; the absolute
// number is the paper-machine (200 MHz) packet rate. Writes
// BENCH_dataplane.json.
//
// Every run also executes the PR 3 oracle pipeline (single queue, IRQ per
// packet, one crossing + one pkt_recv/pkt_send pair per frame) under the
// same offered load and reports it as no_napi_* — the regression this PR
// fixes stays measured. PALLADIUM_NO_NAPI=1 makes the oracle the main run.
//
// `--smp N` runs the same pipeline on an N-vCPU machine (per-core NIC
// queues, hardware RSS spreading flows across cores, workers spread by the
// SMP scheduler) against a saturating arrival rate, compares it with the
// identical-load 1-vCPU run, and enforces the scaling and absolute-rate
// acceptance gates (PALLADIUM_BENCH_MIN_SMP_SCALE, PALLADIUM_BENCH_MIN_SMP_PPS).
// The N=1 gates: zero queue-full drops at the default offered load and at
// most one NIC IRQ per 10 packets served (PALLADIUM_BENCH_MAX_IRQ_RATIO).
// The absolute-pps gate reads PALLADIUM_BENCH_MIN_PPS (default 10000)
// so loaded CI runners can relax it without patching the binary; the JSON
// carries the threshold and the margin either way.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/filter/filter.h"
#include "src/hw/nic.h"
#include "src/hw/runtime_config.h"
#include "src/kernel/sched.h"
#include "src/net/dataplane.h"
#include "src/net/packet.h"
#include "src/obs/profile.h"
#include "src/obs/trace.h"
#include "src/web/server_sim.h"

using namespace palladium;

namespace {

constexpr char kFilterText[] = "ip.proto == 6 && ip.src == 10.20.30.40 && tcp.dport == 8080";

// The source port is free under the filter; varying it gives the NIC's RSS
// hash real entropy, so multi-queue runs spread arrivals across cores.
std::vector<u8> MatchingFrame(u16 src_port) {
  PacketSpec spec;
  spec.proto = kIpProtoTcp;
  spec.src_ip = 0x0A141E28;  // 10.20.30.40
  spec.src_port = src_port;
  spec.dst_port = 8080;
  spec.payload_len = 64;
  return BuildPacket(spec);
}

// Run-to-completion baseline: same protected filter, no interrupts.
double BaselineCyclesPerPacket(u32 packets) {
  MachineConfig mcfg;
  mcfg.num_cpus = 1;
  Machine machine(mcfg);
  Kernel kernel(machine);
  KernelExtensionManager kext(kernel);
  std::string err;
  auto expr = ParseFilter(kFilterText, &err);
  if (!expr) {
    std::fprintf(stderr, "parse filter: %s\n", err.c_str());
    std::exit(1);
  }
  AssembleError aerr;
  auto obj = Assemble(CompileFilterToAsm(*expr), &aerr);
  if (!obj) {
    std::fprintf(stderr, "assemble filter: %s\n", aerr.ToString().c_str());
    std::exit(1);
  }
  std::string diag;
  auto ext = kext.LoadExtension("filter", *obj, &diag);
  auto fid = ext ? kext.FindFunction("filter:filter_run") : std::nullopt;
  if (!ext || !fid) {
    std::fprintf(stderr, "baseline setup failed: %s\n", diag.c_str());
    std::exit(1);
  }
  auto frame = MatchingFrame(1024);
  const u32 len = static_cast<u32>(frame.size());
  u64 cycles = 0;
  for (u32 i = 0; i < packets; ++i) {
    kext.WriteShared(*ext, 0, &len, 4);
    kext.WriteShared(*ext, 4, frame.data(), len);
    auto r = kext.Invoke(*fid, len);
    if (!r.ok || r.value != 1) {
      std::fprintf(stderr, "baseline invoke failed\n");
      std::exit(1);
    }
    cycles += r.cycles;
  }
  return static_cast<double>(cycles) / packets;
}

struct DataplaneRun {
  u64 served = 0;
  u64 cycles = 0;
  u64 busy_cycles = 0;
  double pps = 0;       // served per busy cycle (machine-efficiency view)
  double wire_pps = 0;  // served per wall cycle (sustained-rate view)
  u64 nic_irqs = 0;
  u64 tx_completion_irqs = 0;
  u64 timer_irqs = 0;
  u64 preemptions = 0;
  u64 context_switches = 0;
  u64 rx_dropped = 0;
  u64 queue_dropped = 0;
  u64 filter_invocations = 0;
  u64 filter_frames = 0;
  u64 filter_batches = 0;
  u64 filter_calls_avoided = 0;
  u64 napi_polls = 0;
  u64 napi_frames = 0;
  u64 idle_cycles = 0;
  u64 steals = 0;
  u64 shootdown_ipis = 0;
  u32 workers_exited = 0;
  // Host wall-clock spent inside the scheduler run — how fast the simulator
  // itself chewed through the workload, as opposed to every other field,
  // which is in simulated cycles. Report-only: host time is machine
  // dependent, so the regression gate never compares it across runners.
  double host_wall_seconds = 0;
};

// `oracle` selects the PR 3 pipeline: single queue, an IRQ per DMA'd frame,
// one protected crossing and one pkt_recv/pkt_send pair per packet. The
// default is the production pipeline: per-core queues with RSS, NAPI
// polling under interrupt moderation, batched crossings, and workers moving
// frame vectors with pkt_recvm/pkt_sendm.
// Optional telemetry attachments for one run; all pure observers, so an
// attached run retires the exact same simulated cycles as a bare one.
struct ObsAttach {
  obs::CycleProfile* profiler = nullptr;
  obs::FlightRecorder* recorder = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
};

DataplaneRun RunInterruptDriven(u32 packets, u32 workers, u64 inter_arrival, u32 num_cpus,
                                bool oracle, const ObsAttach& telemetry = {}) {
  MachineConfig mcfg;
  mcfg.num_cpus = num_cpus;  // explicit, so the comparison ignores PALLADIUM_SMP
  Machine machine(mcfg);
  Kernel::Config kcfg;
  kcfg.timer_period_cycles = 25'000;
  Kernel kernel(machine, kcfg);
  KernelExtensionManager kext(kernel);
  Scheduler::Config scfg;
  scfg.slice_cycles = 80'000;
  Scheduler sched(kernel, scfg);

  std::string diag;
  auto img =
      AssembleAndLink(oracle ? kPktEchoWorkerSource : kPktEchoMWorkerSource, kUserTextBase,
                      {}, &diag);
  if (!img) {
    std::fprintf(stderr, "assemble worker: %s\n", diag.c_str());
    std::exit(1);
  }
  std::vector<Pid> pids;
  for (u32 w = 0; w < workers; ++w) {
    Pid pid = kernel.CreateProcess();
    if (pid == 0 || !kernel.LoadUserImage(pid, *img, "main", &diag)) {
      std::fprintf(stderr, "load worker: %s\n", diag.c_str());
      std::exit(1);
    }
    pids.push_back(pid);
    sched.AddProcess(pid);
  }

  Nic nic(machine.pm(), kernel.pic(), kIrqNic);
  PacketDataplane::Config dcfg;
  if (oracle) {
    dcfg.napi = false;
    dcfg.filter_batch = 1;
    dcfg.queues = 1;
  } else {
    dcfg.queues = num_cpus;
    dcfg.napi = true;
    dcfg.filter_batch = 32;
    // One RX IRQ per queue per 16k-cycle window (80us at 200 MHz): far
    // inside the ring's holding capacity at the offered rates, and an order
    // of magnitude fewer dispatches than IRQ-per-packet.
    dcfg.rx_irq_moderation = 16'000;
  }
  PacketDataplane dataplane(kernel, kext, nic, dcfg);
  if (!dataplane.AddFlow("filter", kFilterText, pids, &diag)) {
    std::fprintf(stderr, "flow: %s\n", diag.c_str());
    std::exit(1);
  }

  if (telemetry.recorder != nullptr) {
    telemetry.recorder->Reset(machine.num_cpus() + nic.num_queues());
    for (u32 q = 0; q < nic.num_queues(); ++q) {
      telemetry.recorder->SetTrackName(machine.num_cpus() + q,
                                       "nic.q" + std::to_string(q));
    }
    nic.set_recorder(telemetry.recorder, machine.num_cpus());
  }
  if (telemetry.profiler != nullptr) {
    telemetry.profiler->Reset(machine.num_cpus(),
                              machine.cpu(0).cycle_model().tlb_miss_penalty);
  }
  kernel.AttachObservability(telemetry.recorder, telemetry.profiler);

  u64 at = 5'000;
  for (u32 i = 0; i < packets; ++i) {
    auto frame = MatchingFrame(static_cast<u16>(1024 + (i & 1023)));
    nic.Inject(frame.data(), static_cast<u32>(frame.size()), at);
    at += inter_arrival;
  }
  bool shutdown_issued = false;
  sched.set_idle_hook([&]() {
    if (shutdown_issued) return false;
    shutdown_issued = true;
    dataplane.Shutdown();
    return true;
  });

  const auto host_start = std::chrono::steady_clock::now();
  auto result = sched.RunAll(20'000'000'000ull);
  const auto host_end = std::chrono::steady_clock::now();
  nic.FlushTx();  // retire DMA still in flight when the last worker exited

  DataplaneRun out;
  out.served = dataplane.stats().tx_frames;
  out.cycles = result.cycles;
  out.idle_cycles = sched.stats().idle_cycles;
  // Throughput over the busy period only (idle fast-forward cycles are the
  // machine waiting for the wire, not work) — obs::BusyCycles is the one
  // shared definition, also used by server_sim and the profiler's report.
  out.busy_cycles =
      obs::BusyCycles(machine.num_cpus(), result.cycles, sched.stats().idle_cycles);
  const double cpp =
      out.served > 0 ? static_cast<double>(out.busy_cycles) / out.served : 0;
  out.pps = cpp > 0 ? kCpuMhz * 1e6 / cpp : 0;
  out.wire_pps =
      out.cycles > 0 ? static_cast<double>(out.served) * kCpuMhz * 1e6 / out.cycles : 0;
  for (u32 c = 0; c < machine.num_cpus(); ++c) {
    out.nic_irqs += kernel.pic(c).delivered(kIrqNic);
    out.tx_completion_irqs += kernel.pic(c).delivered(kIrqNicTx);
    out.timer_irqs += kernel.pic(c).delivered(kIrqTimer);
  }
  out.preemptions = sched.stats().preemptions;
  out.context_switches = sched.stats().context_switches;
  out.rx_dropped = nic.stats().rx_dropped;
  out.queue_dropped = dataplane.stats().dropped_queue_full;
  out.filter_invocations = dataplane.stats().filter_invocations;
  out.filter_frames = dataplane.stats().filter_frames;
  out.filter_batches = dataplane.stats().filter_batches;
  out.filter_calls_avoided = dataplane.stats().filter_calls_avoided;
  out.napi_polls = dataplane.stats().napi_polls;
  out.napi_frames = dataplane.stats().napi_frames;
  out.steals = sched.stats().steals;
  out.shootdown_ipis = kernel.smp_stats().shootdown_ipis;
  out.workers_exited = result.exited;
  out.host_wall_seconds =
      std::chrono::duration<double>(host_end - host_start).count();
  if (telemetry.metrics != nullptr) {
    telemetry.metrics->CollectMachine(kernel, &sched);
    telemetry.metrics->CollectNic(nic);
    telemetry.metrics->CollectDataplane(dataplane);
    if (telemetry.profiler != nullptr) telemetry.metrics->CollectProfile(*telemetry.profiler);
    if (telemetry.recorder != nullptr) telemetry.metrics->CollectRecorder(*telemetry.recorder);
  }
  return out;
}

double EnvDouble(const char* name, double fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? std::atof(v) : fallback;
}

// `--soak [requests]`: the webserver soak — a long run of distinct client
// flows (one 5-tuple per client, 20% of requests riding keep-alive
// connections) through the multi-queue/NAPI dataplane on an SMP machine,
// with request latency percentiles. Writes BENCH_dataplane_soak.json.
int RunSoak(u32 requests, u32 smp) {
  MultiServerConfig cfg;
  cfg.smp = smp;
  cfg.workers = 2 * smp;
  cfg.total_requests = requests;
  // 80% fresh connections / 20% keep-alive reuse at any scale; the default
  // 150k-request soak sees 120k distinct client flows.
  cfg.clients = std::max(1u, requests - requests / 5);
  cfg.inter_arrival_cycles = 3'000;  // ~66k req/s offered at 200 MHz
  cfg.cycle_budget = 60'000'000'000ull;
  cfg.steering = FlowSteering::kFlowHash;
  cfg.queues = smp;
  cfg.napi = true;
  cfg.filter_batch = 32;
  cfg.rx_irq_moderation = 16'000;
  obs::CycleProfile profiler;
  obs::MetricsRegistry metrics;
  cfg.profiler = &profiler;
  cfg.metrics = &metrics;

  const bool no_napi_env = !RuntimeConfig::FromEnv().napi;
  std::printf("soak (%s): %u requests, %u distinct client flows, %u vCPUs, %u workers...\n",
              no_napi_env ? "oracle: IRQ per packet" : "NAPI + batched crossings", requests,
              cfg.clients, smp, cfg.workers);
  const auto host_start = std::chrono::steady_clock::now();
  MultiServerResult r = RunMultiWorkerServer(cfg);
  // The whole soak call: unlike the packet runs, this includes set-up
  // (machine bring-up, worker load, request injection).
  const double host_wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - host_start).count();

  const double us_per_cycle = 1.0 / kCpuMhz;
  std::printf("\n%-44s %14s\n", "metric", "value");
  std::printf("%-44s %14llu\n", "requests served", static_cast<unsigned long long>(r.served));
  std::printf("%-44s %14llu\n", "distinct connections",
              static_cast<unsigned long long>(r.connections));
  std::printf("%-44s %14llu\n", "keep-alive reuses",
              static_cast<unsigned long long>(r.keepalive_reuses));
  std::printf("%-44s %14.0f\n", "requests/sec (busy, 200 MHz)", r.requests_per_sec);
  std::printf("%-44s %14llu\n", "NIC RX IRQs", static_cast<unsigned long long>(r.nic_irqs));
  std::printf("%-44s %14llu\n", "queue-full drops",
              static_cast<unsigned long long>(r.queue_full_drops));
  std::printf("%-44s %14.1f\n", "latency p50 (us)", r.latency_p50_cycles * us_per_cycle);
  std::printf("%-44s %14.1f\n", "latency p90 (us)", r.latency_p90_cycles * us_per_cycle);
  std::printf("%-44s %14.1f\n", "latency p99 (us)", r.latency_p99_cycles * us_per_cycle);
  std::printf("%-44s %14.1f\n", "latency max (us)", r.latency_max_cycles * us_per_cycle);
  std::printf("%-44s %14.3f\n", "host wall seconds (whole soak)", host_wall_seconds);

  BenchJson json("dataplane_soak");
  json.Set("requests_offered", static_cast<u64>(cfg.total_requests));
  json.Set("requests_served", r.served);
  json.Set("distinct_clients", static_cast<u64>(cfg.clients));
  json.Set("connections", r.connections);
  json.Set("keepalive_reuses", r.keepalive_reuses);
  json.Set("requests_per_sec", r.requests_per_sec);
  json.Set("queue_full_drops", r.queue_full_drops);
  json.Set("nic_irqs", r.nic_irqs);
  json.Set("timer_irqs", r.timer_irqs);
  json.Set("filter_invocations", r.filter_invocations);
  json.Set("latency_p50_cycles", r.latency_p50_cycles);
  json.Set("latency_p90_cycles", r.latency_p90_cycles);
  json.Set("latency_p99_cycles", r.latency_p99_cycles);
  json.Set("latency_max_cycles", r.latency_max_cycles);
  json.Set("latency_p50_us", r.latency_p50_cycles * us_per_cycle);
  json.Set("latency_p99_us", r.latency_p99_cycles * us_per_cycle);
  json.Set("total_cycles", r.cycles);
  json.Set("idle_cycles", r.idle_cycles);
  json.Set("smp_cpus", static_cast<u64>(r.cpus));
  json.Set("workers", static_cast<u64>(cfg.workers));
  json.Set("no_napi_mode", no_napi_env ? 1.0 : 0.0);
  // Report-only, as in the packet runs; a request is one frame each way.
  json.Set("host_wall_seconds", host_wall_seconds);
  json.Set("host_packets_per_sec", host_wall_seconds > 0 ? r.served / host_wall_seconds : 0.0);
  json.Set("host_cpus", static_cast<u64>(std::thread::hardware_concurrency()));
  EmitMetrics(metrics, &json);
  const std::string path = json.Write();
  std::printf("\nwrote %s\n", path.c_str());

  if (!r.ok) {
    std::fprintf(stderr, "FAIL: soak did not serve everything: %s\n", r.diag.c_str());
    return 1;
  }
  if (r.queue_full_drops != 0) {
    std::fprintf(stderr, "FAIL: %llu queue-full drops during the soak (want 0)\n",
                 static_cast<unsigned long long>(r.queue_full_drops));
    return 1;
  }
  if (r.connections != cfg.clients || r.keepalive_reuses != requests - cfg.clients) {
    std::fprintf(stderr, "FAIL: connection table saw %llu conns / %llu reuses (want %u / %u)\n",
                 static_cast<unsigned long long>(r.connections),
                 static_cast<unsigned long long>(r.keepalive_reuses), cfg.clients,
                 requests - cfg.clients);
    return 1;
  }
  std::printf("soak gates: all %llu served, zero drops, %llu keep-alive reuses: ok\n",
              static_cast<unsigned long long>(r.served),
              static_cast<unsigned long long>(r.keepalive_reuses));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  u32 packets = 20'000;
  u32 smp = 1;
  bool smp_given = false;
  bool soak = false;
  bool profile = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--profile") == 0) {
      profile = true;
    } else if (std::strcmp(argv[i], "--smp") == 0) {
      if (i + 1 >= argc || std::atoi(argv[i + 1]) <= 0) {
        std::fprintf(stderr, "usage: %s [packets] [--smp N] [--soak [requests]] [--profile]\n",
                     argv[0]);
        return 2;
      }
      smp = static_cast<u32>(std::atoi(argv[++i]));
      smp_given = true;
      if (smp > kMaxCpus) {
        // The Machine clamps to kMaxCpus; refusing here keeps the printed
        // configuration and the JSON honest about what actually ran.
        std::fprintf(stderr, "--smp %u exceeds the machine maximum of %u vCPUs\n", smp,
                     kMaxCpus);
        return 2;
      }
    } else if (std::strcmp(argv[i], "--soak") == 0) {
      soak = true;
      if (i + 1 < argc && std::atoi(argv[i + 1]) > 0) {
        packets = static_cast<u32>(std::atoi(argv[++i]));
      } else {
        packets = 150'000;  // the full soak: 120k distinct client flows
      }
    } else if (std::atoi(argv[i]) > 0) {
      packets = static_cast<u32>(std::atoi(argv[i]));
    } else {
      // A typo must not silently become packets=0 and disarm both gates.
      std::fprintf(stderr,
                   "unrecognized argument '%s'; usage: %s [packets] [--smp N] [--soak "
                   "[requests]] [--profile]\n",
                   argv[i], argv[0]);
      return 2;
    }
  }
  if (soak) {
    // The soak needs parallel cores to absorb the offered rate; default to a
    // 4-vCPU machine unless --smp pinned one explicitly.
    return RunSoak(packets, smp_given ? smp : 4);
  }
  const u32 kWorkers = smp > 1 ? 2 * smp : 4;
  // Default mode offers ~133k pps at 200 MHz — the load the old pipeline
  // dropped a third of. SMP mode offers 1.33M pps: well past the N=4
  // acceptance bar of 400k and ~3x one NAPI core's sustainable rate
  // (~430k), so the 1-vCPU reference saturates and the scaling ratio
  // measures added cores, not the offered rate.
  const u64 inter_arrival = smp > 1 ? 150 : 1'500;
  const double min_pps = EnvDouble("PALLADIUM_BENCH_MIN_PPS", 10'000.0);
  const bool no_napi_env = !RuntimeConfig::FromEnv().napi;

  std::printf("filter: %s\n", kFilterText);
  std::printf("baseline (run-to-completion, no interrupts): measuring...\n");
  const double base_cpp = BaselineCyclesPerPacket(std::min(packets, 2'000u));
  const double base_pps = kCpuMhz * 1e6 / base_cpp;

  std::printf("dataplane (%s, %u vCPU(s), %u workers, %u packets): running...\n",
              no_napi_env ? "oracle: IRQ per packet" : "NAPI + batched crossings", smp,
              kWorkers, packets);
  // Telemetry rides on the main run unconditionally: observation is free in
  // simulated time, so the gated pps is measured with it enabled.
  obs::CycleProfile profiler;
  obs::FlightRecorder recorder;
  obs::MetricsRegistry metrics;
  ObsAttach telemetry;
  telemetry.profiler = &profiler;
  telemetry.recorder = &recorder;
  telemetry.metrics = &metrics;
  DataplaneRun run =
      RunInterruptDriven(packets, kWorkers, inter_arrival, smp, no_napi_env, telemetry);
  std::printf("oracle run (IRQ per packet, crossing per frame, same load): running...\n");
  DataplaneRun oracle =
      no_napi_env ? run : RunInterruptDriven(packets, kWorkers, inter_arrival, smp, true);
  DataplaneRun uni;  // same offered load on one vCPU (the scaling denominator)
  double scaling = 1.0;
  if (smp > 1) {
    std::printf("reference run (same load, 1 vCPU): running...\n");
    uni = RunInterruptDriven(packets, kWorkers, inter_arrival, 1, no_napi_env);
    // Sustained-rate scaling: what the wire actually got through, per wall
    // cycle, N vCPUs vs one, under identical offered load.
    scaling = uni.wire_pps > 0 ? run.wire_pps / uni.wire_pps : 0;
  }
  const double dp_cpp = run.served > 0
                            ? static_cast<double>(run.busy_cycles) / run.served
                            : 0;

  std::printf("\n%-44s %14s\n", "metric", "value");
  std::printf("%-44s %14.1f\n", "baseline filter cycles/packet", base_cpp);
  std::printf("%-44s %14.0f\n", "baseline packets/sec (200 MHz)", base_pps);
  std::printf("%-44s %14llu\n", "dataplane packets served",
              static_cast<unsigned long long>(run.served));
  std::printf("%-44s %14.1f\n", "dataplane cycles/packet (busy)", dp_cpp);
  std::printf("%-44s %14.0f\n", "dataplane packets/sec (200 MHz)", run.pps);
  std::printf("%-44s %14.0f\n", "dataplane wire packets/sec", run.wire_pps);
  std::printf("%-44s %14.1f\n", "async overhead cycles/packet", dp_cpp - base_cpp);
  std::printf("%-44s %14llu\n", "NIC RX IRQs", static_cast<unsigned long long>(run.nic_irqs));
  std::printf("%-44s %14llu\n", "NAPI polls", static_cast<unsigned long long>(run.napi_polls));
  std::printf("%-44s %14llu\n", "filter crossings",
              static_cast<unsigned long long>(run.filter_invocations));
  std::printf("%-44s %14llu\n", "frames through crossings",
              static_cast<unsigned long long>(run.filter_frames));
  std::printf("%-44s %14llu\n", "crossings avoided (backpressure)",
              static_cast<unsigned long long>(run.filter_calls_avoided));
  std::printf("%-44s %14llu\n", "timer IRQs", static_cast<unsigned long long>(run.timer_irqs));
  std::printf("%-44s %14llu\n", "context switches",
              static_cast<unsigned long long>(run.context_switches));
  std::printf("%-44s %14llu\n", "preemptions",
              static_cast<unsigned long long>(run.preemptions));
  std::printf("%-44s %14llu\n", "RX ring drops",
              static_cast<unsigned long long>(run.rx_dropped));
  std::printf("%-44s %14llu\n", "queue-full drops",
              static_cast<unsigned long long>(run.queue_dropped));
  std::printf("%-44s %14llu\n", "idle cycles",
              static_cast<unsigned long long>(run.idle_cycles));
  if (!no_napi_env) {
    std::printf("%-44s %14llu\n", "oracle packets served",
                static_cast<unsigned long long>(oracle.served));
    std::printf("%-44s %14llu\n", "oracle queue-full drops",
                static_cast<unsigned long long>(oracle.queue_dropped));
    std::printf("%-44s %14llu\n", "oracle NIC RX IRQs",
                static_cast<unsigned long long>(oracle.nic_irqs));
    std::printf("%-44s %14.0f\n", "oracle wire packets/sec", oracle.wire_pps);
  }
  if (smp > 1) {
    std::printf("%-44s %14llu\n", "work steals", static_cast<unsigned long long>(run.steals));
    std::printf("%-44s %14llu\n", "shootdown IPIs",
                static_cast<unsigned long long>(run.shootdown_ipis));
    std::printf("%-44s %14.0f\n", "1-vCPU wire packets/sec (same load)", uni.wire_pps);
    std::printf("%-44s %14llu\n", "1-vCPU packets served",
                static_cast<unsigned long long>(uni.served));
    std::printf("%-44s %14llu\n", "1-vCPU queue drops",
                static_cast<unsigned long long>(uni.queue_dropped));
    std::printf("%-44s %14.2f\n", "SMP scaling (wire pps vs 1 vCPU)", scaling);
  }
  std::printf("%-44s %14.3f\n", "host wall seconds (main run)", run.host_wall_seconds);
  std::printf("%-44s %14.0f\n", "host packets/sec (wall clock)",
              run.host_wall_seconds > 0 ? run.served / run.host_wall_seconds : 0.0);
  if (profile) {
    std::printf("\n");
    profiler.PrintBreakdown(stdout, run.served, "pkt");
  }

  BenchJson json(smp > 1 ? "dataplane_smp" + std::to_string(smp) : "dataplane");
  json.Set("packets_offered", static_cast<u64>(packets));
  json.Set("packets_served", run.served);
  json.Set("baseline_cycles_per_packet", base_cpp);
  json.Set("baseline_packets_per_sec", base_pps);
  json.Set("dataplane_cycles_per_packet", dp_cpp);
  json.Set("dataplane_packets_per_sec", run.pps);
  json.Set("wire_packets_per_sec", run.wire_pps);
  json.Set("async_overhead_cycles_per_packet", dp_cpp - base_cpp);
  json.Set("nic_irqs", run.nic_irqs);
  json.Set("tx_completion_irqs", run.tx_completion_irqs);
  json.Set("napi_polls", run.napi_polls);
  json.Set("napi_frames", run.napi_frames);
  json.Set("timer_irqs", run.timer_irqs);
  json.Set("context_switches", run.context_switches);
  json.Set("preemptions", run.preemptions);
  json.Set("rx_ring_drops", run.rx_dropped);
  json.Set("queue_full_drops", run.queue_dropped);
  json.Set("filter_invocations", run.filter_invocations);
  json.Set("filter_frames", run.filter_frames);
  json.Set("filter_batches", run.filter_batches);
  json.Set("filter_calls_avoided", run.filter_calls_avoided);
  json.Set("workers", kWorkers);
  json.Set("workers_exited", static_cast<u64>(run.workers_exited));
  json.Set("total_cycles", run.cycles);
  json.Set("idle_cycles", run.idle_cycles);
  json.Set("min_pps", min_pps);
  json.Set("pps_margin", run.pps - min_pps);
  json.Set("smp_cpus", smp);
  json.Set("no_napi_mode", no_napi_env ? 1.0 : 0.0);
  if (!no_napi_env) {
    json.Set("no_napi_packets_served", oracle.served);
    json.Set("no_napi_queue_full_drops", oracle.queue_dropped);
    json.Set("no_napi_nic_irqs", oracle.nic_irqs);
    json.Set("no_napi_wire_packets_per_sec", oracle.wire_pps);
    json.Set("no_napi_packets_per_sec", oracle.pps);
  }
  if (smp > 1) {
    json.Set("uni_packets_per_sec", uni.pps);
    json.Set("uni_wire_packets_per_sec", uni.wire_pps);
    json.Set("smp_scaling", scaling);
    json.Set("work_steals", run.steals);
    json.Set("shootdown_ipis", run.shootdown_ipis);
    json.Set("host_uni_wall_seconds", uni.host_wall_seconds);
  }
  // Host-side throughput of the simulator itself, report-only (host time is
  // runner dependent; check_bench_regression.py gates only on GATES rows,
  // and none of them names a host_* key).
  json.Set("host_wall_seconds", run.host_wall_seconds);
  json.Set("host_packets_per_sec",
           run.host_wall_seconds > 0 ? run.served / run.host_wall_seconds : 0.0);
  json.Set("host_cpus", static_cast<u64>(std::thread::hardware_concurrency()));
  EmitMetrics(metrics, &json);
  const std::string path = json.Write();
  std::printf("\nwrote %s\n", path.c_str());

  const bool meaningful = packets >= 1'000;
  if (meaningful && run.pps < min_pps) {
    std::fprintf(stderr, "FAIL: %.0f pps through the protected path (< %.0f)\n", run.pps,
                 min_pps);
    return 1;
  }
  if (run.workers_exited != kWorkers) {
    std::fprintf(stderr, "FAIL: only %u/%u workers exited\n", run.workers_exited, kWorkers);
    return 1;
  }
  if (meaningful && !no_napi_env && smp == 1) {
    // The N=1 acceptance gates this PR exists for: the offered load the old
    // pipeline dropped a third of must now be served loss-free, with an
    // order of magnitude fewer interrupts.
    if (run.queue_dropped != 0 || run.rx_dropped != 0) {
      std::fprintf(stderr, "FAIL: %llu queue-full + %llu ring drops at N=1 (want 0)\n",
                   static_cast<unsigned long long>(run.queue_dropped),
                   static_cast<unsigned long long>(run.rx_dropped));
      return 1;
    }
    const double max_irq_ratio = EnvDouble("PALLADIUM_BENCH_MAX_IRQ_RATIO", 0.1);
    if (run.served > 0 &&
        static_cast<double>(run.nic_irqs) > max_irq_ratio * static_cast<double>(run.served)) {
      std::fprintf(stderr, "FAIL: %llu NIC IRQs for %llu packets (> %.2f per packet)\n",
                   static_cast<unsigned long long>(run.nic_irqs),
                   static_cast<unsigned long long>(run.served), max_irq_ratio);
      return 1;
    }
    std::printf("N=1 gates: zero drops, %.3f IRQs/packet (<= %.2f): ok\n",
                static_cast<double>(run.nic_irqs) / static_cast<double>(run.served),
                max_irq_ratio);
  }
  if (smp > 1 && meaningful) {
    const double min_scale =
        EnvDouble("PALLADIUM_BENCH_MIN_SMP_SCALE", smp >= 4 ? 1.6 : 1.2);
    if (scaling < min_scale) {
      std::fprintf(stderr, "FAIL: SMP scaling %.2fx at %u vCPUs (< %.2fx)\n", scaling, smp,
                   min_scale);
      return 1;
    }
    std::printf("SMP scaling gate (>= %.2fx at %u vCPUs): %.2fx ok\n", min_scale, smp,
                scaling);
    if (!no_napi_env && smp >= 4) {
      const double min_smp_pps = EnvDouble("PALLADIUM_BENCH_MIN_SMP_PPS", 400'000.0);
      if (run.wire_pps < min_smp_pps) {
        std::fprintf(stderr, "FAIL: %.0f filtered pps at %u vCPUs (< %.0f)\n", run.wire_pps,
                     smp, min_smp_pps);
        return 1;
      }
      std::printf("N=%u rate gate (>= %.0f pps): %.0f ok\n", smp, min_smp_pps, run.wire_pps);
    }
  }
  std::printf("protected-path throughput >= %.0f packets/sec: %s\n", min_pps,
              meaningful && run.pps >= min_pps ? "yes" : "(run too small to judge)");
  return 0;
}
