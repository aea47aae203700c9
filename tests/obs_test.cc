// Observability-layer tests: the flight recorder's ring semantics (wrap
// drops the *oldest* events and counts every drop explicitly), the
// cycle-attribution profiler's hard invariant (categories sum exactly to
// the retired-cycle total on every vCPU), and tracer determinism — the same
// workload yields a byte-identical event stream on a rerun, and the
// architectural (kArch) stream is invariant across every engine mode
// ({blocks, trace, D-TLB} oracles) at N=1 and N=4. Observation must be free
// in simulated time, so a fully-instrumented run also has to produce the
// same served/cycles numbers as a bare one.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/asm/assembler.h"
#include "src/bpf/bpf.h"
#include "src/core/kernel_ext.h"
#include "src/dl/dynamic_linker.h"
#include "src/obs/metrics.h"
#include "src/obs/profile.h"
#include "src/obs/trace.h"
#include "src/rpc/rpc.h"
#include "src/sfi/sfi.h"
#include "src/web/server_sim.h"
#include "tests/env_util.h"

namespace palladium {
namespace {

MultiServerConfig SmallConfig(u32 smp) {
  MultiServerConfig cfg;
  cfg.workers = smp > 1 ? 4 : 2;
  cfg.clients = 4;
  cfg.total_requests = 24;
  cfg.smp = smp;
  cfg.queues = smp;  // one NIC queue pair per core
  return cfg;
}

struct ObservedRun {
  MultiServerResult result;
  obs::FlightRecorder recorder;
  obs::CycleProfile profiler;
  obs::MetricsRegistry metrics;
};

// Runs the interrupt-driven server with the full telemetry stack attached.
// The recorder/profiler live in the returned struct so tests can inspect
// streams and buckets after the machine is gone.
void RunObserved(const MultiServerConfig& base, ObservedRun* out) {
  MultiServerConfig cfg = base;
  cfg.recorder = &out->recorder;
  cfg.profiler = &out->profiler;
  cfg.metrics = &out->metrics;
  out->result = RunMultiWorkerServer(cfg);
  ASSERT_TRUE(out->result.ok) << out->result.diag;
  ASSERT_GT(out->result.served, 0u);
}

// --- Ring-buffer semantics ---------------------------------------------------

TEST(FlightRecorder, WrapDropsOldestAndCountsExplicitly) {
  obs::FlightRecorder rec;
  rec.Reset(/*num_tracks=*/1, /*capacity=*/8);
  for (u32 i = 0; i < 20; ++i) {
    rec.Record(0, /*cycle=*/100 + i, obs::EventType::kContextSwitch,
               obs::EventClass::kArch, /*arg0=*/i);
  }
  // 20 recorded, 8 survive, 12 oldest dropped — and the drop is loud.
  EXPECT_EQ(rec.recorded_events(0), 20u);
  EXPECT_EQ(rec.dropped_events(0), 12u);
  EXPECT_EQ(rec.TotalDropped(), 12u);
  std::vector<obs::Event> events = rec.Events(0);
  ASSERT_EQ(events.size(), 8u);
  for (u32 i = 0; i < 8; ++i) {
    EXPECT_EQ(events[i].cycle, 100u + 12 + i) << "oldest-first order broken at " << i;
    EXPECT_EQ(events[i].arg0, 12 + i);
  }
  // The drop counter is federated into the metrics snapshot, never silent.
  obs::MetricsRegistry registry;
  registry.CollectRecorder(rec);
  ASSERT_EQ(registry.values().count("obs.trace.dropped_events"), 1u);
  EXPECT_EQ(registry.values().at("obs.trace.dropped_events").u, 12u);
}

TEST(FlightRecorder, BelowCapacityDropsNothing) {
  obs::FlightRecorder rec;
  rec.Reset(1, 8);
  for (u32 i = 0; i < 8; ++i) {
    rec.Record(0, i, obs::EventType::kIrqRaise, obs::EventClass::kArch);
  }
  EXPECT_EQ(rec.recorded_events(0), 8u);
  EXPECT_EQ(rec.dropped_events(0), 0u);
  EXPECT_EQ(rec.Events(0).size(), 8u);
}

// --- Profiler sum-exactness (acceptance invariant) ---------------------------

void ExpectProfileSumsExactly(u32 smp) {
  ObservedRun run;
  RunObserved(SmallConfig(smp), &run);
  const obs::CycleProfile& prof = run.profiler;
  ASSERT_TRUE(prof.enabled());
  ASSERT_EQ(prof.num_cpus(), smp);
  u64 grand_total = 0;
  for (u32 c = 0; c < prof.num_cpus(); ++c) {
    u64 sum = 0;
    for (u32 cat = 0; cat < obs::kNumCategories; ++cat) {
      sum += prof.bucket(c, static_cast<obs::Category>(cat));
    }
    // The hard invariant: every retired cycle lands in exactly one bucket.
    EXPECT_EQ(sum, prof.total(c)) << "cycle attribution leaked on vCPU " << c;
    grand_total += prof.total(c);
  }
  EXPECT_EQ(grand_total, prof.TotalAll());
  EXPECT_GT(prof.TotalAll(), 0u);
  // The workload exercises user code, the kernel, and the protected filter,
  // so those buckets must be populated (not everything in one category).
  EXPECT_GT(prof.BucketTotal(obs::Category::kUser), 0u);
  EXPECT_GT(prof.BucketTotal(obs::Category::kKernel), 0u);
  EXPECT_GT(prof.BucketTotal(obs::Category::kFilterBody), 0u);
  EXPECT_GT(prof.BucketTotal(obs::Category::kCrossing), 0u);
  EXPECT_GT(prof.BucketTotal(obs::Category::kIrq), 0u);
}

TEST(CycleProfile, BucketsSumExactlyToTotalUniprocessor) {
  ExpectProfileSumsExactly(1);
}

TEST(CycleProfile, BucketsSumExactlyToTotalSmp4) {
  ExpectProfileSumsExactly(4);
}

// --- Zero perturbation -------------------------------------------------------

// A fully-instrumented run must be indistinguishable, in simulated time,
// from a bare one: same served count, same total cycles, same IRQ counts.
void ExpectObservationIsFree(u32 smp) {
  MultiServerResult bare = RunMultiWorkerServer(SmallConfig(smp));
  ASSERT_TRUE(bare.ok) << bare.diag;
  ObservedRun observed;
  RunObserved(SmallConfig(smp), &observed);
  EXPECT_EQ(observed.result.served, bare.served);
  EXPECT_EQ(observed.result.cycles, bare.cycles);
  EXPECT_EQ(observed.result.nic_irqs, bare.nic_irqs);
  EXPECT_EQ(observed.result.timer_irqs, bare.timer_irqs);
  EXPECT_EQ(observed.result.context_switches, bare.context_switches);
  EXPECT_EQ(observed.result.idle_cycles, bare.idle_cycles);
}

TEST(Observability, ObservationIsFreeUniprocessor) { ExpectObservationIsFree(1); }

TEST(Observability, ObservationIsFreeSmp4) { ExpectObservationIsFree(4); }

// --- Tracer determinism ------------------------------------------------------

// Two identical runs must produce byte-identical event streams — engine
// events included — and identical JSONL exports.
void ExpectRerunIdentical(u32 smp) {
  ObservedRun a;
  ObservedRun b;
  RunObserved(SmallConfig(smp), &a);
  RunObserved(SmallConfig(smp), &b);
  ASSERT_EQ(a.recorder.num_tracks(), b.recorder.num_tracks());
  for (u32 t = 0; t < a.recorder.num_tracks(); ++t) {
    EXPECT_EQ(a.recorder.recorded_events(t), b.recorder.recorded_events(t));
    EXPECT_EQ(a.recorder.dropped_events(t), b.recorder.dropped_events(t));
    EXPECT_EQ(a.recorder.Events(t), b.recorder.Events(t))
        << "event stream diverged on track " << a.recorder.track_name(t);
  }
  EXPECT_EQ(a.recorder.ToJsonl(), b.recorder.ToJsonl());
}

TEST(Observability, RerunByteIdenticalUniprocessor) { ExpectRerunIdentical(1); }

TEST(Observability, RerunByteIdenticalSmp4) { ExpectRerunIdentical(4); }

// The kArch stream is architecturally determined: switching execution
// engines ({blocks, trace, D-TLB} oracles) must not move, add, or drop a
// single architectural event. Engine-class events (trace-tier compiles and
// invalidations) legitimately differ and are excluded by ArchEvents().
void ExpectArchStreamModeInvariant(u32 smp) {
  ObservedRun baseline;
  RunObserved(SmallConfig(smp), &baseline);

  const char* kModes[] = {"PALLADIUM_NO_BLOCKS", "PALLADIUM_NO_TRACE",
                          "PALLADIUM_NO_DTLB"};
  for (const char* mode : kModes) {
    // The engines latch their env switches at machine construction, which
    // happens inside RunMultiWorkerServer.
    ObservedRun oracle;
    {
      ScopedEnv oracle_switch(mode, "1");
      RunObserved(SmallConfig(smp), &oracle);
    }

    ASSERT_EQ(oracle.recorder.num_tracks(), baseline.recorder.num_tracks()) << mode;
    for (u32 t = 0; t < baseline.recorder.num_tracks(); ++t) {
      EXPECT_EQ(oracle.recorder.ArchEvents(t), baseline.recorder.ArchEvents(t))
          << "arch stream diverged under " << mode << " on track "
          << baseline.recorder.track_name(t);
    }
    EXPECT_EQ(oracle.result.served, baseline.result.served) << mode;
    EXPECT_EQ(oracle.result.cycles, baseline.result.cycles) << mode;
  }
}

TEST(Observability, ArchStreamInvariantAcrossEngineModes) {
  ExpectArchStreamModeInvariant(1);
}

TEST(Observability, ArchStreamInvariantAcrossEngineModesSmp4) {
  ExpectArchStreamModeInvariant(4);
}

// --- Metrics federation ------------------------------------------------------

TEST(MetricsRegistry, SnapshotCoversEverySubsystem) {
  ObservedRun run;
  RunObserved(SmallConfig(2), &run);
  const auto& values = run.metrics.values();
  // One spot check per federated subsystem; the naming scheme is
  // <subsystem>[<index>].<group>.<counter> (see README "Observability").
  for (const char* key :
       {"cpu0.cycles", "cpu1.tlb.misses", "cpu0.trace.calls", "cpu0.decode.writes_kept",
        "sched.idle_cycles", "sched.cpu0.context_switches", "nic.rx_frames", "nic.q0.rx_frames",
        "dataplane.delivered", "dataplane.flow_upgrades",
        "kernel.smp.shootdown_ipis", "obs.profile.user", "obs.profile.total_cycles",
        "obs.trace.events", "obs.trace.dropped_events"}) {
    EXPECT_EQ(values.count(key), 1u) << "missing metric " << key;
  }
  // One trace call begins one or more iterations (entries).
  EXPECT_LE(values.at("cpu0.trace.calls").u, values.at("cpu0.trace.entries").u);
  const std::string json = run.metrics.SnapshotJson();
  EXPECT_NE(json.find("\"cpu0.cycles\""), std::string::npos);
  EXPECT_NE(json.find("\"obs.profile.user\""), std::string::npos);
}

// The protection-subsystem collectors added for the head-to-head bench:
// each dormant subsystem (kext manager, SFI rewriter, BPF interpreter, RPC
// channel, dynamic linker) federates into the same registry namespace.
TEST(MetricsRegistry, ProtectionCollectorsCoverDormantSubsystems) {
  obs::MetricsRegistry registry;

  // Kext: one load, one invocation, one unload.
  {
    Machine machine;
    Kernel kernel(machine);
    KernelExtensionManager kext(kernel);
    AssembleError aerr;
    auto obj = Assemble(".global f\nf:\n  mov $7, %eax\n  ret\n", &aerr);
    ASSERT_TRUE(obj.has_value()) << aerr.ToString();
    std::string diag;
    auto ext = kext.LoadExtension("m", *obj, &diag);
    ASSERT_TRUE(ext.has_value()) << diag;
    auto fid = kext.FindFunction("m:f");
    ASSERT_TRUE(fid.has_value());
    ASSERT_TRUE(kext.Invoke(*fid, 0).ok);
    kext.UnloadExtension(*ext);
    registry.CollectKext(kext);
  }
  // SFI: stats from a real rewrite.
  {
    AssembleError aerr;
    auto obj = Assemble("  st %eax, 0(%ebx)\n  ret\n", &aerr);
    ASSERT_TRUE(obj.has_value()) << aerr.ToString();
    SfiOptions opt;
    opt.sandbox_base = 0x00400000;
    opt.sandbox_bits = 20;
    SfiStats stats;
    std::string diag;
    ASSERT_TRUE(SfiRewrite(*obj, opt, &stats, &diag).has_value()) << diag;
    registry.CollectSfi(stats);
  }
  // BPF: one packet through the host interpreter.
  {
    BpfProgram prog({{BpfOp::kRetK, 0, 0, 1}});
    std::string diag;
    ASSERT_TRUE(prog.Validate(&diag)) << diag;
    const u8 pkt[4] = {0, 0, 0, 0};
    BpfHostStats stats;
    BpfInterpretHost(prog, pkt, 4, &stats);
    registry.CollectBpf(stats);
  }
  // RPC: one request-reply transaction.
  {
    LocalRpcChannel rpc;
    rpc.Bind("echo", [](const std::vector<u8>& req) { return req; });
    ASSERT_TRUE(rpc.Call("echo", std::vector<u8>(32, 0xAB)).has_value());
    registry.CollectRpc(rpc);
  }
  // DL: one load, one unload.
  {
    Machine machine;
    Kernel kernel(machine);
    DynamicLinker dl(kernel);
    Pid pid = kernel.CreateProcess();
    ASSERT_NE(pid, 0u);
    AssembleError aerr;
    auto obj = Assemble(".global g\ng:\n  ret\n", &aerr);
    ASSERT_TRUE(obj.has_value()) << aerr.ToString();
    dl.RegisterObject("libg", *obj);
    std::string diag;
    ASSERT_TRUE(dl.LoadLibrary(pid, "libg", false, &diag).has_value()) << diag;
    ASSERT_TRUE(dl.UnloadLibrary(pid, "libg", &diag)) << diag;
    registry.CollectDl(dl);
  }

  const auto& values = registry.values();
  for (const char* key :
       {"kext.loads", "kext.unloads", "kext.invocations", "kext.aborts",
        "kext.invoke_cycles", "sfi.original_insns", "sfi.rewritten_insns",
        "sfi.sandboxed_memory_ops", "sfi.sandboxed_indirect_jumps",
        "sfi.expansion", "bpf.packets", "bpf.insns", "bpf.bad_accesses",
        "rpc.calls", "rpc.bytes_marshalled", "rpc.cycles",
        "rpc.context_switches_per_call", "rpc.domain_crossings_per_call",
        "dl.loads", "dl.unloads"}) {
    EXPECT_EQ(values.count(key), 1u) << "missing metric " << key;
  }
  EXPECT_EQ(values.at("kext.loads").u, 1u);
  EXPECT_EQ(values.at("kext.unloads").u, 1u);
  EXPECT_EQ(values.at("kext.invocations").u, 1u);
  EXPECT_EQ(values.at("kext.aborts").u, 0u);
  EXPECT_GT(values.at("kext.invoke_cycles").u, 0u);
  EXPECT_EQ(values.at("sfi.sandboxed_memory_ops").u, 1u);
  EXPECT_EQ(values.at("bpf.packets").u, 1u);
  EXPECT_EQ(values.at("rpc.calls").u, 1u);
  EXPECT_EQ(values.at("rpc.bytes_marshalled").u, 64u) << "32 B each direction";
  EXPECT_EQ(values.at("dl.loads").u, 1u);
  EXPECT_EQ(values.at("dl.unloads").u, 1u);
}

// Attaching the full telemetry stack must not move a single simulated cycle
// of a protected kext invocation: same return value, same cycle charge.
TEST(Observability, KextInvokeCycleIdenticalWithRecorderAttached) {
  auto run = [](bool observed, u64* invoke_cycles) -> u32 {
    Machine machine;
    Kernel kernel(machine);
    obs::FlightRecorder recorder;
    obs::CycleProfile profiler;
    if (observed) {
      recorder.Reset(machine.num_cpus());
      profiler.Reset(machine.num_cpus(), /*tlb_miss_penalty=*/0);
      kernel.AttachObservability(&recorder, &profiler);
    }
    KernelExtensionManager kext(kernel);
    AssembleError aerr;
    auto obj = Assemble(R"(
  .global f
f:
  push %ebp
  mov %esp, %ebp
  ld 8(%ebp), %eax
  add $3, %eax
  pop %ebp
  ret
)",
                        &aerr);
    EXPECT_TRUE(obj.has_value()) << aerr.ToString();
    std::string diag;
    auto ext = kext.LoadExtension("m", *obj, &diag);
    EXPECT_TRUE(ext.has_value()) << diag;
    auto fid = kext.FindFunction("m:f");
    EXPECT_TRUE(fid.has_value());
    auto r = kext.Invoke(*fid, 39);
    EXPECT_TRUE(r.ok) << r.error;
    *invoke_cycles = kext.invoke_cycles();
    return r.value;
  };
  u64 bare_cycles = 0, observed_cycles = 0;
  const u32 bare = run(false, &bare_cycles);
  const u32 observed = run(true, &observed_cycles);
  EXPECT_EQ(bare, 42u);
  EXPECT_EQ(observed, bare);
  EXPECT_GT(bare_cycles, 0u);
  EXPECT_EQ(observed_cycles, bare_cycles) << "telemetry perturbed the protected crossing";
}

}  // namespace
}  // namespace palladium
