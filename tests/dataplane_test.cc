// Dataplane tests: NIC RX interrupt -> protected filter extension ->
// per-process queue -> blocking pkt_recv -> pkt_send TX, cross-checked
// against host-side filter evaluation; queue overflow accounting; a runaway
// filter asynchronously killed by the timer watchdog while traffic keeps
// flowing on other flows; and the interrupt-driven multi-worker web server.
#include <gtest/gtest.h>

#include "src/asm/assembler.h"
#include "src/core/kernel_ext.h"
#include "src/filter/filter.h"
#include "src/hw/nic.h"
#include "src/hw/runtime_config.h"
#include "src/kernel/sched.h"
#include "src/net/dataplane.h"
#include "src/net/packet.h"
#include "src/web/server_sim.h"
#include "tests/kernel_test_util.h"

namespace palladium {
namespace {

struct DataplaneFixture {
  KernelFixture f;
  Scheduler sched;
  KernelExtensionManager kext;
  Nic nic;
  PacketDataplane dataplane;
  bool shutdown_issued = false;

  DataplaneFixture()
      : sched(f.kernel()),
        kext(f.kernel()),
        nic(f.machine().pm(), f.kernel().pic(), kIrqNic),
        dataplane(f.kernel(), kext, nic) {
    sched.set_idle_hook([this]() {
      if (shutdown_issued) return false;
      shutdown_issued = true;
      dataplane.Shutdown();
      return true;
    });
  }

  // The canonical echo worker from dataplane.h — shared with bench_dataplane.
  Pid SpawnEchoWorker(std::string* diag) {
    Pid pid = f.LoadProgram(kPktEchoWorkerSource, diag);
    if (pid != 0) sched.AddProcess(pid);
    return pid;
  }
};

TEST(Dataplane, EndToEndFilteredDeliveryMatchesHostGroundTruth) {
  DataplaneFixture fx;
  std::string diag;
  Pid w1 = fx.SpawnEchoWorker(&diag);
  ASSERT_NE(w1, 0u) << diag;
  Pid w2 = fx.SpawnEchoWorker(&diag);
  ASSERT_NE(w2, 0u) << diag;

  const std::string filter_text = "ip.proto == 6 && tcp.dport == 7777";
  ASSERT_TRUE(fx.dataplane.AddFlow("f7777", filter_text, {w1, w2}, &diag)) << diag;
  auto expr = ParseFilter(filter_text, &diag);
  ASSERT_TRUE(expr.has_value());

  // A deterministic mixed trace; count host-side ground truth as we inject.
  PacketSpec match;
  match.proto = kIpProtoTcp;
  match.dst_port = 7777;
  TraceGenerator gen(99, match, 0.4);
  u32 expected_matches = 0;
  const u32 kTotal = 40;
  u64 at = 5'000;
  for (u32 i = 0; i < kTotal; ++i) {
    bool unused = false;
    auto frame = BuildPacket(gen.Next(&unused));
    if (EvalFilterHost(*expr, frame.data(), static_cast<u32>(frame.size()))) {
      ++expected_matches;
    }
    fx.nic.Inject(frame.data(), static_cast<u32>(frame.size()), at);
    at += 3'000;
  }
  ASSERT_GT(expected_matches, 0u);
  ASSERT_LT(expected_matches, kTotal);

  auto result = fx.sched.RunAll(2'000'000'000ull);
  EXPECT_EQ(result.exited, 2u) << "both workers must drain and exit";

  const auto& stats = fx.dataplane.stats();
  EXPECT_EQ(stats.rx_frames, kTotal);
  EXPECT_EQ(stats.matched, expected_matches) << "protected filter agrees with host eval";
  EXPECT_EQ(stats.delivered, expected_matches);
  EXPECT_EQ(stats.dropped_no_match, kTotal - expected_matches);
  EXPECT_EQ(stats.tx_frames, expected_matches) << "every delivered frame was echoed to TX";
  EXPECT_EQ(fx.nic.tx_frames().size(), expected_matches);

  // Round-robin across workers: both served some share.
  const i32 s1 = fx.f.kernel().process(w1)->exit_code;
  const i32 s2 = fx.f.kernel().process(w2)->exit_code;
  EXPECT_EQ(static_cast<u32>(s1 + s2), expected_matches);
  EXPECT_GT(s1, 0);
  EXPECT_GT(s2, 0);
  EXPECT_GT(fx.f.kernel().pic().delivered(kIrqNic), 0u);
}

TEST(Dataplane, QueueOverflowDropsAndAccounts) {
  DataplaneFixture fx;
  std::string diag;
  Pid w = fx.SpawnEchoWorker(&diag);
  ASSERT_NE(w, 0u) << diag;
  fx.f.kernel().process(w)->pkt_queue_limit = 2;
  ASSERT_TRUE(fx.dataplane.AddFlow("all", "ether.type == 0x0800", {w}, &diag)) << diag;

  PacketSpec spec;
  auto frame = BuildPacket(spec);
  // A burst landing in one ServiceRx drain: only queue_limit fit.
  for (u32 i = 0; i < 8; ++i) {
    fx.nic.Inject(frame.data(), static_cast<u32>(frame.size()), 1'000);
  }
  auto result = fx.sched.RunAll(1'000'000'000ull);
  EXPECT_EQ(result.exited, 1u);
  const auto& stats = fx.dataplane.stats();
  // Backpressure: once the only destination saturates (queue_limit = 2, the
  // worker can't run mid-drain), the remaining frames drop *before* paying a
  // protected crossing — they are never counted matched.
  EXPECT_EQ(stats.matched, 2u);
  EXPECT_EQ(stats.delivered, 2u);
  EXPECT_EQ(stats.dropped_queue_full, 6u);
  EXPECT_EQ(stats.filter_calls_avoided, 6u);
  EXPECT_EQ(fx.f.kernel().process(w)->pkts_dropped, stats.dropped_queue_full);
  EXPECT_EQ(static_cast<u64>(fx.f.kernel().process(w)->exit_code), stats.delivered);
}

// The acceptance demo: a deliberately looping filter extension on flow 0 is
// asynchronously killed by the timer watchdog; the flow dies, classification
// falls through to the healthy flow, and the workers keep serving traffic.
TEST(Dataplane, RunawayFilterKilledByWatchdogWhileTrafficContinues) {
  DataplaneFixture fx;
  std::string diag;
  Pid w = fx.SpawnEchoWorker(&diag);
  ASSERT_NE(w, 0u) << diag;

  AssembleError aerr;
  auto runaway = Assemble(R"(
  .global filter_run
filter_run:
  mov $1, %eax
forever:
  add $1, %eax
  jmp forever
  .data
  .global pd_shared
pd_shared:
  .space 2064
)",
                          &aerr);
  ASSERT_TRUE(runaway.has_value()) << aerr.ToString();
  KextOptions opts;
  opts.cycle_limit = 150'000;
  auto ext = fx.kext.LoadExtension("runaway", *runaway, &diag, opts);
  ASSERT_TRUE(ext.has_value()) << diag;
  auto fid = fx.kext.FindFunction("runaway:filter_run");
  ASSERT_TRUE(fid.has_value());
  ASSERT_TRUE(fx.dataplane.AddFlowFunction("runaway", *ext, *fid, {w}));
  ASSERT_TRUE(fx.dataplane.AddFlow("all", "ether.type == 0x0800", {w}, &diag)) << diag;

  PacketSpec spec;
  auto frame = BuildPacket(spec);
  const u32 kTotal = 6;
  for (u32 i = 0; i < kTotal; ++i) {
    fx.nic.Inject(frame.data(), static_cast<u32>(frame.size()), 2'000 + i * 2'000);
  }
  auto result = fx.sched.RunAll(2'000'000'000ull);
  EXPECT_EQ(result.exited, 1u);

  const auto& stats = fx.dataplane.stats();
  EXPECT_EQ(stats.filter_aborts, 1u) << "the runaway filter died exactly once";
  ASSERT_EQ(fx.dataplane.flows().size(), 2u);
  EXPECT_TRUE(fx.dataplane.flows()[0].dead);
  EXPECT_FALSE(fx.dataplane.flows()[1].dead);
  EXPECT_EQ(stats.delivered, kTotal) << "every frame reached the worker via the healthy flow";
  EXPECT_EQ(static_cast<u32>(fx.f.kernel().process(w)->exit_code), kTotal);
  // The kext manager recorded the watchdog abort.
  EXPECT_TRUE(fx.kext.extension(*ext)->aborted);
}

// Regression: an IRQ latched in the PIC right before the last runnable
// process blocks is a wakeup source — the scheduler's idle path must service
// it (host-side) instead of declaring deadlock.
TEST(Dataplane, LatchedIrqBeforeBlockIsNotADeadlock) {
  DataplaneFixture fx;
  std::string diag;
  // Syscall 234: on first entry it latches the NIC line *and blocks in the
  // same gate entry* (so the IRQ can never be delivered to a running
  // context — only the scheduler's idle path can service it); the restarted
  // call returns 42.
  Pid w = fx.f.LoadProgram(R"(
  .global main
main:
  mov $234, %eax
  int $0x80
  mov %eax, %ebx          ; exit code = syscall result (42 after the wake)
  mov $SYS_EXIT, %eax
  int $0x80
)",
                           &diag);
  ASSERT_NE(w, 0u) << diag;
  fx.sched.AddProcess(w);
  bool raised_once = false;
  fx.f.kernel().RegisterSyscall(234, [&](Kernel& k, u32, u32, u32) {
    if (!raised_once) {
      raised_once = true;
      k.pic().Raise(kIrqNic);
      k.BlockCurrentForRestart();
      return;
    }
    k.ReturnFromGate(42);
  });
  // Replace the dataplane's NIC handler: wake the blocked worker.
  bool handler_ran = false;
  fx.f.kernel().RegisterIrqHandler(kIrqNic, [&](Kernel& k) {
    handler_ran = true;
    Process* proc = k.process(w);
    if (proc != nullptr && proc->state == ProcessState::kBlocked) k.WakeProcess(*proc);
  });
  auto result = fx.sched.RunAll(1'000'000'000ull);
  EXPECT_TRUE(handler_ran) << "the latched IRQ must be serviced from the idle path";
  EXPECT_FALSE(result.deadlocked);
  EXPECT_EQ(result.exited, 1u);
  EXPECT_EQ(fx.f.kernel().process(w)->exit_code, 42);
}

TEST(Dataplane, MultiWorkerWebServerServesAllClients) {
  MultiServerConfig cfg;
  cfg.workers = 3;
  cfg.clients = 5;
  cfg.total_requests = 30;
  MultiServerResult r = RunMultiWorkerServer(cfg);
  EXPECT_TRUE(r.ok) << r.diag;
  EXPECT_EQ(r.served, cfg.total_requests);
  EXPECT_EQ(r.parsed_requests, cfg.total_requests) << "every request went through HTTP parse";
  EXPECT_EQ(r.filter_invocations, cfg.total_requests);
  EXPECT_GT(r.nic_irqs, 0u);
  EXPECT_GT(r.timer_irqs, 0u);
  EXPECT_GT(r.requests_per_sec, 0.0);
  ASSERT_EQ(r.per_worker_served.size(), cfg.workers);
  i64 sum = 0;
  for (i32 s : r.per_worker_served) {
    EXPECT_GE(s, 0) << "every worker exited cleanly";
    sum += s;
  }
  EXPECT_EQ(static_cast<u64>(sum), r.served);
}

// ---------------------------------------------------------------------------
// Differential tests: the NAPI/batched fast path against the per-frame oracle.

// Runs a complete echo scenario under an explicit dataplane config on a fresh
// 1-vCPU machine and returns the accounting. Both modes use the same batched
// worker so the only variable is the dataplane pipeline itself.
struct ScenarioOutcome {
  PacketDataplane::Stats stats;
  std::vector<i32> exit_codes;  // per worker, spawn order
  u64 wire_tx = 0;              // frames that completed TX DMA
  u32 exited = 0;
};

ScenarioOutcome RunEchoScenario(const PacketDataplane::Config& dcfg, u32 workers,
                                u32 total_frames, u64 inter_arrival, u32 queue_limit) {
  ScenarioOutcome out;
  KernelFixture f(1);
  Scheduler sched(f.kernel());
  KernelExtensionManager kext(f.kernel());
  Nic nic(f.machine().pm(), f.kernel().pic(), kIrqNic);
  PacketDataplane dp(f.kernel(), kext, nic, dcfg);
  bool shutdown_issued = false;
  sched.set_idle_hook([&]() {
    if (shutdown_issued) return false;
    shutdown_issued = true;
    dp.Shutdown();
    return true;
  });
  std::string diag;
  std::vector<Pid> pids;
  for (u32 i = 0; i < workers; ++i) {
    Pid pid = f.LoadProgram(kPktEchoMWorkerSource, &diag);
    EXPECT_NE(pid, 0u) << diag;
    if (pid == 0) return out;
    if (queue_limit != 0) f.kernel().process(pid)->pkt_queue_limit = queue_limit;
    sched.AddProcess(pid);
    pids.push_back(pid);
  }
  EXPECT_TRUE(dp.AddFlow("f7777", "ip.proto == 6 && tcp.dport == 7777", pids, &diag)) << diag;

  PacketSpec match;
  match.proto = kIpProtoTcp;
  match.dst_port = 7777;
  TraceGenerator gen(2026, match, 0.6);
  u64 at = 5'000;
  for (u32 i = 0; i < total_frames; ++i) {
    bool unused = false;
    auto frame = BuildPacket(gen.Next(&unused));
    nic.Inject(frame.data(), static_cast<u32>(frame.size()), at);
    at += inter_arrival;
  }
  auto result = sched.RunAll(4'000'000'000ull);
  out.exited = result.exited;
  nic.FlushTx();  // retire in-flight TX DMA so the wire log is complete
  out.stats = dp.stats();
  out.wire_tx = nic.tx_frames().size();
  for (Pid pid : pids) out.exit_codes.push_back(f.kernel().process(pid)->exit_code);
  return out;
}

PacketDataplane::Config FastPathConfig() {
  PacketDataplane::Config cfg;
  cfg.napi = true;
  cfg.filter_batch = 32;
  cfg.rx_irq_moderation = 8'000;
  return cfg;
}

PacketDataplane::Config OracleConfig() {
  PacketDataplane::Config cfg;
  cfg.napi = false;
  cfg.filter_batch = 1;
  cfg.queues = 1;
  cfg.rx_irq_moderation = 0;
  return cfg;
}

TEST(Dataplane, NapiBatchedPathMatchesOracleAccounting) {
  auto fast = RunEchoScenario(FastPathConfig(), 2, 60, 900, 0);
  auto oracle = RunEchoScenario(OracleConfig(), 2, 60, 900, 0);
  EXPECT_EQ(fast.exited, 2u);
  EXPECT_EQ(oracle.exited, 2u);

  // Byte-identical served/dropped/match accounting (the modes may differ in
  // crossings and interrupts — that is the point — but never in outcomes).
  EXPECT_EQ(fast.stats.rx_frames, oracle.stats.rx_frames);
  EXPECT_EQ(fast.stats.filter_frames, oracle.stats.filter_frames);
  EXPECT_EQ(fast.stats.matched, oracle.stats.matched);
  EXPECT_EQ(fast.stats.delivered, oracle.stats.delivered);
  EXPECT_EQ(fast.stats.dropped_no_match, oracle.stats.dropped_no_match);
  EXPECT_EQ(fast.stats.dropped_queue_full, oracle.stats.dropped_queue_full);
  EXPECT_EQ(fast.stats.dropped_dead_dest, oracle.stats.dropped_dead_dest);
  EXPECT_EQ(fast.stats.tx_frames, oracle.stats.tx_frames);
  EXPECT_EQ(fast.wire_tx, oracle.wire_tx);
  // Same per-worker delivery sequence, not just the same totals.
  EXPECT_EQ(fast.exit_codes, oracle.exit_codes);
  EXPECT_EQ(fast.stats.rx_frames, 60u);
  EXPECT_EQ(fast.stats.dropped_queue_full, 0u);

  if (RuntimeConfig::FromEnv().napi) {
    // And the fast path actually ran fast: batched crossings, fewer IRQs.
    EXPECT_GT(fast.stats.filter_batches, 0u);
    EXPECT_LT(fast.stats.filter_invocations, oracle.stats.filter_invocations);
    EXPECT_LT(fast.stats.nic_irqs, oracle.stats.nic_irqs);
    EXPECT_EQ(oracle.stats.filter_invocations, oracle.stats.filter_frames)
        << "the oracle pays one protected crossing per frame";
  }
}

TEST(Dataplane, OverflowAccountingMatchesOracleUnderBurst) {
  // A same-cycle burst into a 3-deep queue: both modes must agree exactly on
  // what was matched, delivered, and dropped. (filter_frames may differ: the
  // batch mode classifies the whole burst before discovering saturation,
  // while the oracle's entry check avoids those crossings — but the outcome
  // accounting runs the identical per-frame state machine.)
  auto fast = RunEchoScenario(FastPathConfig(), 1, 10, 0, 3);
  auto oracle = RunEchoScenario(OracleConfig(), 1, 10, 0, 3);
  EXPECT_EQ(fast.exited, 1u);
  EXPECT_EQ(oracle.exited, 1u);
  EXPECT_EQ(fast.stats.rx_frames, 10u);
  EXPECT_EQ(oracle.stats.rx_frames, 10u);
  EXPECT_EQ(fast.stats.matched, oracle.stats.matched);
  EXPECT_EQ(fast.stats.delivered, oracle.stats.delivered);
  EXPECT_EQ(fast.stats.dropped_no_match, oracle.stats.dropped_no_match);
  EXPECT_EQ(fast.stats.dropped_queue_full, oracle.stats.dropped_queue_full);
  EXPECT_EQ(fast.stats.filter_calls_avoided, oracle.stats.filter_calls_avoided);
  EXPECT_EQ(fast.stats.tx_frames, oracle.stats.tx_frames);
  EXPECT_EQ(fast.exit_codes, oracle.exit_codes);
  EXPECT_GT(fast.stats.dropped_queue_full, 0u) << "the burst must actually overflow";
  EXPECT_GE(fast.stats.filter_frames, oracle.stats.filter_frames);
}

// Multi-queue RSS: on a 4-vCPU machine with 4 RX queues, the hardware hash
// spreads wire flows across queues and every queue interrupts its own core's
// local PIC — no core is a dataplane bottleneck or bystander.
TEST(Dataplane, MultiQueueRssSpreadsIrqsAcrossCores) {
  if (!RuntimeConfig::FromEnv().napi) {
    GTEST_SKIP() << "oracle mode forces a single queue";
  }
  KernelFixture f(4);
  Scheduler sched(f.kernel());
  KernelExtensionManager kext(f.kernel());
  Nic nic(f.machine().pm(), f.kernel().pic(), kIrqNic);
  PacketDataplane::Config dcfg;
  dcfg.queues = 4;
  dcfg.napi = true;
  dcfg.filter_batch = 8;
  dcfg.steering = FlowSteering::kFlowHash;
  PacketDataplane dp(f.kernel(), kext, nic, dcfg);
  ASSERT_EQ(dp.config().queues, 4u);
  bool shutdown_issued = false;
  sched.set_idle_hook([&]() {
    if (shutdown_issued) return false;
    shutdown_issued = true;
    dp.Shutdown();
    return true;
  });
  std::string diag;
  std::vector<Pid> pids;
  for (u32 i = 0; i < 4; ++i) {
    Pid pid = f.LoadProgram(kPktEchoMWorkerSource, &diag);
    ASSERT_NE(pid, 0u) << diag;
    sched.AddProcess(pid);  // round-robin homes: worker i on vCPU i
    pids.push_back(pid);
  }
  ASSERT_TRUE(dp.AddFlow("f7777", "ip.proto == 6 && tcp.dport == 7777", pids, &diag)) << diag;

  const u32 kTotal = 64;
  for (u32 i = 0; i < kTotal; ++i) {
    PacketSpec spec;
    spec.proto = kIpProtoTcp;
    spec.dst_port = 7777;
    spec.src_port = static_cast<u16>(1024 + i * 7);
    spec.src_ip = 0x0A000001 + (i % 13);
    auto frame = BuildPacket(spec);
    nic.Inject(frame.data(), static_cast<u32>(frame.size()), 5'000 + i * 1'500);
  }
  auto result = sched.RunAll(4'000'000'000ull);
  EXPECT_EQ(result.exited, 4u);

  const auto& stats = dp.stats();
  EXPECT_EQ(stats.rx_frames, kTotal);
  EXPECT_EQ(stats.matched, kTotal);
  EXPECT_EQ(stats.delivered, kTotal);
  EXPECT_EQ(stats.dropped_queue_full, 0u);
  EXPECT_EQ(stats.dropped_dead_dest, 0u);
  // Every core took RX interrupts from its own queue — the RSS hash spread
  // the 64 distinct 5-tuples across all four queue/core pairs.
  for (u32 c = 0; c < 4; ++c) {
    EXPECT_GT(f.kernel().pic(c).delivered(kIrqNic), 0u) << "core " << c;
  }
  i64 sum = 0;
  for (Pid pid : pids) {
    const i32 served = f.kernel().process(pid)->exit_code;
    EXPECT_GE(served, 0);
    sum += served;
  }
  EXPECT_EQ(static_cast<u64>(sum), stats.delivered);
}

// A filter extension invokes a kernel service (INT 0x81) whose host side
// calls Shutdown() *while ClassifyFrames is mid-batch on the stack*, waking
// the worker blocked in pkt_recv. Shutdown must not classify anything
// itself (a re-entrant ClassifyFrames would nest a protected Invoke inside
// the running one), nothing may deadlock, and every frame is still
// classified and delivered exactly once: the worker drains its queue before
// it sees kErrShutdown.
TEST(Dataplane, ShutdownFromFilterContextCannotReenterClassification) {
  KernelFixture f(1);
  Scheduler sched(f.kernel());
  KernelExtensionManager kext(f.kernel());
  Nic nic(f.machine().pm(), f.kernel().pic(), kIrqNic);
  PacketDataplane dp(f.kernel(), kext, nic);
  std::string diag;
  Pid w = f.LoadProgram(kPktEchoWorkerSource, &diag);
  ASSERT_NE(w, 0u) << diag;
  sched.AddProcess(w);

  u32 service_calls = 0;
  kext.RegisterService(500, [&](Kernel&, u32, u32, u32) -> u32 {
    ++service_calls;
    dp.Shutdown();  // from filter context, mid-classification
    return 0;
  });
  AssembleError aerr;
  auto kill_switch = Assemble(R"(
  .global filter_run
filter_run:
  mov $500, %eax
  int $0x81
  mov $1, %eax
  ret
  .data
  .global pd_shared
pd_shared:
  .space 2064
)",
                              &aerr);
  ASSERT_TRUE(kill_switch.has_value()) << aerr.ToString();
  auto ext = kext.LoadExtension("killswitch", *kill_switch, &diag);
  ASSERT_TRUE(ext.has_value()) << diag;
  auto fid = kext.FindFunction("killswitch:filter_run");
  ASSERT_TRUE(fid.has_value());
  ASSERT_TRUE(dp.AddFlowFunction("killswitch", *ext, *fid, {w}));

  PacketSpec spec;
  auto frame = BuildPacket(spec);
  const u32 kTotal = 6;
  for (u32 i = 0; i < kTotal; ++i) {
    nic.Inject(frame.data(), static_cast<u32>(frame.size()), 1'000);
  }
  auto result = sched.RunAll(1'000'000'000ull);
  EXPECT_FALSE(result.deadlocked);
  EXPECT_EQ(result.exited, 1u);

  EXPECT_GT(service_calls, 0u) << "the filter reached the kernel service";
  EXPECT_TRUE(dp.shutdown());
  const auto& stats = dp.stats();
  EXPECT_EQ(stats.filter_aborts, 0u) << "the service call is legal, not a violation";
  EXPECT_EQ(stats.filter_frames, kTotal) << "each frame classified exactly once";
  EXPECT_EQ(stats.delivered, kTotal);
  EXPECT_EQ(static_cast<u64>(f.kernel().process(w)->exit_code), kTotal);
}

// The batched filter entry point is generated code: cross-check its match
// bitmap, record by record, against both the host evaluator and the
// single-frame entry point over a mixed trace staged directly in pd_shared.
TEST(Dataplane, BatchFilterCodegenMatchesHostEval) {
  KernelFixture f(1);
  KernelExtensionManager kext(f.kernel());
  std::string diag;
  const std::string filter_text = "ip.proto == 6 && tcp.dport == 7777";
  auto expr = ParseFilter(filter_text, &diag);
  ASSERT_TRUE(expr.has_value()) << diag;

  // The same layout AddFlow programs: records every stride bytes from +16.
  const u32 buf_stride = 2048;
  const u32 stride = 4 + ((buf_stride + 3) & ~3u);
  const u32 capacity = std::max(buf_stride + 16, kFilterBatchBase + kMaxFilterBatch * stride);
  AssembleError aerr;
  auto obj = Assemble(CompileFilterToAsm(*expr, capacity, stride), &aerr);
  ASSERT_TRUE(obj.has_value()) << aerr.ToString();
  auto ext = kext.LoadExtension("bf", *obj, &diag);
  ASSERT_TRUE(ext.has_value()) << diag;
  auto single = kext.FindFunction("bf:filter_run");
  auto batch = kext.FindFunction("bf:filter_run_batch");
  ASSERT_TRUE(single.has_value());
  ASSERT_TRUE(batch.has_value()) << "compiled filters must export the batch entry";

  PacketSpec match;
  match.proto = kIpProtoTcp;
  match.dst_port = 7777;
  TraceGenerator gen(7, match, 0.5);
  const u32 kBatch = 12;
  std::vector<std::vector<u8>> frames;
  u32 expected_bitmap = 0;
  for (u32 j = 0; j < kBatch; ++j) {
    bool unused = false;
    frames.push_back(BuildPacket(gen.Next(&unused)));
    if (EvalFilterHost(*expr, frames[j].data(), static_cast<u32>(frames[j].size()))) {
      expected_bitmap |= 1u << j;
    }
  }
  ASSERT_NE(expected_bitmap, 0u);
  ASSERT_NE(expected_bitmap, (1u << kBatch) - 1);

  // Batch ABI: count at +0, [u32 len][bytes] records at +16 + j * stride.
  ASSERT_TRUE(kext.WriteShared(*ext, 0, &kBatch, 4));
  for (u32 j = 0; j < kBatch; ++j) {
    const u32 len = static_cast<u32>(frames[j].size());
    const u32 base = kFilterBatchBase + j * stride;
    ASSERT_TRUE(kext.WriteShared(*ext, base, &len, 4));
    ASSERT_TRUE(kext.WriteShared(*ext, base + 4, frames[j].data(), len));
  }
  auto r = kext.Invoke(*batch, kBatch);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.value, expected_bitmap);

  // And frame by frame through the single-frame entry, same verdicts.
  for (u32 j = 0; j < kBatch; ++j) {
    const u32 len = static_cast<u32>(frames[j].size());
    ASSERT_TRUE(kext.WriteShared(*ext, 0, &len, 4));
    ASSERT_TRUE(kext.WriteShared(*ext, 4, frames[j].data(), len));
    auto s = kext.Invoke(*single, len);
    ASSERT_TRUE(s.ok) << s.error;
    EXPECT_EQ(s.value, (expected_bitmap >> j) & 1u) << "frame " << j;
  }
}

// ---------------------------------------------------------------------------
// Live filter upgrade under traffic.

// An echo worker that, after serving its 3rd frame, issues syscall 235 — the
// test wires that to PacketDataplane::UpgradeFlow, so the upgrade lands in
// the middle of the packet stream, between protected filter invocations.
constexpr char kUpgradingEchoWorkerSource[] = R"(
  .global main
main:
  mov $90, %eax           ; SYS_MMAP
  mov $0, %ebx
  mov $4096, %ecx
  mov $3, %edx
  int $0x80
  mov %eax, %esi          ; packet buffer
  mov $0, %edi            ; served counter
loop:
  mov $220, %eax          ; SYS_PKT_RECV
  mov %esi, %ebx
  mov $2048, %ecx
  mov $0, %edx
  int $0x80
  cmp $0, %eax
  jl done
  mov %eax, %ecx
  mov $221, %eax          ; SYS_PKT_SEND
  mov %esi, %ebx
  int $0x80
  inc %edi
  cmp $3, %edi
  jne loop
  mov $235, %eax          ; 3rd frame served: request the filter upgrade
  int $0x80
  jmp loop
done:
  mov $1, %eax            ; SYS_EXIT
  mov %edi, %ebx
  int $0x80
)";

// One echo run over a fixed mixed trace where the worker's syscall 235
// either live-upgrades flow f7777 (to an identical-semantics v2) or is a
// no-op. Everything else — trace, worker, timing — is held constant.
ScenarioOutcome RunLiveUpgradeScenario(bool upgrade, u64* flow_upgrades) {
  ScenarioOutcome out;
  KernelFixture f(1);
  Scheduler sched(f.kernel());
  KernelExtensionManager kext(f.kernel());
  Nic nic(f.machine().pm(), f.kernel().pic(), kIrqNic);
  PacketDataplane dp(f.kernel(), kext, nic);
  bool shutdown_issued = false;
  sched.set_idle_hook([&]() {
    if (shutdown_issued) return false;
    shutdown_issued = true;
    dp.Shutdown();
    return true;
  });
  std::string diag;
  Pid w = f.LoadProgram(kUpgradingEchoWorkerSource, &diag);
  EXPECT_NE(w, 0u) << diag;
  if (w == 0) return out;
  sched.AddProcess(w);
  const std::string filter_text = "ip.proto == 6 && tcp.dport == 7777";
  f.kernel().RegisterSyscall(235, [&](Kernel& k, u32, u32, u32) {
    if (upgrade) {
      std::string d2;
      EXPECT_TRUE(dp.UpgradeFlow("f7777", filter_text, &d2)) << d2;
    }
    k.ReturnFromGate(0);
  });
  EXPECT_TRUE(dp.AddFlow("f7777", filter_text, {w}, &diag)) << diag;

  PacketSpec match;
  match.proto = kIpProtoTcp;
  match.dst_port = 7777;
  TraceGenerator gen(424242, match, 0.5);
  u64 at = 5'000;
  for (u32 i = 0; i < 40; ++i) {
    bool unused = false;
    auto frame = BuildPacket(gen.Next(&unused));
    nic.Inject(frame.data(), static_cast<u32>(frame.size()), at);
    at += 3'000;
  }
  auto result = sched.RunAll(2'000'000'000ull);
  out.exited = result.exited;
  nic.FlushTx();
  out.stats = dp.stats();
  out.wire_tx = nic.tx_frames().size();
  out.exit_codes.push_back(f.kernel().process(w)->exit_code);
  *flow_upgrades = dp.stats().flow_upgrades;
  return out;
}

// The tentpole scenario: v2 of the filter is loaded, atomically switched in,
// and v1 unloaded — all while frames keep arriving. Zero frames may be lost
// to the upgrade, and the accounting must be byte-identical to a control run
// that never upgrades.
TEST(DataplaneUpgrade, LiveUpgradeUnderTrafficZeroDropsMatchesControl) {
  u64 upgraded_count = 0, control_count = 0;
  auto upgraded = RunLiveUpgradeScenario(true, &upgraded_count);
  auto control = RunLiveUpgradeScenario(false, &control_count);
  EXPECT_EQ(upgraded.exited, 1u);
  EXPECT_EQ(control.exited, 1u);
  EXPECT_EQ(upgraded_count, 1u) << "the upgrade must actually have happened";
  EXPECT_EQ(control_count, 0u);

  EXPECT_EQ(upgraded.stats.rx_frames, 40u);
  EXPECT_EQ(upgraded.stats.rx_frames, control.stats.rx_frames);
  EXPECT_EQ(upgraded.stats.matched, control.stats.matched);
  EXPECT_EQ(upgraded.stats.delivered, control.stats.delivered);
  EXPECT_EQ(upgraded.stats.dropped_no_match, control.stats.dropped_no_match);
  EXPECT_EQ(upgraded.stats.dropped_queue_full, 0u);
  EXPECT_EQ(control.stats.dropped_queue_full, 0u);
  EXPECT_EQ(upgraded.stats.dropped_dead_dest, 0u);
  EXPECT_EQ(upgraded.stats.tx_frames, control.stats.tx_frames);
  EXPECT_EQ(upgraded.wire_tx, control.wire_tx);
  EXPECT_EQ(upgraded.exit_codes, control.exit_codes);
  EXPECT_GT(upgraded.stats.delivered, 3u) << "the upgrade fired mid-stream";
  EXPECT_EQ(upgraded.stats.filter_aborts, 0u);
}

// Upgrade to *different* semantics, twice, in drained phases so each wave's
// verdict is attributable to exactly one filter version. The second upgrade
// lands v3 at v1's reclaimed kext region — the regression pin: a stale
// decoded block, trace, or D-TLB entry from the v1 image at that linear base
// would classify wave C with v1's (or garbage) semantics.
TEST(DataplaneUpgrade, UpgradeChangesVerdictsAndReusedRegionRunsNewCode) {
  DataplaneFixture fx;
  std::string diag;
  Pid w = fx.SpawnEchoWorker(&diag);
  ASSERT_NE(w, 0u) << diag;
  ASSERT_TRUE(fx.dataplane.AddFlow("f", "ip.proto == 6 && tcp.dport == 7777", {w}, &diag))
      << diag;
  const u32 v1_base = fx.kext.extension(fx.dataplane.flows()[0].ext_id)->linear_base;

  auto inject_wave = [&]() {
    for (u16 port : {7777, 8888, 9999}) {
      PacketSpec spec;
      spec.proto = kIpProtoTcp;
      spec.dst_port = port;
      auto frame = BuildPacket(spec);
      for (u32 i = 0; i < 4; ++i) {
        fx.nic.Inject(frame.data(), static_cast<u32>(frame.size()), 0);
      }
    }
  };
  u32 v3_base = 0;
  u32 phase = 0;
  fx.sched.set_idle_hook([&]() {
    ++phase;
    std::string d2;
    if (phase == 1) {  // wave A fully classified by v1
      EXPECT_TRUE(fx.dataplane.UpgradeFlow("f", "ip.proto == 6 && tcp.dport == 8888", &d2))
          << d2;
      inject_wave();
      return true;
    }
    if (phase == 2) {  // wave B fully classified by v2
      EXPECT_TRUE(fx.dataplane.UpgradeFlow("f", "ip.proto == 6 && tcp.dport == 9999", &d2))
          << d2;
      v3_base = fx.kext.extension(fx.dataplane.flows()[0].ext_id)->linear_base;
      inject_wave();
      return true;
    }
    if (phase == 3) {
      fx.dataplane.Shutdown();
      return true;
    }
    return false;
  });

  inject_wave();  // wave A
  auto result = fx.sched.RunAll(4'000'000'000ull);
  EXPECT_EQ(result.exited, 1u);
  EXPECT_FALSE(result.deadlocked);

  // v1 was unloaded when v2 arrived, so v3's first-fit allocation reclaims
  // v1's region: the new code runs at the very addresses the machine spent
  // wave A executing v1 from.
  EXPECT_EQ(v3_base, v1_base) << "expected the upgrade to reuse the freed kext region";

  const auto& stats = fx.dataplane.stats();
  EXPECT_EQ(stats.flow_upgrades, 2u);
  EXPECT_EQ(stats.rx_frames, 36u);
  EXPECT_EQ(stats.matched, 12u) << "each wave matched exactly its version's port";
  EXPECT_EQ(stats.delivered, 12u);
  EXPECT_EQ(stats.dropped_no_match, 24u);
  EXPECT_EQ(stats.dropped_queue_full, 0u);
  EXPECT_EQ(stats.filter_aborts, 0u);
  EXPECT_EQ(static_cast<u32>(fx.f.kernel().process(w)->exit_code), 12u);
}

}  // namespace
}  // namespace palladium
