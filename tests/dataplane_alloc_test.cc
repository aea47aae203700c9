// The dataplane's steady-state frame path: heap allocations per frame, and
// the one-copy staging of filter records. This is its own binary because it
// replaces the global operator new with a counting one.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <new>
#include <set>

#include "src/core/kernel_ext.h"
#include "src/filter/filter.h"
#include "src/hw/nic.h"
#include "src/kernel/sched.h"
#include "src/net/dataplane.h"
#include "src/net/packet.h"
#include "tests/kernel_test_util.h"

namespace {
size_t g_allocations = 0;
}  // namespace

void* operator new(std::size_t n) {
  ++g_allocations;
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace palladium {
namespace {

constexpr char kMatchFilter[] = "ip.proto == 6 && tcp.dport == 7777";
constexpr char kOtherFilter[] = "ip.proto == 17";

// Frame i: TCP to port 7777 (flow 0), UDP (flow 1) or TCP to port 80 (no
// flow), with i in the first four payload bytes.
std::vector<u8> TestFrame(u32 i, u16 payload_len) {
  PacketSpec spec;
  spec.src_port = static_cast<u16>(1024 + i % 512);
  spec.payload_len = payload_len;
  switch (i % 4) {
    case 0:
    case 1:
      spec.dst_port = 7777;
      break;
    case 2:
      spec.proto = kIpProtoUdp;
      break;
    default:
      break;
  }
  std::vector<u8> frame = BuildPacket(spec);
  std::memcpy(frame.data() + PayloadOffset(spec.proto), &i, 4);
  return frame;
}

bool MatchesAnyFlow(const std::vector<u8>& frame) {
  std::string diag;
  const auto a = ParseFilter(kMatchFilter, &diag);
  const auto b = ParseFilter(kOtherFilter, &diag);
  const u32 len = static_cast<u32>(frame.size());
  return EvalFilterHost(*a, frame.data(), len) || EvalFilterHost(*b, frame.data(), len);
}

// A 1-vCPU NAPI dataplane with four pkt_recvm/pkt_sendm echo workers, two
// flows and no tx hook.
struct EchoDataplane {
  KernelFixture f{1};
  Scheduler sched{f.kernel()};
  KernelExtensionManager kext{f.kernel()};
  Nic nic{f.machine().pm(), f.kernel().pic(), kIrqNic};
  PacketDataplane dp;

  explicit EchoDataplane(const PacketDataplane::Config& cfg) : dp(f.kernel(), kext, nic, cfg) {
    std::string diag;
    std::vector<Pid> pids;
    for (u32 i = 0; i < 4; ++i) {
      const Pid pid = f.LoadProgram(kPktEchoMWorkerSource, &diag);
      EXPECT_NE(pid, 0u) << diag;
      sched.AddProcess(pid);
      pids.push_back(pid);
    }
    EXPECT_TRUE(dp.AddFlow("tcp7777", kMatchFilter, {pids[0], pids[1]}, &diag)) << diag;
    EXPECT_TRUE(dp.AddFlow("udp", kOtherFilter, {pids[2], pids[3]}, &diag)) << diag;
  }

  // Injects frames first..first+count-1, `gap` cycles apart from `at`.
  void Inject(u32 first, u32 count, u16 payload_len, u64 at, u64 gap) {
    for (u32 i = first; i < first + count; ++i) {
      const std::vector<u8> frame = TestFrame(i, payload_len);
      nic.Inject(frame.data(), static_cast<u32>(frame.size()), at);
      at += gap;
    }
  }
};

TEST(DataplaneAlloc, SteadyStateFramePathAllocatesAlmostNothing) {
  PacketDataplane::Config cfg;
  cfg.rx_irq_moderation = 8'000;
  EchoDataplane e(cfg);
  // Warm-up: the NIC's TX log turns over about four times. A recycled
  // buffer grows when it next holds a longer frame (UDP frames here are 12
  // bytes shorter than TCP ones), so only then has almost every buffer
  // reached its working size.
  constexpr u32 kWarmup = 24'000;
  constexpr u32 kMeasured = 16'000;
  constexpr u64 kGap = 2'000;
  e.Inject(0, kWarmup, 64, 5'000, kGap);
  u32 idle_calls = 0;
  size_t start = 0, end = 0;
  e.sched.set_idle_hook([&]() {
    ++idle_calls;
    if (idle_calls == 1) {
      // Every warm-up frame is served and every worker is parked in
      // pkt_recvm: queue the measured frames, then start counting.
      e.Inject(kWarmup, kMeasured, 64, e.f.machine().cpu().cycles() + kGap, kGap);
      start = g_allocations;
      return true;
    }
    if (idle_calls == 2) {
      end = g_allocations;
      e.dp.Shutdown();
      return true;
    }
    return false;
  });
  const auto result = e.sched.RunAll(20'000'000'000ull);
  ASSERT_EQ(result.exited, 4u);
  ASSERT_EQ(idle_calls, 2u);
  const auto& stats = e.dp.stats();
  ASSERT_EQ(stats.rx_frames, kWarmup + kMeasured);
  ASSERT_EQ(stats.dropped_queue_full, 0u);
  ASSERT_EQ(stats.delivered, (kWarmup + kMeasured) / 4 * 3);
  const double per_frame = static_cast<double>(end - start) / kMeasured;
  // What remains is std::deque node churn (process packet queues, the
  // scheduler's ready queue, the TX log and completion schedule): one node
  // per few dozen frames each.
  EXPECT_LE(per_frame, 0.25) << (end - start) << " heap allocations for " << kMeasured
                             << " frames";
}

// 1400-B frames in batches of 32: the batch records, batch_stride apart,
// cross page boundaries of the flow's shared area. Every verdict must still
// equal the host's, and the last batch's records must hold the frames.
TEST(DataplaneAlloc, FullBatchesOfLargeFramesMatchHostVerdicts) {
  PacketDataplane::Config cfg;
  EchoDataplane e(cfg);
  constexpr u32 kBursts = 8;
  constexpr u32 kBurst = PacketDataplane::kNapiPollBudget;
  constexpr u16 kPayload = 1400 - 54;
  u32 expected_matches = 0;
  for (u32 b = 0; b < kBursts; ++b) {
    // A whole ring's worth lands at once, so one poll classifies 32 frames.
    e.Inject(b * kBurst, kBurst, kPayload, 10'000 + b * 2'000'000ull, 0);
    for (u32 i = b * kBurst; i < (b + 1) * kBurst; ++i) {
      if (MatchesAnyFlow(TestFrame(i, kPayload))) ++expected_matches;
    }
  }
  bool shutdown_requested = false;
  e.sched.set_idle_hook([&]() {
    if (shutdown_requested) return false;
    shutdown_requested = true;
    e.dp.Shutdown();
    return true;
  });
  const auto result = e.sched.RunAll(20'000'000'000ull);
  e.nic.FlushTx();
  ASSERT_EQ(result.exited, 4u);
  const auto& stats = e.dp.stats();
  EXPECT_EQ(stats.rx_frames, kBursts * kBurst);
  EXPECT_EQ(stats.dropped_queue_full, 0u);
  EXPECT_EQ(stats.matched, expected_matches);
  EXPECT_EQ(stats.dropped_no_match, kBursts * kBurst - expected_matches);

  // The echoed frames are exactly the matching ones, intact.
  std::set<u32> echoed;
  for (const std::vector<u8>& frame : e.nic.tx_frames()) {
    u32 id = 0;
    std::memcpy(&id, frame.data() + PayloadOffset(frame[kOffIpProto]), 4);
    ASSERT_LT(id, kBursts * kBurst);
    EXPECT_EQ(frame, TestFrame(id, kPayload));
    EXPECT_TRUE(MatchesAnyFlow(frame)) << "frame " << id;
    echoed.insert(id);
  }
  EXPECT_EQ(echoed.size(), expected_matches);

  // The first flow is offered every frame, so its shared area holds the
  // last burst: all 32 records when batched, only the last frame (at +0)
  // in the per-frame oracle (PALLADIUM_NO_NAPI=1).
  const PacketDataplane::FlowInfo& flow = e.dp.flows()[0];
  const bool batched = e.dp.config().filter_batch > 1;
  if (batched) {
    EXPECT_EQ(stats.napi_frames, stats.napi_polls * kBurst) << "every poll took a full batch";
    EXPECT_EQ(stats.filter_batches, stats.napi_polls * 2) << "a crossing per flow per poll";
    u32 count = 0;
    ASSERT_TRUE(e.kext.ReadShared(flow.ext_id, 0, &count, 4));
    EXPECT_EQ(count, kBurst);
  }
  for (u32 j = batched ? 0 : kBurst - 1; j < kBurst; ++j) {
    const std::vector<u8> frame = TestFrame((kBursts - 1) * kBurst + j, kPayload);
    const u32 len = static_cast<u32>(frame.size());
    const u32 offset = batched ? kFilterBatchBase + j * flow.batch_stride : 0;
    std::vector<u8> record(4 + len);
    ASSERT_TRUE(e.kext.ReadShared(flow.ext_id, offset, record.data(), 4 + len));
    u32 staged_len = 0;
    std::memcpy(&staged_len, record.data(), 4);
    EXPECT_EQ(staged_len, len) << "record " << j;
    EXPECT_TRUE(std::equal(frame.begin(), frame.end(), record.begin() + 4)) << "record " << j;
  }
}

}  // namespace
}  // namespace palladium
