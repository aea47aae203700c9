#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <unordered_set>

#include "bench/bench_util.h"
#include "src/asm/assembler.h"
#include "src/core/kernel_ext.h"
#include "src/hw/machine.h"
#include "src/hw/nic.h"
#include "src/kernel/kernel.h"
#include "src/kernel/sched.h"
#include "src/net/dataplane.h"
#include "src/net/packet.h"
#include "src/obs/metrics.h"
#include "src/obs/profile.h"
#include "src/web/http.h"

namespace e2e {

using namespace palladium;

namespace {

// --- Seeded generation --------------------------------------------------------

u64 Mix(u64 a, u64 b) {
  u64 z = a * 0x9E3779B97F4A7C15ull + b + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// splitmix64: tiny, fast, and fully determined by its seed.
class Rng {
 public:
  explicit Rng(u64 seed) : state_(seed) {}
  u64 Next() {
    u64 z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  u64 Below(u64 n) { return Next() % n; }
  double Exp() { return -std::log1p(-Uniform()); }

 private:
  u64 state_;
};

// Frame fingerprint for the tx hook's verification: a two-lane Fletcher sum
// over 64-bit words (a changed, moved or missing word changes it), finished
// with one mix. Adds instead of multiplies keep it near one word per cycle:
// the hook runs once per op and must stay under 5% of the run phase
// (bench.hook_share).
u64 HashBytes(const u8* p, size_t n) {
  u64 a0 = n, b0 = 0, a1 = 0, b1 = 0;
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    u64 w0, w1;
    std::memcpy(&w0, p + i, 8);
    std::memcpy(&w1, p + i + 8, 8);
    a0 += w0;
    b0 += a0;
    a1 += w1;
    b1 += a1;
  }
  u64 tail[2] = {0, 0};
  std::memcpy(tail, p + i, n - i);
  a0 += tail[0];
  b0 += a0;
  a1 += tail[1];
  b1 += a1;
  return Mix(a0 ^ (b0 << 1), a1 ^ (b1 * 5));
}

size_t Scaled(double base, double scale) {
  return std::max<size_t>(1, static_cast<size_t>(std::llround(base * scale)));
}

constexpr double kCpuHz = kCpuMhz * 1e6;
constexpr u32 kServerIp = 0x0A000002;  // 10.0.0.2
constexpr u64 kFirstArrivalCycle = 10'000;

// --- Workload shapes ----------------------------------------------------------
// Sizes are frozen at the values that make one round take 0.2-0.6 host
// seconds on the commit that introduced the benchmark; BENCHMARK.json and
// the README record them. Short rounds give every stretch of the run phase
// many samples per run (see MinPath in palladium_e2e.cc).

constexpr u32 kSmallFrames = 100'000;
constexpr double kSmallGapCycles = 2'000;  // 100k frames/s
constexpr u32 kSmallFlows = 4;
constexpr u16 kSmallBasePort = 5000;
constexpr u64 kSmallUpgradePeriod = 25'000;

constexpr u32 kImixFrames = 100'000;
constexpr double kImixGapCycles = 400;  // 500k frames/s
constexpr u32 kImixTuples = 4096;
constexpr u16 kImixPort = 9000;

constexpr u32 kWebRequests = 20'000;
constexpr double kWebRate = 66'000;  // requests/s
constexpr u64 kHttpServiceCycles = 2'000;  // as src/web/server_sim charges
constexpr u32 kResponseBodyBytes = 256;

constexpr u32 kUextRecords = 256;
constexpr u32 kUextMinLen = 64;
constexpr u32 kUextMaxLen = 1400;
constexpr u32 kUextPasses = 50;

std::string SmallFilterText(u32 flow, bool alternate) {
  const std::string port = std::to_string(kSmallBasePort + flow);
  // Same predicate, terms in the other order: a different compiled image.
  return alternate ? "udp.dport == " + port + " && ip.proto == 17"
                   : "ip.proto == 17 && udp.dport == " + port;
}

// A bench-owned copy of src/web/server_sim's worker: receive a request,
// checksum every byte in simulated code, send it back for the tx hook to
// answer, repeat until shutdown; exit code = requests served.
constexpr char kWebWorkerSource[] = R"(
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
  push %eax               ; frame length
  mov %eax, %ecx
  mov %esi, %ebp
  mov $0, %edx
csum:
  cmp $0, %ecx
  je send
  ld8 0(%ebp), %eax
  add %eax, %edx
  add $1, %ebp
  dec %ecx
  jmp csum
send:
  mov $221, %eax          ; SYS_PKT_SEND
  mov %esi, %ebx
  pop %ecx
  int $0x80
  inc %edi
  jmp loop
done:
  mov $1, %eax            ; SYS_EXIT
  mov %edi, %ebx
  int $0x80
)";

// The protected user extension: byte checksum of one [u32 len][bytes] record.
constexpr char kUextExtensionSource[] = R"(
  .global csum
csum:
  push %ebp
  mov %esp, %ebp
  push %ebx
  ld 8(%ebp), %ebx        ; record address (a PPL 1 shared range)
  ld 0(%ebx), %ecx
  add $4, %ebx
  mov $0, %eax
  cmp $0, %ecx
  je csum_done
csum_loop:
  ld8 0(%ebx), %edx
  add %edx, %eax
  inc %ebx
  dec %ecx
  jne csum_loop
csum_done:
  pop %ebx
  pop %ebp
  ret
)";

struct FlowDef {
  std::string name;
  std::string filter;
  std::vector<u32> workers;  // indices into the round's worker list
};

struct NetShape {
  u32 cpus = 1;
  u32 workers = 4;
  const char* worker_source = kPktEchoMWorkerSource;
  FlowSteering steering = FlowSteering::kRoundRobin;
  u64 timer_period_cycles = 25'000;
  u64 slice_cycles = 80'000;
  std::vector<FlowDef> flows;
  bool web = false;
};

NetShape ShapeOf(Workload w) {
  NetShape s;
  switch (w) {
    case Workload::kFilterSmallN1:
      for (u32 f = 0; f < kSmallFlows; ++f) {
        s.flows.push_back({"flow" + std::to_string(f), SmallFilterText(f, false), {f}});
      }
      break;
    case Workload::kFilterImixN4:
      s.cpus = 4;
      s.workers = 8;
      s.steering = FlowSteering::kFlowHash;
      s.flows.push_back({"imix", "ip.proto == 17 && udp.dport == " + std::to_string(kImixPort),
                         {0, 1, 2, 3, 4, 5, 6, 7}});
      break;
    case Workload::kWebKeepaliveN4:
      s.cpus = 4;
      s.workers = 8;
      s.worker_source = kWebWorkerSource;
      s.steering = FlowSteering::kFlowHash;
      s.timer_period_cycles = 20'000;  // src/web/server_sim's defaults
      s.slice_cycles = 60'000;
      s.flows.push_back({"http", "ip.proto == 6 && tcp.dport == 80", {0, 1, 2, 3, 4, 5, 6, 7}});
      s.web = true;
      break;
    case Workload::kUextComputeN1:
      break;
  }
  return s;
}

// --- Frame construction (per round, from the generated inputs) -------------

std::string WebRequestText(const Inputs& in, size_t i) {
  std::string head = "GET /d/" + std::to_string(i) + " HTTP/1.0\r\nHost: sim\r\n";
  const size_t target = in.ops[i].payload_len;
  if (target >= head.size() + 2 + 9) {
    // Pad with one seeded header so the request is exactly `target` bytes.
    std::string pad(target - head.size() - 2 - 9, 'a');
    Rng r(Mix(in.seed, i));
    for (char& c : pad) c = static_cast<char>('a' + r.Below(26));
    head += "X-Pad: " + pad + "\r\n";
  }
  return head + "\r\n";
}

std::vector<u8> BuildFrame(const Inputs& in, size_t i, bool web) {
  const NetOp& op = in.ops[i];
  PacketSpec spec;
  spec.src_ip = op.src_ip;
  spec.dst_ip = kServerIp;
  spec.src_port = op.src_port;
  spec.dst_port = op.dst_port;
  spec.proto = op.proto;
  if (web) {
    const std::string req = WebRequestText(in, i);
    return BuildPacketWithPayload(spec, req.data(), static_cast<u32>(req.size()));
  }
  spec.payload_len = op.payload_len;
  std::vector<u8> frame = BuildPacket(spec);
  // Payload: the op id (so the tx hook can look the frame up), then seeded
  // bytes.
  u8* p = frame.data() + PayloadOffset(op.proto);
  const u32 id = static_cast<u32>(i);
  std::memcpy(p, &id, 4);
  Rng r(Mix(in.seed, i));
  for (u32 k = 4; k < op.payload_len; k += 8) {
    const u64 v = r.Next();
    std::memcpy(p + k, &v, std::min<u32>(8, op.payload_len - k));
  }
  return frame;
}

void AddDiag(RoundResult* res, const std::string& msg) {
  if (res->diagnostics.size() < 8) res->diagnostics.push_back(msg);
}

void CollectCounters(const obs::MetricsRegistry& reg, RoundResult* res) {
  for (const auto& [name, v] : reg.values()) {
    if (!v.integral) continue;
    if (name.compare(0, 4, "obs.") == 0) {
      res->profile[name] = v.u;
    } else {
      res->counters[name] = v.u;
    }
  }
}

void FinishLatencies(RoundResult* res) {
  std::sort(res->latencies.begin(), res->latencies.end());
  res->counters["bench.lat_samples"] = res->latencies.size();
  if (!res->latencies.empty()) {
    res->counters["bench.lat_p50_cycles"] = Percentile(res->latencies, 0.5);
    res->counters["bench.lat_p999_cycles"] = Percentile(res->latencies, 0.999);
  }
}

// --- Network workloads: NIC -> protected filter -> workers -> TX --------------

RoundResult RunNetRound(const Inputs& in, const RoundOptions& opt, SpanRecorder& spans) {
  const NetShape shape = ShapeOf(in.workload);
  RoundResult res;
  res.cpus = shape.cpus;
  const size_t n = in.ops.size();
  const double rate = opt.rate > 0 ? opt.rate : NominalRate(in.workload);
  const double mean_gap = kCpuHz / rate;
  res.attempted = n;

  // Harness bookkeeping, one cache line per op at most, sized before the
  // timed setup.
  struct Expect {
    u64 arrival = 0;
    u64 hash = 0;
    bool seen = false;
  };
  std::vector<Expect> expect(n);
  res.latencies.reserve(n);

  const double setup_start = NowNs();
  const int setup_span = spans.Begin("setup");

  int span = spans.Begin("Machine+Kernel");
  MachineConfig mcfg;
  mcfg.num_cpus = shape.cpus;
  auto machine = std::make_unique<Machine>(mcfg);
  Kernel::Config kcfg;
  kcfg.timer_period_cycles = shape.timer_period_cycles;
  auto kernel = std::make_unique<Kernel>(*machine, kcfg);
  auto kext = std::make_unique<KernelExtensionManager>(*kernel);
  Scheduler::Config scfg;
  scfg.slice_cycles = shape.slice_cycles;
  auto sched = std::make_unique<Scheduler>(*kernel, scfg);
  spans.End(span);

  span = spans.Begin("AssembleAndLink");
  std::string diag;
  auto img = AssembleAndLink(shape.worker_source, kUserTextBase, {}, &diag);
  spans.End(span);
  if (!img) {
    AddDiag(&res, "assemble worker: " + diag);
    res.failed = n;
    return res;
  }

  span = spans.Begin("CreateProcess+LoadUserImage");
  std::vector<Pid> pids;
  for (u32 w = 0; w < shape.workers; ++w) {
    const Pid pid = kernel->CreateProcess();
    if (pid == 0 || !kernel->LoadUserImage(pid, *img, "main", &diag)) break;
    pids.push_back(pid);
    sched->AddProcess(pid);
  }
  spans.End(span);
  if (pids.size() != shape.workers) {
    AddDiag(&res, "load worker: " + diag);
    res.failed = n;
    return res;
  }

  span = spans.Begin("PacketDataplane+AddFlow");
  auto nic = std::make_unique<Nic>(machine->pm(), kernel->pic(), kIrqNic);
  PacketDataplane::Config dcfg;
  dcfg.steering = shape.steering;
  dcfg.queues = shape.cpus;
  dcfg.napi = true;
  dcfg.filter_batch = 32;
  dcfg.rx_irq_moderation = 16'000;
  auto dp = std::make_unique<PacketDataplane>(*kernel, *kext, *nic, dcfg);
  std::vector<std::vector<Pid>> flow_pids;
  bool flows_ok = true;
  for (const FlowDef& f : shape.flows) {
    std::vector<Pid> dests;
    for (u32 w : f.workers) dests.push_back(pids[w]);
    flow_pids.push_back(dests);
    flows_ok = flows_ok && dp->AddFlow(f.name, f.filter, dests, &diag);
  }
  spans.End(span);
  if (!flows_ok) {
    AddDiag(&res, "add flow: " + diag);
    res.failed = n;
    return res;
  }

  // Verification state shared by the tx hook and the post-run checks.
  u64 hook_calls = 0, corrupted = 0, duplicates = 0, misrouted = 0, nonmatch_echoed = 0,
      bad_requests = 0, upgrade_failures = 0, upgrades = 0;
  std::unordered_set<u64> connections;
  const bool traced = opt.traced;
  double run_start = 0;
  auto run_mark = [&] {
    if (hook_calls % kCheckpointOps == 0) res.run_marks_ns.push_back(NowNs() - run_start);
  };

  // The verdict on one frame the system handed to TX: known id, intact
  // bytes, first time seen, sent by a worker of its own flow.
  auto verify = [&](const std::vector<u8>& frame, size_t id, Pid pid, u64 now) {
    if (id >= n || HashBytes(frame.data(), frame.size()) != expect[id].hash) {
      ++corrupted;
      return false;
    }
    Expect& e = expect[id];
    if (e.seen) {
      ++duplicates;
      return false;
    }
    e.seen = true;
    const int flow = in.ops[id].flow;
    if (flow < 0) {
      ++nonmatch_echoed;
      return false;
    }
    const std::vector<Pid>& ok = flow_pids[static_cast<size_t>(flow)];
    if (pid != 0 && std::find(ok.begin(), ok.end(), pid) == ok.end()) ++misrouted;
    res.latencies.push_back(now > e.arrival ? now - e.arrival : 0);
    return true;
  };

  if (shape.web) {
    dp->set_tx_hook([&](Kernel& k, Process&, const std::vector<u8>& frame) {
      const double t0 = traced ? NowNs() : 0;
      ++hook_calls;
      run_mark();
      k.Charge(kHttpServiceCycles);
      const u32 off = PayloadOffset(kIpProtoTcp);
      std::optional<HttpRequest> req;
      if (frame.size() > off) {
        req = HttpRequest::Parse(std::string(frame.begin() + off, frame.end()));
      }
      HttpResponse resp;
      resp.body_bytes = kResponseBodyBytes;
      if (!req) {
        resp.status = 400;
        resp.reason = "Bad Request";
        resp.body_bytes = 0;
      }
      const std::string head = resp.FormatHead();
      PacketSpec out;
      out.src_port = 80;
      out.dst_port = frame.size() > kOffSrcPort + 1 ? ReadBe16(&frame[kOffSrcPort]) : 0;
      out.src_ip = kServerIp;
      out.dst_ip = frame.size() > kOffIpSrc + 3 ? ReadBe32(&frame[kOffIpSrc]) : 0;
      std::vector<u8> reply =
          BuildPacketWithPayload(out, head.data(), static_cast<u32>(head.size()));
      const double t1 = traced ? NowNs() : 0;

      if (!req || req->path.compare(0, 3, "/d/") != 0) {
        ++bad_requests;
      } else if (verify(frame, std::strtoull(req->path.c_str() + 3, nullptr, 10), 0,
                        k.machine().cpu().cycles())) {
        const u64 key = (static_cast<u64>(ReadBe32(&frame[kOffIpSrc])) << 16) |
                        ReadBe16(&frame[kOffSrcPort]);
        connections.insert(key);
      }
      if (traced) {
        res.http_ns += t1 - t0;
        res.verify_ns += NowNs() - t1;
        ++res.verify_calls;
        ++res.http_requests;
      }
      return reply;
    });
  } else {
    const u64 upgrade_period = in.upgrade_period;  // 0: no live upgrades
    dp->set_tx_hook([&](Kernel& k, Process& proc, const std::vector<u8>& frame) {
      const double t0 = traced ? NowNs() : 0;
      ++hook_calls;
      run_mark();
      size_t id = n;
      if (frame.size() >= kOffIpProto + 1) {
        const u32 off = PayloadOffset(frame[kOffIpProto]);
        if (frame.size() >= off + 4) {
          u32 v = 0;
          std::memcpy(&v, frame.data() + off, 4);
          id = v;
        }
      }
      verify(frame, id, proc.pid, k.machine().cpu().cycles());
      double upgrade_ns = 0;
      if (upgrade_period != 0 && hook_calls % upgrade_period == 0) {
        // Live upgrade to an equivalent filter, between classification
        // runs (the tx path is syscall context, never filter context).
        const u32 flow = static_cast<u32>(upgrades % shape.flows.size());
        const bool alternate = (upgrades / shape.flows.size()) % 2 == 0;
        const double u0 = NowNs();
        const int us = spans.Begin("PacketDataplane::UpgradeFlow");
        std::string d2;
        if (!dp->UpgradeFlow(shape.flows[flow].name, SmallFilterText(flow, alternate), &d2)) {
          ++upgrade_failures;
          AddDiag(&res, "upgrade: " + d2);
        }
        spans.End(us);
        upgrade_ns = NowNs() - u0;
        ++upgrades;
        if (traced) res.upgrade_ns.push_back(upgrade_ns);
      }
      if (traced) {
        res.verify_ns += NowNs() - t0 - upgrade_ns;
        ++res.verify_calls;
      }
      return frame;
    });
  }

  bool shutdown_issued = false;
  sched->set_idle_hook([&]() {
    if (shutdown_issued) return false;
    shutdown_issued = true;
    dp->Shutdown();
    return true;
  });

  obs::CycleProfile profiler;
  const bool profiled = opt.profile || traced;
  if (profiled) {
    profiler.Reset(machine->num_cpus(), machine->cpu(0).cycle_model().tlb_miss_penalty);
    kernel->AttachObservability(nullptr, &profiler);
  }

  span = spans.Begin("Nic::Inject");
  u64 at = kFirstArrivalCycle;
  for (size_t i = 0; i < n; ++i) {
    if (i > 0) at += static_cast<u64>(std::llround(in.ops[i].gap_units * mean_gap));
    const std::vector<u8> frame = BuildFrame(in, i, shape.web);
    expect[i].arrival = at;
    expect[i].hash = HashBytes(frame.data(), frame.size());
    nic->Inject(frame.data(), static_cast<u32>(frame.size()), at);
  }
  spans.End(span);
  spans.End(setup_span);
  res.setup_ns = NowNs() - setup_start;

  run_start = NowNs();
  span = spans.Begin("Scheduler::RunAll");
  const Scheduler::RunAllResult run = sched->RunAll();
  spans.End(span);
  res.run_ns = NowNs() - run_start;
  res.run_marks_ns.push_back(res.run_ns);
  spans.AddAggregate(span, "verify", hook_calls, res.verify_ns);
  spans.AddAggregate(span, "http", res.http_requests, res.http_ns);

  span = spans.Begin("Collect");
  nic->FlushTx();
  kernel->AttachObservability(nullptr, nullptr);
  obs::MetricsRegistry registry;
  registry.CollectMachine(*kernel, sched.get());
  registry.CollectNic(*nic);
  registry.CollectDataplane(*dp);
  registry.CollectKext(*kext);
  if (profiled) {
    registry.CollectProfile(profiler);
    res.profile_total = profiler.TotalAll();
  }
  CollectCounters(registry, &res);
  spans.End(span);

  span = spans.Begin("Verify");
  u64 lost = 0, matching = 0;
  for (size_t i = 0; i < n; ++i) {
    if (in.ops[i].flow < 0) continue;
    ++matching;
    if (!expect[i].seen) ++lost;
  }
  // Every frame handed to TX must have reached the wire.
  const u64 wire = nic->stats().tx_frames;
  const u64 not_sent = hook_calls > wire ? hook_calls - wire : 0;
  // The NIC keeps the most recent frames it put on the wire: each must be a
  // well-formed answer (web) or an intact echo of an injected frame.
  u64 bad_wire = 0;
  for (const std::vector<u8>& f : nic->tx_frames()) {
    if (shape.web) {
      const u32 off = PayloadOffset(kIpProtoTcp);
      static const char kOk[] = "HTTP/1.0 200 OK\r\n";
      if (f.size() < off + sizeof(kOk) - 1 ||
          std::memcmp(f.data() + off, kOk, sizeof(kOk) - 1) != 0) {
        ++bad_wire;
      }
    } else {
      u32 id = static_cast<u32>(n);
      const u32 off = f.size() > kOffIpProto ? PayloadOffset(f[kOffIpProto]) : 0;
      if (off != 0 && f.size() >= off + 4) std::memcpy(&id, f.data() + off, 4);
      if (id >= n || HashBytes(f.data(), f.size()) != expect[id].hash) ++bad_wire;
    }
  }
  u64 worker_total = 0;
  for (Pid pid : pids) {
    const Process* p = kernel->process(pid);
    if (p != nullptr && p->state == ProcessState::kExited) {
      worker_total += static_cast<u64>(p->exit_code);
    }
  }
  res.failed = lost + corrupted + duplicates + misrouted + nonmatch_echoed + bad_requests +
               not_sent + bad_wire + upgrade_failures;
  if (lost != 0) AddDiag(&res, std::to_string(lost) + " matching ops never answered");
  if (corrupted != 0) AddDiag(&res, std::to_string(corrupted) + " corrupted or unknown frames");
  if (duplicates != 0) AddDiag(&res, std::to_string(duplicates) + " duplicated frames");
  if (misrouted != 0) AddDiag(&res, std::to_string(misrouted) + " frames sent by a foreign worker");
  if (nonmatch_echoed != 0) {
    AddDiag(&res, std::to_string(nonmatch_echoed) + " non-matching frames echoed");
  }
  if (bad_requests != 0) AddDiag(&res, std::to_string(bad_requests) + " unparseable requests");
  if (not_sent != 0) AddDiag(&res, std::to_string(not_sent) + " answers never reached the wire");
  if (bad_wire != 0) AddDiag(&res, std::to_string(bad_wire) + " malformed frames on the wire");
  if (run.exited != shape.workers || worker_total != hook_calls) {
    ++res.failed;
    AddDiag(&res, std::to_string(run.exited) + "/" + std::to_string(shape.workers) +
                      " workers exited, serving " + std::to_string(worker_total) + " of " +
                      std::to_string(hook_calls));
  }
  const u64 no_match_expected = n - matching;
  if (dp->stats().dropped_no_match != no_match_expected) {
    ++res.failed;
    AddDiag(&res, "no-match drops " + std::to_string(dp->stats().dropped_no_match) +
                      ", expected " + std::to_string(no_match_expected));
  }
  if (shape.web && connections.size() != in.expected_connections) {
    ++res.failed;
    AddDiag(&res, "saw " + std::to_string(connections.size()) + " connections, expected " +
                      std::to_string(in.expected_connections));
  }
  res.counters["bench.connections"] = connections.size();
  res.counters["bench.tx_hook_calls"] = hook_calls;
  res.counters["bench.upgrades"] = upgrades;
  res.counters["bench.failed"] = res.failed;
  res.counters["bench.obs_busy_cycles"] =
      obs::BusyCycles(machine->num_cpus(), run.cycles, sched->stats().idle_cycles);
  res.counters["bench.wall_cycles"] = run.cycles;
  FinishLatencies(&res);
  spans.End(span);
  return res;
}

// --- uext_compute_n1: a protected user extension called per record ----------

std::string UextAppSource(const Inputs& in, u32* records_bytes) {
  // Records [u32 len][bytes, zero-padded to 4] start the (page-aligned) data
  // section; the run shares exactly those pages with the extension at PPL 1.
  std::string data;
  data.reserve(in.records.size() * 2400);
  u32 bytes = 0;
  char buf[16];
  for (const std::vector<u8>& rec : in.records) {
    std::vector<u8> word(4 + ((rec.size() + 3) & ~size_t{3}), 0);
    const u32 len = static_cast<u32>(rec.size());
    std::memcpy(word.data(), &len, 4);
    std::memcpy(word.data() + 4, rec.data(), rec.size());
    for (size_t k = 0; k < word.size(); k += 4) {
      u32 v;
      std::memcpy(&v, word.data() + k, 4);
      data += (k % 32 == 0) ? "\n  .long " : ", ";
      std::snprintf(buf, sizeof(buf), "0x%x", v);
      data += buf;
    }
    bytes += static_cast<u32>(word.size());
  }
  *records_bytes = PageAlignUp(bytes);
  return "  .equ NREC, " + std::to_string(in.records.size()) +
         "\n  .equ PASSES, " + std::to_string(in.passes) +
         "\n  .equ REC_BYTES, " + std::to_string(*records_bytes) + R"(
  .global main
main:
  mov $SYS_INIT_PL, %eax
  int $INT_SYSCALL
  mov $SYS_SET_RANGE, %eax  ; the records become PPL 1
  mov $records, %ebx
  mov $REC_BYTES, %ecx
  mov $1, %edx
  int $INT_SYSCALL
  cmp $0, %eax
  jne fail
  mov $SYS_SEG_DLOPEN, %eax
  mov $extname, %ebx
  int $INT_SYSCALL
  mov %eax, %ebx
  mov $SYS_SEG_DLSYM, %eax
  mov $fnname, %ecx
  int $INT_SYSCALL
  mov %eax, %edi          ; Prepare stub of the protected function
  mov $SYS_BENCH_MARK, %eax  ; empty checkpoint pair: the PairedDelta baseline
  int $INT_SYSCALL
  mov $SYS_BENCH_MARK, %eax
  int $INT_SYSCALL
  mov $PASSES, %esi
pass:
  mov $records, %ebx
  sti $NREC, left
call_loop:
  mov $SYS_BENCH_MARK, %eax
  int $INT_SYSCALL
  push %ebx
  call *%edi              ; SPL 2 -> 3 -> 2 protected call
  pop %ecx
  mov %eax, %edx
  mov $SYS_BENCH_MARK, %eax
  int $INT_SYSCALL
  ld sum, %eax
  add %edx, %eax
  st %eax, sum
  ld 0(%ebx), %ecx        ; next record: header + length rounded up to 4
  add $7, %ecx
  and $0xFFFFFFFC, %ecx
  add %ecx, %ebx
  ld left, %ecx
  dec %ecx
  st %ecx, left
  cmp $0, %ecx
  jne call_loop
  dec %esi
  cmp $0, %esi
  jne pass
  ld sum, %ebx
  mov $SYS_EXIT, %eax
  int $INT_SYSCALL
fail:
  mov $SYS_EXIT, %eax
  mov $-1, %ebx
  int $INT_SYSCALL
  .data
records:)" + data + R"(
  .align 4096
sum:
  .long 0
left:
  .long 0
extname:
  .asciz "csumext"
fnname:
  .asciz "csum"
)";
}

RoundResult RunUextRound(const Inputs& in, const RoundOptions& opt, SpanRecorder& spans) {
  RoundResult res;
  const u64 calls = static_cast<u64>(in.records.size()) * in.passes;
  res.attempted = calls;
  u32 expected_sum = 0;
  for (const std::vector<u8>& rec : in.records) {
    for (u8 b : rec) expected_sum += b;
  }
  expected_sum *= in.passes;

  const double setup_start = NowNs();
  const int setup_span = spans.Begin("setup");
  int span = spans.Begin("Machine+Kernel");
  auto sys = std::make_unique<BenchSystem>();
  Kernel& kernel = sys->kernel();
  spans.End(span);

  span = spans.Begin("AssembleAndLink");
  sys->RegisterObject("csumext", kUextExtensionSource);
  std::string diag;
  u32 records_bytes = 0;
  auto img = AssembleAndLink(BenchAsmPrelude() + UextAppSource(in, &records_bytes), kUserTextBase,
                             {}, &diag);
  spans.End(span);
  if (!img) {
    AddDiag(&res, "assemble app: " + diag);
    res.failed = calls;
    return res;
  }

  span = spans.Begin("CreateProcess+LoadUserImage");
  const Pid pid = kernel.CreateProcess();
  const bool loaded = pid != 0 && kernel.LoadUserImage(pid, *img, "main", &diag);
  spans.End(span);
  spans.End(setup_span);
  res.setup_ns = NowNs() - setup_start;
  if (!loaded) {
    AddDiag(&res, "load app: " + diag);
    res.failed = calls;
    return res;
  }
  std::vector<u64>& marks = sys->marks();
  marks.reserve(2 * calls + 2);
  // BenchSystem's checkpoint syscall, plus a host-time checkpoint every
  // kCheckpointOps calls (two marks per call, after the baseline pair).
  double run_start = 0;
  kernel.RegisterSyscall(kSysBenchMark, [&](Kernel& k, u32, u32, u32) {
    marks.push_back(k.cpu().cycles());
    if (marks.size() > 2 && marks.size() % (2 * kCheckpointOps) == 2) {
      res.run_marks_ns.push_back(NowNs() - run_start);
    }
    k.ReturnFromGate(0);
  });

  obs::CycleProfile profiler;
  Cpu& cpu = sys->machine().cpu(0);
  const bool profiled = opt.profile || opt.traced;
  if (profiled) {
    // RunProcess brackets no kernel work for the profiler, so every cycle
    // outside the TLB-miss carve-out lands in kUser.
    profiler.Reset(1, cpu.cycle_model().tlb_miss_penalty);
    kernel.AttachObservability(nullptr, &profiler);
    profiler.Begin(0, cpu.cycles(), cpu.tlb_stats().misses, obs::Category::kUser);
  }
  const u64 start_cycles = cpu.cycles();
  run_start = NowNs();
  span = spans.Begin("Kernel::RunProcess");
  const RunResult run = kernel.RunProcess(pid, 100'000'000'000ull);
  spans.End(span);
  res.run_ns = NowNs() - run_start;
  res.run_marks_ns.push_back(res.run_ns);

  span = spans.Begin("Collect");
  const u64 run_cycles = cpu.cycles() - start_cycles;
  obs::MetricsRegistry registry;
  if (profiled) {
    profiler.Finish(0, cpu.cycles(), cpu.tlb_stats().misses);
    kernel.AttachObservability(nullptr, nullptr);
    registry.CollectProfile(profiler);
    res.profile_total = profiler.TotalAll();
  }
  registry.CollectMachine(kernel, nullptr);
  registry.CollectDl(sys->dl());
  CollectCounters(registry, &res);
  spans.End(span);

  span = spans.Begin("Verify");
  if (run.outcome != RunOutcome::kExited) {
    res.failed = calls;
    AddDiag(&res, "app did not exit: " + run.kill_reason);
  } else if (static_cast<u32>(run.exit_code) != expected_sum) {
    res.failed = calls;
    AddDiag(&res, "checksum " + std::to_string(static_cast<u32>(run.exit_code)) +
                      ", expected " + std::to_string(expected_sum));
  } else if (marks.size() != 2 * calls + 2) {
    res.failed = calls;
    AddDiag(&res, std::to_string(marks.size()) + " checkpoints, expected " +
                      std::to_string(2 * calls + 2));
  } else {
    for (u64 c = 0; c < calls; ++c) res.latencies.push_back(sys->PairedDelta(c + 1));
  }
  res.counters["bench.failed"] = res.failed;
  res.counters["bench.obs_busy_cycles"] = run_cycles;
  res.counters["bench.wall_cycles"] = run_cycles;
  res.counters["bench.checksum"] = static_cast<u32>(run.exit_code);
  FinishLatencies(&res);
  spans.End(span);
  return res;
}

}  // namespace

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kFilterSmallN1: return "filter_small_n1";
    case Workload::kFilterImixN4: return "filter_imix_n4";
    case Workload::kWebKeepaliveN4: return "web_keepalive_n4";
    case Workload::kUextComputeN1: return "uext_compute_n1";
  }
  return "?";
}

std::vector<Workload> AllWorkloads() {
  return {Workload::kFilterSmallN1, Workload::kFilterImixN4, Workload::kWebKeepaliveN4,
          Workload::kUextComputeN1};
}

std::optional<Workload> ParseWorkload(const std::string& name) {
  for (Workload w : AllWorkloads()) {
    if (name == WorkloadName(w)) return w;
  }
  return std::nullopt;
}

double NominalRate(Workload w) {
  switch (w) {
    case Workload::kFilterSmallN1: return kCpuHz / kSmallGapCycles;
    case Workload::kFilterImixN4: return kCpuHz / kImixGapCycles;
    case Workload::kWebKeepaliveN4: return kWebRate;
    case Workload::kUextComputeN1: return 0;
  }
  return 0;
}

std::optional<CapacityRange> CapacitySearchRange(Workload w) {
  switch (w) {
    case Workload::kFilterSmallN1: return CapacityRange{50'000, 450'000};
    case Workload::kFilterImixN4: return CapacityRange{200'000, 1'800'000};
    case Workload::kWebKeepaliveN4: return CapacityRange{20'000, 320'000};
    case Workload::kUextComputeN1: return std::nullopt;
  }
  return std::nullopt;
}

u64 TrafficSeed(u64 seed, u32 set) { return set == 0 ? seed : Mix(seed, 0x7261ull + set); }

u64 Percentile(const std::vector<u64>& sorted, double p) {
  const size_t n = sorted.size();
  if (n == 0) return 0;
  const size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(n)));
  return sorted[std::min(n, std::max<size_t>(rank, 1)) - 1];
}

Inputs GenerateInputs(Workload w, u64 seed, double scale) {
  Inputs in;
  in.workload = w;
  in.seed = seed;
  in.scale = scale;
  Rng rng(Mix(seed, static_cast<u64>(w) + 1));
  switch (w) {
    case Workload::kFilterSmallN1: {
      in.ops.resize(Scaled(kSmallFrames, scale));
      in.upgrade_period = Scaled(static_cast<double>(kSmallUpgradePeriod), scale);
      for (NetOp& op : in.ops) {
        op.gap_units = rng.Exp();
        op.src_ip = 0x0A000000u | static_cast<u32>(0x10000 + rng.Below(0xEF0000));
        op.src_port = static_cast<u16>(1024 + rng.Below(64000));
        op.payload_len = 64;
        op.proto = kIpProtoUdp;
        if (rng.Uniform() < 0.9) {
          op.flow = static_cast<int>(rng.Below(kSmallFlows));
          op.dst_port = static_cast<u16>(kSmallBasePort + op.flow);
        } else if (rng.Below(2) == 0) {
          op.dst_port = static_cast<u16>(6000 + rng.Below(1000));  // no flow's port
        } else {
          op.proto = kIpProtoTcp;  // a flow's port, the wrong protocol
          op.dst_port = static_cast<u16>(kSmallBasePort + rng.Below(kSmallFlows));
        }
      }
      break;
    }
    case Workload::kFilterImixN4: {
      std::vector<std::pair<u32, u16>> tuples(kImixTuples);
      for (auto& t : tuples) {
        t.first = 0x0A000000u | static_cast<u32>(0x10000 + rng.Below(0xEF0000));
        t.second = static_cast<u16>(1024 + rng.Below(64000));
      }
      // IMIX 7:4:1, exact per deck of 12 so the byte mix never drifts.
      const u16 deck_sizes[12] = {64, 64, 64, 64, 64, 64, 64, 576, 576, 576, 576, 1400};
      u16 deck[12];
      in.ops.resize(Scaled(kImixFrames, scale));
      for (size_t i = 0; i < in.ops.size(); ++i) {
        if (i % 12 == 0) {
          std::copy(deck_sizes, deck_sizes + 12, deck);
          for (u32 k = 11; k > 0; --k) std::swap(deck[k], deck[rng.Below(k + 1)]);
        }
        NetOp& op = in.ops[i];
        op.gap_units = rng.Exp();
        const auto& t = tuples[rng.Below(kImixTuples)];
        op.src_ip = t.first;
        op.src_port = t.second;
        op.dst_port = kImixPort;
        op.proto = kIpProtoUdp;
        op.payload_len = deck[i % 12];
        op.flow = 0;
      }
      break;
    }
    case Workload::kWebKeepaliveN4: {
      in.ops.resize(Scaled(kWebRequests, scale));
      u32 clients = 0;
      for (NetOp& op : in.ops) {
        op.gap_units = rng.Exp();
        // 80% of requests open a new connection, 20% reuse an open one.
        const bool fresh = clients == 0 || rng.Uniform() < 0.8;
        const u32 c = fresh ? clients++ : static_cast<u32>(rng.Below(clients));
        op.src_ip = 0x0A010000u + (c >> 10);
        op.src_port = static_cast<u16>(1024 + (c & 1023));
        op.dst_port = 80;
        op.proto = kIpProtoTcp;
        op.payload_len = static_cast<u16>(60 + rng.Below(341));  // request bytes
        op.flow = 0;
      }
      in.expected_connections = clients;
      break;
    }
    case Workload::kUextComputeN1: {
      // Stratified lengths over [64, 1400] (one per stratum, shuffled), so
      // the mean work per call does not drift with the seed.
      in.records.resize(kUextRecords);
      const double stratum = static_cast<double>(kUextMaxLen - kUextMinLen + 1) / kUextRecords;
      std::vector<u32> lens(kUextRecords);
      for (u32 r = 0; r < kUextRecords; ++r) {
        lens[r] = kUextMinLen + static_cast<u32>((r + rng.Uniform()) * stratum);
      }
      for (u32 k = kUextRecords - 1; k > 0; --k) std::swap(lens[k], lens[rng.Below(k + 1)]);
      for (u32 r = 0; r < kUextRecords; ++r) {
        in.records[r].resize(lens[r]);
        for (u8& b : in.records[r]) b = static_cast<u8>(rng.Next());
      }
      in.passes = static_cast<u32>(Scaled(kUextPasses, scale));
      break;
    }
  }
  return in;
}

RoundResult RunRound(const Inputs& in, const RoundOptions& opt) {
  SpanRecorder disabled;
  SpanRecorder& spans = opt.spans != nullptr ? *opt.spans : disabled;
  return in.workload == Workload::kUextComputeN1 ? RunUextRound(in, opt, spans)
                                                 : RunNetRound(in, opt, spans);
}

}  // namespace e2e
