#include "src/obs/metrics.h"

#include <cstdio>
#include <sstream>

#include "src/bpf/bpf.h"
#include "src/core/kernel_ext.h"
#include "src/dl/dynamic_linker.h"
#include "src/hw/cpu.h"
#include "src/hw/nic.h"
#include "src/kernel/kernel.h"
#include "src/kernel/sched.h"
#include "src/net/dataplane.h"
#include "src/obs/profile.h"
#include "src/obs/trace.h"
#include "src/rpc/rpc.h"
#include "src/sfi/sfi.h"

namespace palladium {
namespace obs {

void MetricsRegistry::CollectCpu(const Cpu& cpu, u32 index) {
  const std::string p = "cpu" + std::to_string(index) + ".";
  Counter(p + "cycles", cpu.cycles());
  Counter(p + "instructions_retired", cpu.instructions_retired());
  Counter(p + "tlb.hits", cpu.tlb_stats().hits);
  Counter(p + "tlb.misses", cpu.tlb_stats().misses);
  Counter(p + "dtlb.hits", cpu.dtlb_stats().hits);
  Counter(p + "dtlb.misses", cpu.dtlb_stats().misses);
  Counter(p + "decode.builds", cpu.decode_cache().stats().builds);
  Counter(p + "decode.write_invalidations",
          cpu.decode_cache().stats().write_invalidations);
  Counter(p + "decode.writes_kept", cpu.decode_cache().stats().writes_kept);
  Counter(p + "decode.evictions", cpu.decode_cache().stats().evictions);
  Counter(p + "decode.generation", cpu.decode_cache().generation());
  Counter(p + "block.entries", cpu.block_stats().entries);
  Counter(p + "block.insns", cpu.block_stats().insns);
  Counter(p + "block.chains", cpu.block_stats().chains);
  Counter(p + "trace.promotions", cpu.trace_stats().promotions);
  Counter(p + "trace.calls", cpu.trace_stats().calls);
  Counter(p + "trace.entries", cpu.trace_stats().entries);
  Counter(p + "trace.uop_insns", cpu.trace_stats().uop_insns);
  Counter(p + "trace.flag_materializations",
          cpu.trace_stats().flag_materializations);
  Counter(p + "trace.probes_elided", cpu.trace_stats().probes_elided);
}

void MetricsRegistry::CollectSched(const Scheduler& sched, u32 num_cpus) {
  const Scheduler::Stats& s = sched.stats();
  Counter("sched.context_switches", s.context_switches);
  Counter("sched.preemptions", s.preemptions);
  Counter("sched.yields_or_blocks", s.yields_or_blocks);
  Counter("sched.timer_ticks", s.timer_ticks);
  Counter("sched.idle_jumps", s.idle_jumps);
  Counter("sched.idle_cycles", s.idle_cycles);
  Counter("sched.steals", s.steals);
  for (u32 c = 0; c < num_cpus; ++c) {
    const Scheduler::CpuStats& cs = sched.cpu_stats(c);
    const std::string p = "sched.cpu" + std::to_string(c) + ".";
    Counter(p + "context_switches", cs.context_switches);
    Counter(p + "preemptions", cs.preemptions);
    Counter(p + "steals", cs.steals);
  }
}

void MetricsRegistry::CollectNic(const Nic& nic) {
  const Nic::Stats& s = nic.stats();
  Counter("nic.rx_frames", s.rx_frames);
  Counter("nic.rx_dropped", s.rx_dropped);
  Counter("nic.rx_bytes", s.rx_bytes);
  Counter("nic.tx_frames", s.tx_frames);
  Counter("nic.tx_bytes", s.tx_bytes);
  Counter("nic.rx_irqs_deferred", s.rx_irqs_deferred);
  Counter("nic.tx_completion_irqs", s.tx_completion_irqs);
  Counter("nic.tx_irqs_suppressed", s.tx_irqs_suppressed);
  for (u32 q = 0; q < nic.num_queues(); ++q) {
    Counter("nic.q" + std::to_string(q) + ".rx_frames",
            nic.rx_frames_on_queue(q));
  }
}

void MetricsRegistry::CollectDataplane(const PacketDataplane& dp) {
  const PacketDataplane::Stats& s = dp.stats();
  Counter("dataplane.rx_frames", s.rx_frames);
  Counter("dataplane.filter_invocations", s.filter_invocations);
  Counter("dataplane.filter_frames", s.filter_frames);
  Counter("dataplane.filter_batches", s.filter_batches);
  Counter("dataplane.filter_aborts", s.filter_aborts);
  Counter("dataplane.filter_calls_avoided", s.filter_calls_avoided);
  Counter("dataplane.matched", s.matched);
  Counter("dataplane.delivered", s.delivered);
  Counter("dataplane.dropped_no_match", s.dropped_no_match);
  Counter("dataplane.dropped_queue_full", s.dropped_queue_full);
  Counter("dataplane.dropped_dead_dest", s.dropped_dead_dest);
  Counter("dataplane.tx_frames", s.tx_frames);
  Counter("dataplane.nic_irqs", s.nic_irqs);
  Counter("dataplane.tx_completion_irqs", s.tx_completion_irqs);
  Counter("dataplane.napi_polls", s.napi_polls);
  Counter("dataplane.napi_frames", s.napi_frames);
  Counter("dataplane.flow_upgrades", s.flow_upgrades);
}

void MetricsRegistry::CollectKernel(const Kernel& kernel) {
  const Kernel::SmpStats& s = kernel.smp_stats();
  Counter("kernel.smp.shootdown_pages", s.shootdown_pages);
  Counter("kernel.smp.shootdown_ipis", s.shootdown_ipis);
  Counter("kernel.smp.full_flushes", s.full_flushes);
  Counter("kernel.smp.ipis_received", s.ipis_received);
}

void MetricsRegistry::CollectProfile(const CycleProfile& profile) {
  if (!profile.enabled()) return;
  for (u32 i = 0; i < kNumCategories; ++i) {
    const Category cat = static_cast<Category>(i);
    Counter(std::string("obs.profile.") + CategoryName(cat),
            profile.BucketTotal(cat));
  }
  Counter("obs.profile.total_cycles", profile.TotalAll());
}

void MetricsRegistry::CollectRecorder(const FlightRecorder& recorder) {
  if (!recorder.enabled()) return;
  u64 total = 0;
  for (u32 t = 0; t < recorder.num_tracks(); ++t) total += recorder.recorded_events(t);
  Counter("obs.trace.events", total);
  Counter("obs.trace.dropped_events", recorder.TotalDropped());
}

void MetricsRegistry::CollectKext(const KernelExtensionManager& kext) {
  Counter("kext.loads", kext.loads());
  Counter("kext.unloads", kext.unloads());
  Counter("kext.invocations", kext.invocations());
  Counter("kext.aborts", kext.aborts());
  Counter("kext.invoke_cycles", kext.invoke_cycles());
}

void MetricsRegistry::CollectSfi(const SfiStats& stats) {
  Counter("sfi.original_insns", stats.original_insns);
  Counter("sfi.rewritten_insns", stats.rewritten_insns);
  Counter("sfi.sandboxed_memory_ops", stats.sandboxed_memory_ops);
  Counter("sfi.sandboxed_indirect_jumps", stats.sandboxed_indirect_jumps);
  Gauge("sfi.expansion", stats.Expansion());
}

void MetricsRegistry::CollectBpf(const BpfHostStats& stats) {
  Counter("bpf.packets", stats.packets);
  Counter("bpf.insns", stats.insns);
  Counter("bpf.bad_accesses", stats.bad_accesses);
}

void MetricsRegistry::CollectRpc(const LocalRpcChannel& rpc) {
  Counter("rpc.calls", rpc.calls());
  Counter("rpc.bytes_marshalled", rpc.bytes_marshalled());
  Counter("rpc.cycles", rpc.cycles());
  Counter("rpc.context_switches_per_call", rpc.costs().context_switches);
  Counter("rpc.domain_crossings_per_call", rpc.costs().domain_crossings);
}

void MetricsRegistry::CollectDl(const DynamicLinker& dl) {
  Counter("dl.loads", dl.loads());
  Counter("dl.unloads", dl.unloads());
}

void MetricsRegistry::CollectMachine(const Kernel& kernel, const Scheduler* sched) {
  const Machine& m = kernel.machine();
  for (u32 c = 0; c < m.num_cpus(); ++c) CollectCpu(m.cpu(c), c);
  if (sched != nullptr) CollectSched(*sched, m.num_cpus());
  CollectKernel(kernel);
}

std::string MetricsRegistry::SnapshotJson() const {
  std::ostringstream out;
  out << "{";
  bool first = true;
  for (const auto& [name, v] : values_) {
    out << (first ? "" : ",") << "\n  \"" << name << "\": ";
    if (v.integral) {
      out << v.u;
    } else {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.6g", v.d);
      out << buf;
    }
    first = false;
  }
  out << "\n}\n";
  return out.str();
}

}  // namespace obs
}  // namespace palladium
