// RuntimeConfig: the one place the library reads its environment. Every
// switch selects between a host fast path and its differential oracle, so any
// bench, example or test can be re-run on the oracle without code changes
// (simulated results must be identical):
//
//   PALLADIUM_NO_BLOCKS  engine kInsn (per-instruction dispatch)
//   PALLADIUM_NO_TRACE   engine kBlock (superblocks, no hot-trace tier)
//   PALLADIUM_NO_DTLB    per-byte data path instead of inline TLB hits
//   PALLADIUM_NO_NAPI    IRQ-per-frame dataplane (src/net/dataplane.h)
//   PALLADIUM_SMP        vCPU count for machines that do not pin one
//
// One rule for every boolean flag: unset, empty or "0" means off; any other
// value means on. PALLADIUM_SMP takes a decimal count; garbage or values
// below 1 give 1 (Machine caps the count at kMaxCpus).
#ifndef SRC_HW_RUNTIME_CONFIG_H_
#define SRC_HW_RUNTIME_CONFIG_H_

#include "src/hw/cpu.h"
#include "src/hw/types.h"

namespace palladium {

struct RuntimeConfig {
  Engine engine = Engine::kTrace;
  bool dtlb = true;
  bool napi = true;
  u32 num_cpus = 1;

  // Parses the variables above. Machine calls this once per construction and
  // applies the engine and D-TLB bit to each vCPU it builds.
  static RuntimeConfig FromEnv();
};

}  // namespace palladium

#endif  // SRC_HW_RUNTIME_CONFIG_H_
