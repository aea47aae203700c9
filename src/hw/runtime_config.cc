#include "src/hw/runtime_config.h"

#include <cstdlib>

namespace palladium {

namespace {

bool Flag(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
}

}  // namespace

RuntimeConfig RuntimeConfig::FromEnv() {
  RuntimeConfig rc;
  // Blocks off makes the trace tier unreachable, so NO_BLOCKS wins.
  if (Flag("PALLADIUM_NO_BLOCKS")) {
    rc.engine = Engine::kInsn;
  } else if (Flag("PALLADIUM_NO_TRACE")) {
    rc.engine = Engine::kBlock;
  }
  rc.dtlb = !Flag("PALLADIUM_NO_DTLB");
  rc.napi = !Flag("PALLADIUM_NO_NAPI");
  // atoi gives <= 0 for garbage and negative values alike: both mean
  // "invalid", not "maximum". ResolveNumCpus (machine.h) applies kMaxCpus.
  const char* smp = std::getenv("PALLADIUM_SMP");
  const int parsed = smp != nullptr ? std::atoi(smp) : 1;
  rc.num_cpus = parsed > 0 ? static_cast<u32>(parsed) : 1;
  return rc;
}

}  // namespace palladium
