// Dynamic loader substrate: shared libraries mapped into the middle of the
// user address space (Figure 2), eager symbol binding, and read-only
// page-aligned GOTs — the design points Section 4.4.2 of the paper builds on.
//
// The loader logic itself runs as host code (standing in for ld.so); every
// protection-relevant artifact — mapped pages, PPL bits, the read-only GOT
// page — is real simulated-machine state enforced by the simulated MMU.
#ifndef SRC_DL_DYNAMIC_LINKER_H_
#define SRC_DL_DYNAMIC_LINKER_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/asm/object_file.h"
#include "src/kernel/kernel.h"

namespace palladium {

class DynamicLinker {
 public:
  explicit DynamicLinker(Kernel& kernel) : kernel_(kernel) {}

  // Registers an object "on disk" under `name`.
  void RegisterObject(const std::string& name, const ObjectFile& obj) {
    registry_[name] = obj;
  }
  const ObjectFile* FindObject(const std::string& name) const {
    auto it = registry_.find(name);
    return it == registry_.end() ? nullptr : &it->second;
  }

  struct Library {
    std::string name;
    LinkedImage image;
    bool shared_ppl1 = false;
  };

  // Maps a registered object into the process at the next shared-library
  // base. If `expose_ppl1`, the pages stay at PPL 1 (readable/executable by
  // extensions) even after init_PL. Returns the image base.
  std::optional<u32> LoadLibrary(Pid pid, const std::string& name, bool expose_ppl1,
                                 std::string* diag);

  // Unmaps a loaded library: frees its pages (Kernel::UnmapArea evicts every
  // frame from every vCPU's decode cache and shoots down the TLBs) and
  // drops its symbols from the process. The library's address range is NOT
  // reused by later loads (next_base_ only grows), so dangling pointers fault
  // instead of silently hitting a new image.
  bool UnloadLibrary(Pid pid, const std::string& name, std::string* diag);

  // Looks a symbol up across all libraries loaded in the process.
  std::optional<u32> Lookup(Pid pid, const std::string& symbol) const;

  // All (symbol, address) pairs exported by the process's libraries; used to
  // resolve extension imports eagerly (the paper's "eagerly, not lazily").
  std::map<std::string, u32> ExportedSymbols(Pid pid) const;

  // Builds a GOT at `got_page` (page-aligned, caller-mapped): one 4-byte
  // slot per symbol, filled with the resolved address, then the page is
  // marked read-only so extensions cannot corrupt it. Returns slot addresses
  // keyed by "got_<symbol>".
  std::optional<std::map<std::string, u32>> BuildGot(Pid pid, u32 got_page,
                                                     const std::vector<std::string>& symbols,
                                                     std::string* diag);

  const std::vector<Library>* libraries(Pid pid) const {
    auto it = loaded_.find(pid);
    return it == loaded_.end() ? nullptr : &it->second;
  }

  // Counters for the obs layer.
  u64 loads() const { return loads_; }
  u64 unloads() const { return unloads_; }

 private:
  Kernel& kernel_;
  std::map<std::string, ObjectFile> registry_;
  std::map<Pid, std::vector<Library>> loaded_;
  std::map<Pid, u32> next_base_;
  u64 loads_ = 0;
  u64 unloads_ = 0;
};

}  // namespace palladium

#endif  // SRC_DL_DYNAMIC_LINKER_H_
