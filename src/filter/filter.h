// The packet-filter expression language of Section 5.2: a conjunction of
// header-field comparison terms, with two compilation targets —
//   * simulated ISA code, loaded as a Palladium kernel extension (the
//     "compiled packet filter" of [22]); and
//   * classic BPF bytecode, run by the interpreter (the tcpdump baseline).
#ifndef SRC_FILTER_FILTER_H_
#define SRC_FILTER_FILTER_H_

#include <optional>
#include <string>
#include <vector>

#include "src/bpf/bpf.h"
#include "src/hw/types.h"

namespace palladium {

enum class FilterField : u8 {
  kEtherType,  // be16 at offset 12
  kIpProto,    // byte at 23
  kIpSrc,      // be32 at 26
  kIpDst,      // be32 at 30
  kSrcPort,    // be16 at 34
  kDstPort,    // be16 at 36
};

enum class FilterRel : u8 { kEq, kNe, kGt, kGe, kLt, kLe };

struct FilterTerm {
  FilterField field = FilterField::kIpSrc;
  FilterRel rel = FilterRel::kEq;
  u32 value = 0;
};

// A conjunction: the packet matches iff every term holds.
struct FilterExpr {
  std::vector<FilterTerm> terms;
};

// Field metadata.
u32 FilterFieldOffset(FilterField field);
u32 FilterFieldWidth(FilterField field);  // 1, 2 or 4 bytes

// Parses e.g. "ip.src == 10.0.0.1 && tcp.dport == 80 && ip.proto == 6".
// Fields: ether.type ip.proto ip.src ip.dst tcp.sport tcp.dport
// (udp.sport/udp.dport accepted as aliases). Values: decimal, 0x hex, or
// dotted quads. Relations: == != > >= < <=.
std::optional<FilterExpr> ParseFilter(const std::string& text, std::string* error);

// Host reference evaluation (ground truth for property tests).
bool EvalFilterHost(const FilterExpr& expr, const u8* pkt, u32 len);

// Upper bound on frames per batched filter call: the batch entry point
// returns its verdicts as a 32-bit match bitmap.
inline constexpr u32 kMaxFilterBatch = 32;

// Offset of the first batch record inside pd_shared (after the u32 frame
// count and pad); each record is [u32 len][frame bytes], `batch_stride`
// bytes apart.
inline constexpr u32 kFilterBatchBase = 16;

// Compiles to simulated assembly. The generated function `filter_run`
// expects the packet image at the module's exported `pd_shared` area:
//   pd_shared+0: u32 packet length, pd_shared+4: packet bytes.
// Returns 1 for match, 0 otherwise. Equality terms compare the raw
// little-endian load against a byte-swapped constant (no per-packet swap);
// ordered terms byte-swap the loaded value first.
//
// When `batch_stride` is nonzero a second entry point `filter_run_batch` is
// emitted for amortized classification: pd_shared+0 holds a u32 frame
// count (at most kMaxFilterBatch), records start at pd_shared+16, each
// `batch_stride` bytes apart as [u32 len][frame bytes]. The return value is
// a bitmap — bit i set iff record i matches. The caller must size
// `shared_capacity` to cover kFilterBatchBase + count * batch_stride.
std::string CompileFilterToAsm(const FilterExpr& expr, u32 shared_capacity = 2048,
                               u32 batch_stride = 0);

// Compiles to BPF bytecode for the interpreted baseline.
BpfProgram CompileFilterToBpf(const FilterExpr& expr);

}  // namespace palladium

#endif  // SRC_FILTER_FILTER_H_
