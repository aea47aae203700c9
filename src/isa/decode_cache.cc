#include "src/isa/decode_cache.h"

#include <algorithm>
#include <cassert>

namespace palladium {

namespace {

// The segment-override rule, resolved at decode time: an explicit override
// wins; the default picks SS for ESP/EBP-based addressing and DS otherwise.
// The returned value indexes the CPU's segment-register file, so it must
// follow SegReg's enum order.
static_assert(static_cast<u8>(SegReg::kCs) == 0 && static_cast<u8>(SegReg::kSs) == 1 &&
                  static_cast<u8>(SegReg::kDs) == 2 && static_cast<u8>(SegReg::kEs) == 3,
              "ResolveSegIdx and DecodedInsn::seg_idx bake in SegReg enum order");
u8 ResolveSegIdx(const Insn& insn) {
  switch (insn.seg) {
    case SegOverride::kCs:
      return 0;
    case SegOverride::kSs:
      return 1;
    case SegOverride::kDs:
      return 2;
    case SegOverride::kEs:
      return 3;
    case SegOverride::kNone:
      break;
  }
  const bool stackish = insn.r2 != kNoBaseReg &&
                        (static_cast<Reg>(insn.r2) == Reg::kEsp ||
                         static_cast<Reg>(insn.r2) == Reg::kEbp);
  return stackish ? 1 : 2;
}

}  // namespace

void FillExecInfo(DecodedInsn& d, const CycleModel::CostTable& costs) {
  const u16 op = static_cast<u16>(d.insn.opcode);
  d.dispatch = op;
  d.seg_idx = ResolveSegIdx(d.insn);
  d.is_stack = d.seg_idx == 1;
  d.cost = costs.base[op];
}

void DecodeCache::DecodeSlot(u32 phys, DecodedInsn* d) const {
  if (!pm_.Contains(phys, kInsnSize)) {
    d->state = DecodedInsn::State::kBusError;
    d->dispatch = kDispatchBusError;
    d->fault_offset = static_cast<u8>(pm_.size() > phys ? pm_.size() - phys : 0);
    return;
  }
  u8 raw[kInsnSize];
  pm_.ReadBlock(phys, raw, kInsnSize);
  auto decoded = Insn::Decode(raw);
  if (decoded) {
    d->state = DecodedInsn::State::kDecoded;
    d->insn = *decoded;
  } else {
    d->state = DecodedInsn::State::kUndecodable;
    d->dispatch = kDispatchUndecodable;
  }
}

DecodeCache::Page* DecodeCache::GetOrBuild(u32 frame) {
  // Safe point: no decoded instruction is mid-execution while the CPU is
  // fetching, so pages retired by earlier invalidations can really be freed.
  retired_.clear();

  const u32 pfn = PageNumber(frame);
  auto it = pages_.find(pfn);
  if (it != pages_.end()) return it->second.get();

  if (pages_.size() >= kMaxPages) {
    for (auto& entry : pages_) {
      retired_.push_back(std::move(entry.second));
      ++stats_.evictions;
    }
    pages_.clear();
    std::fill(has_code_.begin(), has_code_.end(), 0);
    ++generation_;
  }

  assert(costs_ != nullptr && "DecodeCache::set_cost_table must be called first");
  auto page = std::make_unique<Page>();
  for (u32 slot = 0; slot < kSlotsPerPage; ++slot) {
    DecodedInsn& d = page->slots[slot];
    DecodeSlot(frame + slot * kInsnSize, &d);
    if (d.state == DecodedInsn::State::kDecoded) FillExecInfo(d, *costs_);
  }

  // Backward pass: link slots into basic-block runs. A run is the maximal
  // straight-line slot sequence the block engine may execute before
  // re-deciding; it ends at (and includes) a terminator, ends *before*
  // nothing — non-decodable slots simply start their own length-1 "run"
  // whose dispatch raises the architectural fault. run_cost_max sums the
  // worst-case cycle charge of every *non-terminator, non-final* member:
  // the boundary after the run's last slot is always checked by the engine
  // (terminators yield or chain through a checked edge, completed runs hit
  // the checked run boundary), so only the interior boundaries need the
  // pre-proved bound. The windowed sum (suffix-sum difference) keeps the
  // bound tight for runs clamped at kMaxBlockInsns — an inflated bound
  // would only cost performance (needless one-instruction careful mode near
  // a frontier), never correctness.
  // Worst-case per-slot charge: base cost plus the two-TLB-miss bound for
  // memory traffic; terminators and non-decodable slots charge 0 here
  // because the boundary after them is always checked.
  std::array<u32, kSlotsPerPage + 1> suffix_worst{};
  for (int s = static_cast<int>(kSlotsPerPage) - 1; s >= 0; --s) {
    const DecodedInsn& d = page->slots[s];
    u32 worst = 0;
    if (d.state == DecodedInsn::State::kDecoded && !IsBlockTerminator(d.insn.opcode)) {
      worst = d.cost + (TouchesMemSeq(d.insn.opcode) ? costs_->mem_extra_bound : 0);
    }
    suffix_worst[s] = worst + suffix_worst[s + 1];
  }
  u32 run = 0;
  for (int s = static_cast<int>(kSlotsPerPage) - 1; s >= 0; --s) {
    DecodedInsn& d = page->slots[s];
    if (d.state != DecodedInsn::State::kDecoded || IsBlockTerminator(d.insn.opcode) ||
        s == static_cast<int>(kSlotsPerPage) - 1) {
      run = 1;
    } else {
      run = std::min(run + 1, kMaxBlockInsns);
    }
    d.run_len = static_cast<u8>(run);
    // Interior members are slots s .. s+run-2; their worst-case sum is the
    // suffix difference (the run's last slot contributes nothing).
    d.run_cost_max = suffix_worst[s] - suffix_worst[s + run - 1];
  }

  ++stats_.builds;
  if (has_code_.size() <= pfn) has_code_.resize(pfn + 1, 0);
  has_code_[pfn] = 1;
  Page* raw_page = page.get();
  pages_.emplace(pfn, std::move(page));
  return raw_page;
}

void DecodeCache::WriteTouchedCode(u32 pfn, u32 addr, u32 len) {
  const Page& page = *pages_.find(pfn)->second;  // has_code_ => cached
  // The write's extent clipped to this page, in whole slots.
  const u32 frame = pfn << kPageShift;
  const u32 begin = std::max(addr, frame) - frame;
  const u32 end = static_cast<u32>(
      std::min<u64>(static_cast<u64>(addr) + len, static_cast<u64>(frame) + kPageSize) - frame);
  for (u32 slot = begin / kInsnSize; slot <= (end - 1) / kInsnSize; ++slot) {
    DecodedInsn fresh;
    DecodeSlot(frame + slot * kInsnSize, &fresh);
    const DecodedInsn& cached = page.slots[slot];
    // A bus-error slot's offset depends only on its address: state suffices.
    if (fresh.state != cached.state ||
        (fresh.state == DecodedInsn::State::kDecoded && !(fresh.insn == cached.insn))) {
      Retire(pfn);
      return;
    }
  }
  ++stats_.writes_kept;
}

void DecodeCache::Retire(u32 pfn) {
  auto it = pages_.find(pfn);
  if (it == pages_.end()) return;
  retired_.push_back(std::move(it->second));
  pages_.erase(it);
  has_code_[pfn] = 0;
  ++generation_;
  ++stats_.write_invalidations;
}

void DecodeCache::EvictFrame(u32 frame) {
  const u32 pfn = PageNumber(frame);
  if (pfn < has_code_.size() && has_code_[pfn] != 0) Retire(pfn);
}

void DecodeCache::InvalidateAll() {
  if (pages_.empty()) return;
  for (auto& entry : pages_) retired_.push_back(std::move(entry.second));
  pages_.clear();
  std::fill(has_code_.begin(), has_code_.end(), 0);
  ++generation_;
}

}  // namespace palladium
