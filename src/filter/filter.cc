#include "src/filter/filter.h"

#include <cctype>
#include <functional>
#include <sstream>

#include "src/net/packet.h"

namespace palladium {

u32 FilterFieldOffset(FilterField field) {
  switch (field) {
    case FilterField::kEtherType: return kOffEtherType;
    case FilterField::kIpProto: return kOffIpProto;
    case FilterField::kIpSrc: return kOffIpSrc;
    case FilterField::kIpDst: return kOffIpDst;
    case FilterField::kSrcPort: return kOffSrcPort;
    case FilterField::kDstPort: return kOffDstPort;
  }
  return 0;
}

u32 FilterFieldWidth(FilterField field) {
  switch (field) {
    case FilterField::kEtherType:
    case FilterField::kSrcPort:
    case FilterField::kDstPort:
      return 2;
    case FilterField::kIpProto:
      return 1;
    case FilterField::kIpSrc:
    case FilterField::kIpDst:
      return 4;
  }
  return 4;
}

namespace {

void SkipSpace(const std::string& s, size_t* i) {
  while (*i < s.size() && std::isspace(static_cast<unsigned char>(s[*i]))) ++(*i);
}

bool ParseIdent(const std::string& s, size_t* i, std::string* out) {
  SkipSpace(s, i);
  size_t start = *i;
  while (*i < s.size() &&
         (std::isalnum(static_cast<unsigned char>(s[*i])) || s[*i] == '.' || s[*i] == '_')) {
    ++(*i);
  }
  if (*i == start) return false;
  *out = s.substr(start, *i - start);
  return true;
}

bool ParseValue(const std::string& tok, u32* out) {
  // Dotted quad?
  int dots = 0;
  for (char c : tok) {
    if (c == '.') ++dots;
  }
  if (dots == 3) {
    u32 parts[4] = {0, 0, 0, 0};
    size_t pos = 0;
    for (int p = 0; p < 4; ++p) {
      size_t dot = tok.find('.', pos);
      std::string part = tok.substr(pos, dot == std::string::npos ? std::string::npos : dot - pos);
      if (part.empty()) return false;
      parts[p] = static_cast<u32>(std::strtoul(part.c_str(), nullptr, 10));
      if (parts[p] > 255) return false;
      pos = dot == std::string::npos ? tok.size() : dot + 1;
    }
    *out = (parts[0] << 24) | (parts[1] << 16) | (parts[2] << 8) | parts[3];
    return true;
  }
  char* end = nullptr;
  *out = static_cast<u32>(std::strtoul(tok.c_str(), &end, 0));
  return end != nullptr && *end == '\0';
}

u32 ByteSwap(u32 v, u32 width) {
  switch (width) {
    case 1:
      return v & 0xFF;
    case 2:
      return ((v & 0xFF) << 8) | ((v >> 8) & 0xFF);
    default:
      return ((v & 0xFF) << 24) | ((v & 0xFF00) << 8) | ((v >> 8) & 0xFF00) | ((v >> 24) & 0xFF);
  }
}

}  // namespace

std::optional<FilterExpr> ParseFilter(const std::string& text, std::string* error) {
  FilterExpr expr;
  size_t i = 0;
  SkipSpace(text, &i);
  if (i >= text.size()) return expr;  // empty conjunction: match-all
  for (;;) {
    std::string field_name;
    if (!ParseIdent(text, &i, &field_name)) {
      if (error != nullptr) *error = "expected field name";
      return std::nullopt;
    }
    FilterTerm term;
    if (field_name == "ether.type") term.field = FilterField::kEtherType;
    else if (field_name == "ip.proto") term.field = FilterField::kIpProto;
    else if (field_name == "ip.src") term.field = FilterField::kIpSrc;
    else if (field_name == "ip.dst") term.field = FilterField::kIpDst;
    else if (field_name == "tcp.sport" || field_name == "udp.sport") term.field = FilterField::kSrcPort;
    else if (field_name == "tcp.dport" || field_name == "udp.dport") term.field = FilterField::kDstPort;
    else {
      if (error != nullptr) *error = "unknown field: " + field_name;
      return std::nullopt;
    }
    SkipSpace(text, &i);
    if (i + 1 < text.size() && text[i] == '=' && text[i + 1] == '=') {
      term.rel = FilterRel::kEq;
      i += 2;
    } else if (i + 1 < text.size() && text[i] == '!' && text[i + 1] == '=') {
      term.rel = FilterRel::kNe;
      i += 2;
    } else if (i + 1 < text.size() && text[i] == '>' && text[i + 1] == '=') {
      term.rel = FilterRel::kGe;
      i += 2;
    } else if (i + 1 < text.size() && text[i] == '<' && text[i + 1] == '=') {
      term.rel = FilterRel::kLe;
      i += 2;
    } else if (i < text.size() && text[i] == '>') {
      term.rel = FilterRel::kGt;
      i += 1;
    } else if (i < text.size() && text[i] == '<') {
      term.rel = FilterRel::kLt;
      i += 1;
    } else {
      if (error != nullptr) *error = "expected relation after " + field_name;
      return std::nullopt;
    }
    std::string value_tok;
    if (!ParseIdent(text, &i, &value_tok) || !ParseValue(value_tok, &term.value)) {
      if (error != nullptr) *error = "bad value for " + field_name;
      return std::nullopt;
    }
    expr.terms.push_back(term);
    SkipSpace(text, &i);
    if (i >= text.size()) break;
    if (i + 1 < text.size() && text[i] == '&' && text[i + 1] == '&') {
      i += 2;
      continue;
    }
    if (error != nullptr) *error = "expected && between terms";
    return std::nullopt;
  }
  return expr;
}

bool EvalFilterHost(const FilterExpr& expr, const u8* pkt, u32 len) {
  for (const FilterTerm& t : expr.terms) {
    const u32 off = FilterFieldOffset(t.field);
    const u32 width = FilterFieldWidth(t.field);
    if (off + width > len) return false;
    u32 v = 0;
    switch (width) {
      case 1: v = pkt[off]; break;
      case 2: v = ReadBe16(pkt + off); break;
      default: v = ReadBe32(pkt + off); break;
    }
    bool ok = false;
    switch (t.rel) {
      case FilterRel::kEq: ok = v == t.value; break;
      case FilterRel::kNe: ok = v != t.value; break;
      case FilterRel::kGt: ok = v > t.value; break;
      case FilterRel::kGe: ok = v >= t.value; break;
      case FilterRel::kLt: ok = v < t.value; break;
      case FilterRel::kLe: ok = v <= t.value; break;
    }
    if (!ok) return false;
  }
  return true;
}

namespace {

// Emits the per-packet term checks. `at(off)` names the operand for byte
// offset `off` into the [u32 len][frame bytes] record — an absolute
// pd_shared reference for the single-frame entry, an %esi-relative one for
// the batch entry (DS-relative either way; EBP/ESP bases would resolve to
// SS). Clobbers %eax/%ecx/%edx. Length is expected in %ecx on entry when
// `min_len` > 0.
void EmitTermChecks(std::ostringstream& os, const FilterExpr& expr, u32 min_len,
                    const std::function<std::string(u32)>& at, const std::string& reject) {
  if (min_len > 0) {
    os << "  cmp $" << min_len << ", %ecx\n"
       << "  jb " << reject << "\n";
  }
  for (const FilterTerm& t : expr.terms) {
    const u32 off = 4 + FilterFieldOffset(t.field);  // +4 skips the length word
    const u32 width = FilterFieldWidth(t.field);
    const char* ld = width == 1 ? "ld8" : (width == 2 ? "ld16" : "ld");
    os << "  " << ld << " " << at(off) << ", %eax\n";
    if (t.rel == FilterRel::kEq || t.rel == FilterRel::kNe) {
      // Compare the raw little-endian load against the byte-swapped
      // constant: zero per-packet swap cost (constant folded at compile
      // time) — this is what keeps the compiled filter's slope small.
      os << "  cmp $" << ByteSwap(t.value, width) << ", %eax\n";
      os << (t.rel == FilterRel::kEq ? "  jne " : "  je ") << reject << "\n";
    } else {
      // Ordered comparison: normalize to host order first.
      if (width == 2) {
        os << "  mov %eax, %edx\n"
           << "  shr $8, %eax\n"
           << "  and $0xFF, %edx\n"
           << "  shl $8, %edx\n"
           << "  or %edx, %eax\n";
      } else if (width == 4) {
        os << "  mov %eax, %edx\n"
           << "  shr $24, %eax\n"
           << "  mov %edx, %ecx\n"
           << "  shr $8, %ecx\n"
           << "  and $0xFF00, %ecx\n"
           << "  or %ecx, %eax\n"
           << "  mov %edx, %ecx\n"
           << "  shl $8, %ecx\n"
           << "  and $0xFF0000, %ecx\n"
           << "  or %ecx, %eax\n"
           << "  shl $24, %edx\n"
           << "  or %edx, %eax\n";
      }
      os << "  cmp $" << t.value << ", %eax\n";
      switch (t.rel) {
        case FilterRel::kGt: os << "  jbe " << reject << "\n"; break;
        case FilterRel::kGe: os << "  jb " << reject << "\n"; break;
        case FilterRel::kLt: os << "  jae " << reject << "\n"; break;
        case FilterRel::kLe: os << "  ja " << reject << "\n"; break;
        default: break;
      }
    }
  }
}

}  // namespace

std::string CompileFilterToAsm(const FilterExpr& expr, u32 shared_capacity, u32 batch_stride) {
  std::ostringstream os;
  // Bounds: reject short packets once, up front, instead of per term.
  u32 min_len = 0;
  for (const FilterTerm& t : expr.terms) {
    min_len = std::max(min_len, FilterFieldOffset(t.field) + FilterFieldWidth(t.field));
  }

  os << "  .global filter_run\n"
     << "filter_run:\n";
  if (min_len > 0) os << "  ld pd_shared, %ecx\n";
  EmitTermChecks(os, expr, min_len,
                 [](u32 off) { return "pd_shared+" + std::to_string(off); }, "filter_reject");
  os << "  mov $1, %eax\n"
     << "  ret\n"
     << "filter_reject:\n"
     << "  mov $0, %eax\n"
     << "  ret\n";

  if (batch_stride >= 8) {
    // Batched entry: pd_shared+0 = u32 frame count, records (same layout as
    // the single-frame area) every batch_stride bytes from pd_shared+16.
    // Returns the match bitmap in %eax. Register plan: %esi record cursor
    // (DS-relative), %ebp remaining count (pure data register — EBP as a
    // *base* would select SS, whose segment differs inside an extension),
    // %ebx current record's bit, %edi accumulated bitmap; %eax/%ecx/%edx
    // are the term scratch registers.
    os << "  .global filter_run_batch\n"
       << "filter_run_batch:\n"
       << "  ld pd_shared, %ebp\n"
       << "  lea pd_shared+" << kFilterBatchBase << ", %esi\n"
       << "  mov $1, %ebx\n"
       << "  mov $0, %edi\n"
       << "fb_next:\n"
       << "  cmp $0, %ebp\n"
       << "  je fb_done\n";
    if (min_len > 0) os << "  ld 0(%esi), %ecx\n";
    EmitTermChecks(os, expr, min_len,
                   [](u32 off) { return std::to_string(off) + "(%esi)"; }, "fb_rej");
    os << "  or %ebx, %edi\n"
       << "fb_rej:\n"
       << "  add $" << batch_stride << ", %esi\n"
       << "  shl $1, %ebx\n"
       << "  dec %ebp\n"
       << "  jmp fb_next\n"
       << "fb_done:\n"
       << "  mov %edi, %eax\n"
       << "  ret\n";
  }

  os << "  .data\n"
     << "  .global pd_shared\n"
     << "pd_shared:\n"
     << "  .space " << shared_capacity << "\n";
  return os.str();
}

BpfProgram CompileFilterToBpf(const FilterExpr& expr) {
  // Structure mirrors tcpdump's output: load field, conditional jump to the
  // next term or to reject, final accept/reject returns.
  BpfProgram prog;
  const u32 n = static_cast<u32>(expr.terms.size());
  // Each term compiles to (load, jump); accept is at index 2n, reject 2n+1.
  for (u32 i = 0; i < n; ++i) {
    const FilterTerm& t = expr.terms[i];
    const u32 width = FilterFieldWidth(t.field);
    BpfInsn ld;
    ld.code = width == 1 ? BpfOp::kLdBAbs : (width == 2 ? BpfOp::kLdHAbs : BpfOp::kLdWAbs);
    ld.k = FilterFieldOffset(t.field);
    prog.Append(ld);

    const u32 pc = 2 * i + 1;          // index of this jump
    const u32 next = pc + 1;           // next term's load
    const u32 accept = 2 * n;
    const u32 reject = 2 * n + 1;
    const u32 on_true_pass = i + 1 == n ? accept : next;
    BpfInsn j;
    j.k = t.value;
    auto set_targets = [&](bool invert) {
      u32 t_true = invert ? reject : on_true_pass;
      u32 t_false = invert ? on_true_pass : reject;
      j.jt = static_cast<u8>(t_true - pc - 1);
      j.jf = static_cast<u8>(t_false - pc - 1);
    };
    switch (t.rel) {
      case FilterRel::kEq: j.code = BpfOp::kJmpJeqK; set_targets(false); break;
      case FilterRel::kNe: j.code = BpfOp::kJmpJeqK; set_targets(true); break;
      case FilterRel::kGt: j.code = BpfOp::kJmpJgtK; set_targets(false); break;
      case FilterRel::kGe: j.code = BpfOp::kJmpJgeK; set_targets(false); break;
      case FilterRel::kLt: j.code = BpfOp::kJmpJgeK; set_targets(true); break;
      case FilterRel::kLe: j.code = BpfOp::kJmpJgtK; set_targets(true); break;
    }
    prog.Append(j);
  }
  BpfInsn accept;
  accept.code = BpfOp::kRetK;
  accept.k = 1;
  prog.Append(accept);
  BpfInsn reject;
  reject.code = BpfOp::kRetK;
  reject.k = 0;
  prog.Append(reject);
  return prog;
}

}  // namespace palladium
