#include "ia32/insn.hh"

#include <array>

#include "support/logging.hh"
#include "support/strfmt.hh"

namespace el::ia32
{

namespace
{

constexpr uint32_t kAll = FlagsArith;

/** Build the static opcode table once. */
std::array<OpInfo, static_cast<size_t>(Op::NumOps)>
buildOpTable()
{
    std::array<OpInfo, static_cast<size_t>(Op::NumOps)> t{};
    auto set = [&](Op op, OpInfo info) {
        t[static_cast<size_t>(op)] = info;
    };
    // name, fl_w, fl_r, undef, load, store, branch, fp, mmx, sse, arithflt
    set(Op::Invalid, {"(invalid)", 0, 0, false, false, false, false, false,
                      false, false, true});

    set(Op::Mov,   {"mov", 0, 0, false, true, true, false, false, false,
                    false, false});
    set(Op::Movzx, {"movzx", 0, 0, false, true, false, false, false, false,
                    false, false});
    set(Op::Movsx, {"movsx", 0, 0, false, true, false, false, false, false,
                    false, false});
    set(Op::Lea,   {"lea", 0, 0, false, false, false, false, false, false,
                    false, false});
    set(Op::Xchg,  {"xchg", 0, 0, false, true, true, false, false, false,
                    false, false});
    set(Op::Push,  {"push", 0, 0, false, true, true, false, false, false,
                    false, false});
    set(Op::Pop,   {"pop", 0, 0, false, true, true, false, false, false,
                    false, false});
    set(Op::Cdq,   {"cdq", 0, 0, false, false, false, false, false, false,
                    false, false});
    set(Op::Sahf,  {"sahf", FlagCf | FlagPf | FlagAf | FlagZf | FlagSf, 0,
                    false, false, false, false, false, false, false, false});
    set(Op::Lahf,  {"lahf", 0,
                    FlagCf | FlagPf | FlagAf | FlagZf | FlagSf, false,
                    false, false, false, false, false, false, false});

    set(Op::Add,  {"add", kAll, 0, false, true, true, false, false, false,
                   false, false});
    set(Op::Adc,  {"adc", kAll, FlagCf, false, true, true, false, false,
                   false, false, false});
    set(Op::Sub,  {"sub", kAll, 0, false, true, true, false, false, false,
                   false, false});
    set(Op::Sbb,  {"sbb", kAll, FlagCf, false, true, true, false, false,
                   false, false, false});
    set(Op::And,  {"and", kAll, 0, false, true, true, false, false, false,
                   false, false});
    set(Op::Or,   {"or", kAll, 0, false, true, true, false, false, false,
                   false, false});
    set(Op::Xor,  {"xor", kAll, 0, false, true, true, false, false, false,
                   false, false});
    set(Op::Cmp,  {"cmp", kAll, 0, false, true, false, false, false, false,
                   false, false});
    set(Op::Test, {"test", kAll, 0, false, true, false, false, false, false,
                   false, false});
    set(Op::Inc,  {"inc", kAll & ~FlagCf, 0, false, true, true, false,
                   false, false, false, false});
    set(Op::Dec,  {"dec", kAll & ~FlagCf, 0, false, true, true, false,
                   false, false, false, false});
    set(Op::Neg,  {"neg", kAll, 0, false, true, true, false, false, false,
                   false, false});
    set(Op::Not,  {"not", 0, 0, false, true, true, false, false, false,
                   false, false});
    set(Op::Imul2, {"imul", kAll, 0, true, true, false, false, false, false,
                    false, false});
    set(Op::Mul1,  {"mul", kAll, 0, true, true, false, false, false, false,
                    false, false});
    set(Op::Imul1, {"imul", kAll, 0, true, true, false, false, false, false,
                    false, false});
    set(Op::Div,  {"div", kAll, 0, true, true, false, false, false, false,
                   false, true});
    set(Op::Idiv, {"idiv", kAll, 0, true, true, false, false, false, false,
                   false, true});
    set(Op::Shl,  {"shl", kAll, 0, true, true, true, false, false, false,
                   false, false});
    set(Op::Shr,  {"shr", kAll, 0, true, true, true, false, false, false,
                   false, false});
    set(Op::Sar,  {"sar", kAll, 0, true, true, true, false, false, false,
                   false, false});
    set(Op::Rol,  {"rol", FlagCf | FlagOf, 0, true, true, true, false,
                   false, false, false, false});
    set(Op::Ror,  {"ror", FlagCf | FlagOf, 0, true, true, true, false,
                   false, false, false, false});

    set(Op::Jcc,     {"j", 0, 0, false, false, false, true, false, false,
                      false, false});
    set(Op::Jmp,     {"jmp", 0, 0, false, false, false, true, false, false,
                      false, false});
    set(Op::JmpInd,  {"jmp", 0, 0, false, true, false, true, false, false,
                      false, false});
    set(Op::Call,    {"call", 0, 0, false, false, true, true, false, false,
                      false, false});
    set(Op::CallInd, {"call", 0, 0, false, true, true, true, false, false,
                      false, false});
    set(Op::Ret,     {"ret", 0, 0, false, true, false, true, false, false,
                      false, false});
    set(Op::Setcc,   {"set", 0, 0, false, false, true, false, false, false,
                      false, false});
    set(Op::Cmovcc,  {"cmov", 0, 0, false, true, false, false, false, false,
                      false, false});
    set(Op::Leave,   {"leave", 0, 0, false, true, false, false, false,
                      false, false, false});

    set(Op::Movs, {"movs", 0, FlagDf, false, true, true, false, false,
                   false, false, false});
    set(Op::Stos, {"stos", 0, FlagDf, false, false, true, false, false,
                   false, false, false});
    set(Op::Lods, {"lods", 0, FlagDf, false, true, false, false, false,
                   false, false, false});
    set(Op::Cld,  {"cld", FlagDf, 0, false, false, false, false, false,
                   false, false, false});
    set(Op::Std,  {"std", FlagDf, 0, false, false, false, false, false,
                   false, false, false});

    set(Op::Int,  {"int", 0, 0, false, false, false, true, false, false,
                   false, true});
    set(Op::Int3, {"int3", 0, 0, false, false, false, true, false, false,
                   false, true});
    set(Op::Nop,  {"nop", 0, 0, false, false, false, false, false, false,
                   false, false});
    set(Op::Hlt,  {"hlt", 0, 0, false, false, false, true, false, false,
                   false, true});
    set(Op::Ud2,  {"ud2", 0, 0, false, false, false, true, false, false,
                   false, true});

    auto fp = [&](Op op, const char *name, bool load, bool store) {
        set(op, {name, 0, 0, false, load, store, false, true, false, false,
                 true});
    };
    fp(Op::Fld, "fld", true, false);
    fp(Op::Fild, "fild", true, false);
    fp(Op::Fst, "fst", false, true);
    fp(Op::Fistp, "fistp", false, true);
    fp(Op::Fld1, "fld1", false, false);
    fp(Op::Fldz, "fldz", false, false);
    fp(Op::Fadd, "fadd", true, false);
    fp(Op::Fsub, "fsub", true, false);
    fp(Op::Fsubr, "fsubr", true, false);
    fp(Op::Fmul, "fmul", true, false);
    fp(Op::Fdiv, "fdiv", true, false);
    fp(Op::Fdivr, "fdivr", true, false);
    fp(Op::Fxch, "fxch", false, false);
    fp(Op::Fchs, "fchs", false, false);
    fp(Op::Fabs, "fabs", false, false);
    fp(Op::Fsqrt, "fsqrt", false, false);
    set(Op::Fcomi, {"fcomi", FlagCf | FlagPf | FlagZf, 0, false, false,
                    false, false, true, false, false, true});
    set(Op::Fnstsw, {"fnstsw", 0, 0, false, false, false, false, true,
                     false, false, false});
    set(Op::Fninit, {"fninit", 0, 0, false, false, false, false, true,
                     false, false, false});

    auto mmx = [&](Op op, const char *name, bool load, bool store) {
        set(op, {name, 0, 0, false, load, store, false, false, true, false,
                 false});
    };
    mmx(Op::Movd, "movd", true, true);
    mmx(Op::MovqMm, "movq", true, true);
    mmx(Op::Paddb, "paddb", true, false);
    mmx(Op::Paddw, "paddw", true, false);
    mmx(Op::Paddd, "paddd", true, false);
    mmx(Op::Psubb, "psubb", true, false);
    mmx(Op::Psubw, "psubw", true, false);
    mmx(Op::Psubd, "psubd", true, false);
    mmx(Op::Pand, "pand", true, false);
    mmx(Op::Por, "por", true, false);
    mmx(Op::Pxor, "pxor", true, false);
    mmx(Op::Pmullw, "pmullw", true, false);
    mmx(Op::Emms, "emms", false, false);

    auto sse = [&](Op op, const char *name, bool load, bool store) {
        set(op, {name, 0, 0, false, load, store, false, false, false, true,
                 false});
    };
    sse(Op::Movaps, "movaps", true, true);
    sse(Op::Movups, "movups", true, true);
    sse(Op::Movss, "movss", true, true);
    sse(Op::MovsdX, "movsd", true, true);
    sse(Op::Movdqa, "movdqa", true, true);
    sse(Op::Addps, "addps", true, false);
    sse(Op::Subps, "subps", true, false);
    sse(Op::Mulps, "mulps", true, false);
    sse(Op::Divps, "divps", true, false);
    sse(Op::Addss, "addss", true, false);
    sse(Op::Subss, "subss", true, false);
    sse(Op::Mulss, "mulss", true, false);
    sse(Op::Divss, "divss", true, false);
    sse(Op::Addpd, "addpd", true, false);
    sse(Op::Mulpd, "mulpd", true, false);
    sse(Op::Subpd, "subpd", true, false);
    sse(Op::Addsd, "addsd", true, false);
    sse(Op::Mulsd, "mulsd", true, false);
    sse(Op::Andps, "andps", true, false);
    sse(Op::Xorps, "xorps", true, false);
    sse(Op::Sqrtss, "sqrtss", true, false);
    set(Op::Ucomiss, {"ucomiss", FlagCf | FlagPf | FlagZf, 0, false, true,
                      false, false, false, false, true, false});
    sse(Op::Cvtps2pd, "cvtps2pd", true, false);
    sse(Op::Cvtpd2ps, "cvtpd2ps", true, false);
    sse(Op::Cvtsi2ss, "cvtsi2ss", true, false);
    sse(Op::Cvttss2si, "cvttss2si", true, false);
    sse(Op::PadddX, "paddd", true, false);

    return t;
}

const std::array<OpInfo, static_cast<size_t>(Op::NumOps)> op_table =
    buildOpTable();

std::string
operandToString(const Operand &o, unsigned op_size)
{
    switch (o.kind) {
      case OperandKind::None:
        return {};
      case OperandKind::Gpr:
        return regName(static_cast<Reg>(o.reg), op_size);
      case OperandKind::Gpr8:
        return reg8Name(static_cast<Reg8>(o.reg));
      case OperandKind::Imm:
        return strfmt("0x%llx", static_cast<unsigned long long>(o.imm));
      case OperandKind::St:
        return strfmt("st(%u)", o.reg);
      case OperandKind::Mm:
        return strfmt("mm%u", o.reg);
      case OperandKind::Xmm:
        return strfmt("xmm%u", o.reg);
      case OperandKind::Mem: {
        std::string s = "[";
        bool first = true;
        if (o.mem.has_base) {
            s += regName(o.mem.base);
            first = false;
        }
        if (o.mem.has_index) {
            if (!first)
                s += "+";
            s += strfmt("%s*%u", regName(o.mem.index), o.mem.scale);
            first = false;
        }
        if (o.mem.disp || first) {
            if (!first)
                s += o.mem.disp < 0 ? "-" : "+";
            int64_t d = o.mem.disp;
            if (!first && d < 0)
                d = -d;
            s += strfmt("0x%llx", static_cast<unsigned long long>(
                static_cast<uint64_t>(d) & 0xffffffffULL));
        }
        return s + "]";
      }
    }
    return "?";
}

} // namespace

const OpInfo &
opInfo(Op op)
{
    return op_table[static_cast<size_t>(op)];
}

const char *
opName(Op op)
{
    return opInfo(op).name;
}

std::string
Insn::toString() const
{
    std::string mnem = opName(op);
    if (op == Op::Jcc || op == Op::Setcc || op == Op::Cmovcc)
        mnem += condName(cond);
    if (fp_pop && opInfo(op).is_fp)
        mnem += "p";
    if (rep)
        mnem = "rep " + mnem;
    std::string d = operandToString(dst, op_size);
    std::string s = operandToString(src, op_size);
    std::string out = strfmt("%08x: %s", addr, mnem.c_str());
    if (!d.empty())
        out += " " + d;
    if (!s.empty())
        out += (d.empty() ? " " : ", ") + s;
    return out;
}

uint32_t
insnFlagsRead(const Insn &insn)
{
    uint32_t fl = opInfo(insn.op).flags_read;
    if (insn.op == Op::Jcc || insn.op == Op::Setcc || insn.op == Op::Cmovcc)
        fl |= condFlagsRead(insn.cond);
    return fl;
}

uint32_t
insnFlagsWritten(const Insn &insn)
{
    return opInfo(insn.op).flags_written;
}

bool
endsBlock(const Insn &insn)
{
    return opInfo(insn.op).is_branch;
}

bool
canFault(const Insn &insn)
{
    const OpInfo &info = opInfo(insn.op);
    if (info.may_fault_arith)
        return true;
    if ((info.may_load || info.may_store) &&
        (insn.dst.isMem() || insn.src.isMem())) {
        return true;
    }
    // Stack-relative implicit accesses.
    switch (insn.op) {
      case Op::Push:
      case Op::Pop:
      case Op::Call:
      case Op::CallInd:
      case Op::Ret:
      case Op::Leave:
      case Op::Movs:
      case Op::Stos:
      case Op::Lods:
        return true;
      default:
        return false;
    }
}

bool
writesMemory(const Insn &insn)
{
    switch (insn.op) {
      case Op::Push:
      case Op::Call:
      case Op::CallInd:
      case Op::Movs:
      case Op::Stos:
        return true;
      default:
        break;
    }
    return opInfo(insn.op).may_store && insn.dst.isMem();
}

} // namespace el::ia32
