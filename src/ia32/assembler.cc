#include "ia32/assembler.hh"

#include "support/logging.hh"

namespace el::ia32
{

Label
Assembler::label()
{
    Label l;
    l.id = static_cast<int>(label_pos_.size());
    label_pos_.push_back(-1);
    return l;
}

void
Assembler::bind(Label l)
{
    el_assert(l.valid() && label_pos_[l.id] == -1, "label rebound");
    label_pos_[l.id] = static_cast<int64_t>(buf_.size());
}

std::vector<uint8_t>
Assembler::finish()
{
    el_assert(!finished_, "finish() called twice");
    finished_ = true;
    for (const Fixup &f : fixups_) {
        int64_t pos = label_pos_[f.label];
        el_assert(pos >= 0, "unbound label %d", f.label);
        // rel32 is relative to the end of the displacement field.
        int64_t rel = pos - static_cast<int64_t>(f.offset) - 4;
        uint32_t v = static_cast<uint32_t>(rel);
        for (int i = 0; i < 4; ++i)
            buf_[f.offset + i] = static_cast<uint8_t>(v >> (8 * i));
    }
    return buf_;
}

void
Assembler::emit16(uint16_t v)
{
    emit8(static_cast<uint8_t>(v));
    emit8(static_cast<uint8_t>(v >> 8));
}

void
Assembler::emit32(uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        emit8(static_cast<uint8_t>(v >> (8 * i)));
}

void
Assembler::emitModRmReg(unsigned reg, unsigned rm)
{
    emit8(static_cast<uint8_t>(0xc0 | ((reg & 7) << 3) | (rm & 7)));
}

void
Assembler::emitModRm(unsigned reg, const MemRef &m)
{
    // Pick mod and whether a SIB byte is needed.
    bool need_sib = m.has_index || (m.has_base && m.base == RegEsp);
    uint8_t mod;
    bool disp8 = false, disp32 = false;
    if (!m.has_base) {
        mod = 0;
        disp32 = true;
    } else if (m.disp == 0 && m.base != RegEbp) {
        mod = 0;
    } else if (m.disp >= -128 && m.disp <= 127) {
        mod = 1;
        disp8 = true;
    } else {
        mod = 2;
        disp32 = true;
    }

    if (!need_sib && !m.has_base) {
        // [disp32] direct.
        emit8(static_cast<uint8_t>(((reg & 7) << 3) | 5));
        emit32(static_cast<uint32_t>(m.disp));
        return;
    }

    if (!need_sib) {
        emit8(static_cast<uint8_t>((mod << 6) | ((reg & 7) << 3) |
                                   (m.base & 7)));
    } else {
        emit8(static_cast<uint8_t>((mod << 6) | ((reg & 7) << 3) | 4));
        uint8_t ss = m.scale == 8 ? 3 : m.scale == 4 ? 2
                   : m.scale == 2 ? 1 : 0;
        uint8_t index = m.has_index ? (m.index & 7) : 4;
        el_assert(!(m.has_index && m.index == RegEsp),
                  "esp cannot be an index register");
        uint8_t base;
        if (m.has_base) {
            base = m.base & 7;
        } else {
            base = 5;
            mod = 0;
            disp32 = true;
            disp8 = false;
            // Rewrite the ModRM byte we just emitted (mod is now 0).
            buf_.back() = static_cast<uint8_t>((0u << 6) |
                                               ((reg & 7) << 3) | 4);
        }
        emit8(static_cast<uint8_t>((ss << 6) | (index << 3) | base));
    }

    if (disp8)
        emit8(static_cast<uint8_t>(m.disp));
    else if (disp32)
        emit32(static_cast<uint32_t>(m.disp));
}

void
Assembler::emitRel32To(Label target)
{
    fixups_.push_back({buf_.size(), target.id});
    emit32(0);
}

uint8_t
Assembler::aluIdx(Op op) const
{
    switch (op) {
      case Op::Add:
        return 0;
      case Op::Or:
        return 1;
      case Op::Adc:
        return 2;
      case Op::Sbb:
        return 3;
      case Op::And:
        return 4;
      case Op::Sub:
        return 5;
      case Op::Xor:
        return 6;
      case Op::Cmp:
        return 7;
      default:
        el_panic("not an ALU op: %s", opName(op));
    }
}

uint8_t
Assembler::shiftIdx(Op op) const
{
    switch (op) {
      case Op::Rol:
        return 0;
      case Op::Ror:
        return 1;
      case Op::Shl:
        return 4;
      case Op::Shr:
        return 5;
      case Op::Sar:
        return 7;
      default:
        el_panic("not a shift op: %s", opName(op));
    }
}

void
Assembler::bytes(std::initializer_list<uint8_t> bs)
{
    for (uint8_t b : bs)
        emit8(b);
}

// ----- data movement -----------------------------------------------------

void
Assembler::movRI(Reg r, uint32_t imm)
{
    emit8(static_cast<uint8_t>(0xb8 + (r & 7)));
    emit32(imm);
}

void
Assembler::movRR(Reg d, Reg s)
{
    emit8(0x89);
    emitModRmReg(s, d);
}

void
Assembler::movRM(Reg d, const MemRef &m)
{
    emit8(0x8b);
    emitModRm(d, m);
}

void
Assembler::movMR(const MemRef &m, Reg s)
{
    emit8(0x89);
    emitModRm(s, m);
}

void
Assembler::movMI(const MemRef &m, uint32_t imm)
{
    emit8(0xc7);
    emitModRm(0, m);
    emit32(imm);
}

void
Assembler::movRI8(Reg8 r, uint8_t imm)
{
    emit8(static_cast<uint8_t>(0xb0 + (r & 7)));
    emit8(imm);
}

void
Assembler::movRM8(Reg8 d, const MemRef &m)
{
    emit8(0x8a);
    emitModRm(d, m);
}

void
Assembler::movMR8(const MemRef &m, Reg8 s)
{
    emit8(0x88);
    emitModRm(s, m);
}

void
Assembler::movMI8(const MemRef &m, uint8_t imm)
{
    emit8(0xc6);
    emitModRm(0, m);
    emit8(imm);
}

void
Assembler::movRM16(Reg d, const MemRef &m)
{
    emit8(0x66);
    emit8(0x8b);
    emitModRm(d, m);
}

void
Assembler::movzxRM8(Reg d, const MemRef &m)
{
    bytes({0x0f, 0xb6});
    emitModRm(d, m);
}

void
Assembler::movzxRR8(Reg d, Reg8 s)
{
    bytes({0x0f, 0xb6});
    emitModRmReg(d, s);
}

void
Assembler::movsxRM16(Reg d, const MemRef &m)
{
    bytes({0x0f, 0xbf});
    emitModRm(d, m);
}

void
Assembler::lea(Reg d, const MemRef &m)
{
    emit8(0x8d);
    emitModRm(d, m);
}

void
Assembler::pushR(Reg r)
{
    emit8(static_cast<uint8_t>(0x50 + (r & 7)));
}

void
Assembler::pushI(int32_t imm)
{
    if (imm >= -128 && imm <= 127) {
        emit8(0x6a);
        emit8(static_cast<uint8_t>(imm));
    } else {
        emit8(0x68);
        emit32(static_cast<uint32_t>(imm));
    }
}

void
Assembler::popR(Reg r)
{
    emit8(static_cast<uint8_t>(0x58 + (r & 7)));
}

void
Assembler::cdq()
{
    emit8(0x99);
}

void
Assembler::sahf()
{
    emit8(0x9e);
}

void
Assembler::lahf()
{
    emit8(0x9f);
}

void
Assembler::leave()
{
    emit8(0xc9);
}

// ----- integer ALU ---------------------------------------------------------

void
Assembler::aluRR(Op op, Reg d, Reg s)
{
    emit8(static_cast<uint8_t>((aluIdx(op) << 3) | 0x01));
    emitModRmReg(s, d);
}

void
Assembler::aluRI(Op op, Reg d, int32_t imm)
{
    if (imm >= -128 && imm <= 127) {
        emit8(0x83);
        emitModRmReg(aluIdx(op), d);
        emit8(static_cast<uint8_t>(imm));
    } else {
        emit8(0x81);
        emitModRmReg(aluIdx(op), d);
        emit32(static_cast<uint32_t>(imm));
    }
}

void
Assembler::aluRM(Op op, Reg d, const MemRef &m)
{
    emit8(static_cast<uint8_t>((aluIdx(op) << 3) | 0x03));
    emitModRm(d, m);
}

void
Assembler::aluMR(Op op, const MemRef &m, Reg s)
{
    emit8(static_cast<uint8_t>((aluIdx(op) << 3) | 0x01));
    emitModRm(s, m);
}

void
Assembler::aluMI(Op op, const MemRef &m, int32_t imm)
{
    if (imm >= -128 && imm <= 127) {
        emit8(0x83);
        emitModRm(aluIdx(op), m);
        emit8(static_cast<uint8_t>(imm));
    } else {
        emit8(0x81);
        emitModRm(aluIdx(op), m);
        emit32(static_cast<uint32_t>(imm));
    }
}

void
Assembler::aluRR8(Op op, Reg8 d, Reg8 s)
{
    emit8(static_cast<uint8_t>((aluIdx(op) << 3) | 0x00));
    emitModRmReg(s, d);
}

void
Assembler::aluRI8(Op op, Reg8 d, uint8_t imm)
{
    emit8(0x80);
    emitModRmReg(aluIdx(op), d);
    emit8(imm);
}

void
Assembler::testRR(Reg a, Reg b)
{
    emit8(0x85);
    emitModRmReg(b, a);
}

void
Assembler::testRI(Reg a, uint32_t imm)
{
    emit8(0xf7);
    emitModRmReg(0, a);
    emit32(imm);
}

void
Assembler::incR(Reg r)
{
    emit8(static_cast<uint8_t>(0x40 + (r & 7)));
}

void
Assembler::decR(Reg r)
{
    emit8(static_cast<uint8_t>(0x48 + (r & 7)));
}

void
Assembler::negR(Reg r)
{
    emit8(0xf7);
    emitModRmReg(3, r);
}

void
Assembler::notR(Reg r)
{
    emit8(0xf7);
    emitModRmReg(2, r);
}

void
Assembler::imulRR(Reg d, Reg s)
{
    bytes({0x0f, 0xaf});
    emitModRmReg(d, s);
}

void
Assembler::imulRM(Reg d, const MemRef &m)
{
    bytes({0x0f, 0xaf});
    emitModRm(d, m);
}

void
Assembler::mulR(Reg s)
{
    emit8(0xf7);
    emitModRmReg(4, s);
}

void
Assembler::divR(Reg s)
{
    emit8(0xf7);
    emitModRmReg(6, s);
}

void
Assembler::idivR(Reg s)
{
    emit8(0xf7);
    emitModRmReg(7, s);
}

void
Assembler::shiftRI(Op op, Reg r, uint8_t imm)
{
    if (imm == 1) {
        emit8(0xd1);
        emitModRmReg(shiftIdx(op), r);
    } else {
        emit8(0xc1);
        emitModRmReg(shiftIdx(op), r);
        emit8(imm);
    }
}

void
Assembler::shiftRCl(Op op, Reg r)
{
    emit8(0xd3);
    emitModRmReg(shiftIdx(op), r);
}

// ----- control flow ----------------------------------------------------

void
Assembler::jcc(Cond cond, Label target)
{
    emit8(0x0f);
    emit8(static_cast<uint8_t>(0x80 | static_cast<uint8_t>(cond)));
    emitRel32To(target);
}

void
Assembler::jmp(Label target)
{
    emit8(0xe9);
    emitRel32To(target);
}

void
Assembler::jmpAbs(uint32_t target)
{
    emit8(0xe9);
    uint32_t rel = target - (pc() + 4);
    emit32(rel);
}

void
Assembler::jmpR(Reg r)
{
    emit8(0xff);
    emitModRmReg(4, r);
}

void
Assembler::jmpM(const MemRef &m)
{
    emit8(0xff);
    emitModRm(4, m);
}

void
Assembler::call(Label target)
{
    emit8(0xe8);
    emitRel32To(target);
}

void
Assembler::callAbs(uint32_t target)
{
    emit8(0xe8);
    uint32_t rel = target - (pc() + 4);
    emit32(rel);
}

void
Assembler::callR(Reg r)
{
    emit8(0xff);
    emitModRmReg(2, r);
}

void
Assembler::ret(uint16_t pop_bytes)
{
    if (pop_bytes == 0) {
        emit8(0xc3);
    } else {
        emit8(0xc2);
        emit16(pop_bytes);
    }
}

void
Assembler::setcc(Cond cond, Reg8 r)
{
    emit8(0x0f);
    emit8(static_cast<uint8_t>(0x90 | static_cast<uint8_t>(cond)));
    emitModRmReg(0, r);
}

void
Assembler::cmovcc(Cond cond, Reg d, Reg s)
{
    emit8(0x0f);
    emit8(static_cast<uint8_t>(0x40 | static_cast<uint8_t>(cond)));
    emitModRmReg(d, s);
}

// ----- strings -----------------------------------------------------------

void
Assembler::repMovsd()
{
    bytes({0xf3, 0xa5});
}

void
Assembler::repStosd()
{
    bytes({0xf3, 0xab});
}

void
Assembler::cld()
{
    emit8(0xfc);
}

// ----- system -------------------------------------------------------------

void
Assembler::intN(uint8_t vector)
{
    emit8(0xcd);
    emit8(vector);
}

void
Assembler::int3()
{
    emit8(0xcc);
}

void
Assembler::nop()
{
    emit8(0x90);
}

void
Assembler::hlt()
{
    emit8(0xf4);
}

void
Assembler::ud2()
{
    bytes({0x0f, 0x0b});
}

// ----- x87 ------------------------------------------------------------------

void
Assembler::fldM32(const MemRef &m)
{
    emit8(0xd9);
    emitModRm(0, m);
}

void
Assembler::fldM64(const MemRef &m)
{
    emit8(0xdd);
    emitModRm(0, m);
}

void
Assembler::fildM32(const MemRef &m)
{
    emit8(0xdb);
    emitModRm(0, m);
}

void
Assembler::fstM32(const MemRef &m, bool pop)
{
    emit8(0xd9);
    emitModRm(pop ? 3 : 2, m);
}

void
Assembler::fstM64(const MemRef &m, bool pop)
{
    emit8(0xdd);
    emitModRm(pop ? 3 : 2, m);
}

void
Assembler::fistpM32(const MemRef &m)
{
    emit8(0xdb);
    emitModRm(3, m);
}

void
Assembler::fld1()
{
    bytes({0xd9, 0xe8});
}

void
Assembler::fldz()
{
    bytes({0xd9, 0xee});
}

namespace
{

/** Group selector byte for the register-form x87 arithmetic ops. */
uint8_t
x87Group(Op op, bool reversed_bank)
{
    // In the D8 bank: fsub=E0, fsubr=E8, fdiv=F0, fdivr=F8.
    // In the DC/DE banks the subtract/divide pairs swap places.
    switch (op) {
      case Op::Fadd:
        return 0xc0;
      case Op::Fmul:
        return 0xc8;
      case Op::Fsub:
        return reversed_bank ? 0xe8 : 0xe0;
      case Op::Fsubr:
        return reversed_bank ? 0xe0 : 0xe8;
      case Op::Fdiv:
        return reversed_bank ? 0xf8 : 0xf0;
      case Op::Fdivr:
        return reversed_bank ? 0xf0 : 0xf8;
      default:
        el_panic("not an x87 arith op: %s", opName(op));
    }
}

uint8_t
x87MemSel(Op op)
{
    switch (op) {
      case Op::Fadd:
        return 0;
      case Op::Fmul:
        return 1;
      case Op::Fsub:
        return 4;
      case Op::Fsubr:
        return 5;
      case Op::Fdiv:
        return 6;
      case Op::Fdivr:
        return 7;
      default:
        el_panic("not an x87 arith op: %s", opName(op));
    }
}

} // namespace

void
Assembler::farithM32(Op op, const MemRef &m)
{
    emit8(0xd8);
    emitModRm(x87MemSel(op), m);
}

void
Assembler::farithM64(Op op, const MemRef &m)
{
    emit8(0xdc);
    emitModRm(x87MemSel(op), m);
}

void
Assembler::farithSt0Sti(Op op, uint8_t i)
{
    emit8(0xd8);
    emit8(static_cast<uint8_t>(x87Group(op, false) + (i & 7)));
}

void
Assembler::farithStiSt0(Op op, uint8_t i, bool pop)
{
    emit8(pop ? 0xde : 0xdc);
    emit8(static_cast<uint8_t>(x87Group(op, true) + (i & 7)));
}

void
Assembler::fxch(uint8_t i)
{
    emit8(0xd9);
    emit8(static_cast<uint8_t>(0xc8 + (i & 7)));
}

void
Assembler::fchs()
{
    bytes({0xd9, 0xe0});
}

void
Assembler::fabs_()
{
    bytes({0xd9, 0xe1});
}

void
Assembler::fsqrt()
{
    bytes({0xd9, 0xfa});
}

void
Assembler::fcomi(uint8_t i, bool pop)
{
    emit8(pop ? 0xdf : 0xdb);
    emit8(static_cast<uint8_t>(0xf0 + (i & 7)));
}

void
Assembler::fnstswAx()
{
    bytes({0xdf, 0xe0});
}

void
Assembler::fninit()
{
    bytes({0xdb, 0xe3});
}

// ----- MMX ---------------------------------------------------------------

void
Assembler::movdMmR(uint8_t mm, Reg r)
{
    bytes({0x0f, 0x6e});
    emitModRmReg(mm, r);
}

void
Assembler::movqMmM(uint8_t mm, const MemRef &m)
{
    bytes({0x0f, 0x6f});
    emitModRm(mm, m);
}

void
Assembler::movqMMm(const MemRef &m, uint8_t mm)
{
    bytes({0x0f, 0x7f});
    emitModRm(mm, m);
}

namespace
{

uint8_t
pArithByte(Op op)
{
    switch (op) {
      case Op::Paddb:
        return 0xfc;
      case Op::Paddw:
        return 0xfd;
      case Op::Paddd:
      case Op::PadddX:
        return 0xfe;
      case Op::Psubb:
        return 0xf8;
      case Op::Psubw:
        return 0xf9;
      case Op::Psubd:
        return 0xfa;
      case Op::Pand:
        return 0xdb;
      case Op::Por:
        return 0xeb;
      case Op::Pxor:
        return 0xef;
      case Op::Pmullw:
        return 0xd5;
      default:
        el_panic("not a packed-int op: %s", opName(op));
    }
}

} // namespace

void
Assembler::pArithMmMm(Op op, uint8_t d, uint8_t s)
{
    bytes({0x0f, pArithByte(op)});
    emitModRmReg(d, s);
}

void
Assembler::pArithMmM(Op op, uint8_t d, const MemRef &m)
{
    bytes({0x0f, pArithByte(op)});
    emitModRm(d, m);
}

void
Assembler::emms()
{
    bytes({0x0f, 0x77});
}

// ----- SSE -----------------------------------------------------------------

void
Assembler::movapsXM(uint8_t x, const MemRef &m)
{
    bytes({0x0f, 0x28});
    emitModRm(x, m);
}

void
Assembler::movapsMX(const MemRef &m, uint8_t x)
{
    bytes({0x0f, 0x29});
    emitModRm(x, m);
}

void
Assembler::movupsXM(uint8_t x, const MemRef &m)
{
    bytes({0x0f, 0x10});
    emitModRm(x, m);
}

void
Assembler::movupsMX(const MemRef &m, uint8_t x)
{
    bytes({0x0f, 0x11});
    emitModRm(x, m);
}

void
Assembler::movssXM(uint8_t x, const MemRef &m)
{
    bytes({0xf3, 0x0f, 0x10});
    emitModRm(x, m);
}

void
Assembler::movssMX(const MemRef &m, uint8_t x)
{
    bytes({0xf3, 0x0f, 0x11});
    emitModRm(x, m);
}

void
Assembler::movsdXM(uint8_t x, const MemRef &m)
{
    bytes({0xf2, 0x0f, 0x10});
    emitModRm(x, m);
}

void
Assembler::movsdMX(const MemRef &m, uint8_t x)
{
    bytes({0xf2, 0x0f, 0x11});
    emitModRm(x, m);
}

void
Assembler::movdqaXM(uint8_t x, const MemRef &m)
{
    bytes({0x66, 0x0f, 0x6f});
    emitModRm(x, m);
}

void
Assembler::movdqaMX(const MemRef &m, uint8_t x)
{
    bytes({0x66, 0x0f, 0x7f});
    emitModRm(x, m);
}

namespace
{

/** Returns {prefix (0 = none), opcode} for an SSE arithmetic op. */
std::pair<uint8_t, uint8_t>
sseEnc(Op op)
{
    switch (op) {
      case Op::Addps:
        return {0, 0x58};
      case Op::Addss:
        return {0xf3, 0x58};
      case Op::Addpd:
        return {0x66, 0x58};
      case Op::Addsd:
        return {0xf2, 0x58};
      case Op::Mulps:
        return {0, 0x59};
      case Op::Mulss:
        return {0xf3, 0x59};
      case Op::Mulpd:
        return {0x66, 0x59};
      case Op::Mulsd:
        return {0xf2, 0x59};
      case Op::Subps:
        return {0, 0x5c};
      case Op::Subss:
        return {0xf3, 0x5c};
      case Op::Subpd:
        return {0x66, 0x5c};
      case Op::Divps:
        return {0, 0x5e};
      case Op::Divss:
        return {0xf3, 0x5e};
      case Op::Andps:
        return {0, 0x54};
      case Op::Xorps:
        return {0, 0x57};
      case Op::Sqrtss:
        return {0xf3, 0x51};
      case Op::PadddX:
        return {0x66, 0xfe};
      default:
        el_panic("not an SSE arith op: %s", opName(op));
    }
}

} // namespace

void
Assembler::sseArithXX(Op op, uint8_t d, uint8_t s)
{
    auto [prefix, opc] = sseEnc(op);
    if (prefix)
        emit8(prefix);
    bytes({0x0f, opc});
    emitModRmReg(d, s);
}

void
Assembler::sseArithXM(Op op, uint8_t d, const MemRef &m)
{
    auto [prefix, opc] = sseEnc(op);
    if (prefix)
        emit8(prefix);
    bytes({0x0f, opc});
    emitModRm(d, m);
}

void
Assembler::ucomissXX(uint8_t a, uint8_t b)
{
    bytes({0x0f, 0x2e});
    emitModRmReg(a, b);
}

void
Assembler::cvtps2pd(uint8_t d, uint8_t s)
{
    bytes({0x0f, 0x5a});
    emitModRmReg(d, s);
}

void
Assembler::cvtpd2ps(uint8_t d, uint8_t s)
{
    bytes({0x66, 0x0f, 0x5a});
    emitModRmReg(d, s);
}

void
Assembler::cvtsi2ss(uint8_t d, Reg s)
{
    bytes({0xf3, 0x0f, 0x2a});
    emitModRmReg(d, s);
}

void
Assembler::cvttss2si(Reg d, uint8_t s)
{
    bytes({0xf3, 0x0f, 0x2c});
    emitModRmReg(d, s);
}

} // namespace el::ia32
