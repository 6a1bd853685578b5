/**
 * @file
 * IA-32 machine-code assembler.
 *
 * The workload suite (guest/workloads.hh) uses this builder to emit real
 * x86 machine code into guest images, so the decoder, the interpreter and
 * the translator all consume genuine bytes. Labels support forward
 * references; branches to labels are encoded with rel32 displacements.
 *
 * The assembler emits exactly the encodings the decoder supports; a
 * round-trip property test (tests/ia32_roundtrip.cc) enforces this.
 */

#ifndef EL_IA32_ASSEMBLER_HH
#define EL_IA32_ASSEMBLER_HH

#include <cstdint>
#include <vector>

#include "ia32/insn.hh"
#include "ia32/regs.hh"

namespace el::ia32
{

/** Build a [base + disp] memory reference. */
inline MemRef
memb(Reg base, int32_t disp = 0)
{
    MemRef m;
    m.has_base = true;
    m.base = base;
    m.disp = disp;
    return m;
}

/** Build a [base + index*scale + disp] memory reference. */
inline MemRef
membi(Reg base, Reg index, uint8_t scale, int32_t disp = 0)
{
    MemRef m;
    m.has_base = true;
    m.base = base;
    m.has_index = true;
    m.index = index;
    m.scale = scale;
    m.disp = disp;
    return m;
}

/** Build an [index*scale + disp] memory reference (no base). */
inline MemRef
memi(Reg index, uint8_t scale, int32_t disp = 0)
{
    MemRef m;
    m.has_index = true;
    m.index = index;
    m.scale = scale;
    m.disp = disp;
    return m;
}

/** Build an absolute [disp] memory reference. */
inline MemRef
memabs(uint32_t addr)
{
    MemRef m;
    m.disp = static_cast<int32_t>(addr);
    return m;
}

/** A branch-target label; create with Assembler::label(). */
struct Label
{
    int id = -1;
    bool valid() const { return id >= 0; }
};

/** Emits IA-32 machine code with forward-referencing labels. */
class Assembler
{
  public:
    /** @param base Guest virtual address the code will be loaded at. */
    explicit Assembler(uint32_t base) : base_(base) {}

    /** Current emission address. */
    uint32_t pc() const { return base_ + static_cast<uint32_t>(buf_.size()); }

    uint32_t base() const { return base_; }

    /** Create an unbound label. */
    Label label();

    /** Bind @p l to the current position. */
    void bind(Label l);

    /** Finish assembly: patch all label fixups and return the bytes. */
    std::vector<uint8_t> finish();

    // ----- data movement ---------------------------------------------
    void movRI(Reg r, uint32_t imm);
    void movRR(Reg d, Reg s);
    void movRM(Reg d, const MemRef &m);
    void movMR(const MemRef &m, Reg s);
    void movMI(const MemRef &m, uint32_t imm);
    void movRI8(Reg8 r, uint8_t imm);
    void movRM8(Reg8 d, const MemRef &m);
    void movMR8(const MemRef &m, Reg8 s);
    void movMI8(const MemRef &m, uint8_t imm);
    void movRM16(Reg d, const MemRef &m);
    void movzxRM8(Reg d, const MemRef &m);
    void movzxRR8(Reg d, Reg8 s);
    void movsxRM16(Reg d, const MemRef &m);
    void lea(Reg d, const MemRef &m);
    void pushR(Reg r);
    void pushI(int32_t imm);
    void popR(Reg r);
    void cdq();
    void sahf();
    void lahf();
    void leave();

    // ----- integer ALU ------------------------------------------------
    /** Generic two-operand ALU: op in {Add,Adc,Sub,Sbb,And,Or,Xor,Cmp}. */
    void aluRR(Op op, Reg d, Reg s);
    void aluRI(Op op, Reg d, int32_t imm);
    void aluRM(Op op, Reg d, const MemRef &m);
    void aluMR(Op op, const MemRef &m, Reg s);
    void aluMI(Op op, const MemRef &m, int32_t imm);
    void aluRR8(Op op, Reg8 d, Reg8 s);
    void aluRI8(Op op, Reg8 d, uint8_t imm);
    void testRR(Reg a, Reg b);
    void testRI(Reg a, uint32_t imm);
    void incR(Reg r);
    void decR(Reg r);
    void negR(Reg r);
    void notR(Reg r);
    void imulRR(Reg d, Reg s);
    void imulRM(Reg d, const MemRef &m);
    void mulR(Reg s);
    void divR(Reg s);
    void idivR(Reg s);
    void shiftRI(Op op, Reg r, uint8_t imm);
    void shiftRCl(Op op, Reg r);

    // ----- control flow -------------------------------------------------
    void jcc(Cond cond, Label target);
    void jmp(Label target);
    void jmpAbs(uint32_t target);
    void jmpR(Reg r);
    void jmpM(const MemRef &m);
    void call(Label target);
    void callAbs(uint32_t target);
    void callR(Reg r);
    void ret(uint16_t pop_bytes = 0);
    void setcc(Cond cond, Reg8 r);
    void cmovcc(Cond cond, Reg d, Reg s);

    // ----- strings -------------------------------------------------------
    void repMovsd();
    void repStosd();
    void cld();

    // ----- system --------------------------------------------------------
    void intN(uint8_t vector);
    void int3();
    void nop();
    void hlt();
    void ud2();

    // ----- x87 -------------------------------------------------------------
    void fldM32(const MemRef &m);
    void fldM64(const MemRef &m);
    void fildM32(const MemRef &m);
    void fstM32(const MemRef &m, bool pop);
    void fstM64(const MemRef &m, bool pop);
    void fistpM32(const MemRef &m);
    void fld1();
    void fldz();
    /** op in {Fadd,Fmul,Fsub,Fsubr,Fdiv,Fdivr} applied to ST(0), m32. */
    void farithM32(Op op, const MemRef &m);
    void farithM64(Op op, const MemRef &m);
    /** ST(0) = ST(0) op ST(i). */
    void farithSt0Sti(Op op, uint8_t i);
    /** ST(i) = ST(i) op ST(0); @p pop selects the P form. */
    void farithStiSt0(Op op, uint8_t i, bool pop);
    void fxch(uint8_t i);
    void fchs();
    void fabs_();
    void fsqrt();
    void fcomi(uint8_t i, bool pop);
    void fnstswAx();
    void fninit();

    // ----- MMX -------------------------------------------------------------
    void movdMmR(uint8_t mm, Reg r);
    void movqMmM(uint8_t mm, const MemRef &m);
    void movqMMm(const MemRef &m, uint8_t mm);
    /** op in {Paddb..Psubd, Pand, Por, Pxor, Pmullw}; mm, mm form. */
    void pArithMmMm(Op op, uint8_t d, uint8_t s);
    void pArithMmM(Op op, uint8_t d, const MemRef &m);
    void emms();

    // ----- SSE ---------------------------------------------------------------
    void movapsXM(uint8_t x, const MemRef &m);
    void movapsMX(const MemRef &m, uint8_t x);
    void movupsXM(uint8_t x, const MemRef &m);
    void movupsMX(const MemRef &m, uint8_t x);
    void movssXM(uint8_t x, const MemRef &m);
    void movssMX(const MemRef &m, uint8_t x);
    void movsdXM(uint8_t x, const MemRef &m);
    void movsdMX(const MemRef &m, uint8_t x);
    void movdqaXM(uint8_t x, const MemRef &m);
    void movdqaMX(const MemRef &m, uint8_t x);
    /** op is one of the SSE arithmetic Ops (Addps, Mulss, ...). */
    void sseArithXX(Op op, uint8_t d, uint8_t s);
    void sseArithXM(Op op, uint8_t d, const MemRef &m);
    void ucomissXX(uint8_t a, uint8_t b);
    void cvtps2pd(uint8_t d, uint8_t s);
    void cvtpd2ps(uint8_t d, uint8_t s);
    void cvtsi2ss(uint8_t d, Reg s);
    void cvttss2si(Reg d, uint8_t s);

    // ----- raw ------------------------------------------------------------
    void byte(uint8_t b) { buf_.push_back(b); }
    void bytes(std::initializer_list<uint8_t> bs);

  private:
    struct Fixup
    {
        size_t offset; //!< Location of the rel32 field in buf_.
        int label;
    };

    void emit8(uint8_t v) { buf_.push_back(v); }
    void emit16(uint16_t v);
    void emit32(uint32_t v);
    void emitModRm(unsigned reg, const MemRef &m);
    void emitModRmReg(unsigned reg, unsigned rm);
    /** Emit either reg-form or mem-form ModRM for a unified operand. */
    void emitRel32To(Label target);
    uint8_t aluIdx(Op op) const;
    uint8_t shiftIdx(Op op) const;

    uint32_t base_;
    std::vector<uint8_t> buf_;
    std::vector<int64_t> label_pos_; //!< -1 while unbound.
    std::vector<Fixup> fixups_;
    bool finished_ = false;
};

} // namespace el::ia32

#endif // EL_IA32_ASSEMBLER_HH
