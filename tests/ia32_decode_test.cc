/**
 * @file
 * Directed decoder tests: hand-written byte sequences with expected
 * decodings, including prefixes, ModRM/SIB shapes, x87 escapes and
 * SSE mandatory prefixes.
 */

#include <gtest/gtest.h>

#include <vector>

#include "ia32/decoder.hh"

namespace el::ia32
{
namespace
{

Insn
dec(std::vector<uint8_t> bytes, uint32_t addr = 0x1000)
{
    Insn insn;
    EXPECT_TRUE(decode(bytes.data(), static_cast<unsigned>(bytes.size()),
                       addr, &insn))
        << "failed to decode";
    EXPECT_EQ(insn.len, bytes.size());
    return insn;
}

TEST(Decode, MovRegImm)
{
    Insn i = dec({0xb8, 0x78, 0x56, 0x34, 0x12}); // mov eax, 0x12345678
    EXPECT_EQ(i.op, Op::Mov);
    EXPECT_EQ(i.dst.kind, OperandKind::Gpr);
    EXPECT_EQ(i.dst.reg, RegEax);
    EXPECT_EQ(i.src.imm, 0x12345678);
}

TEST(Decode, MovRegReg)
{
    Insn i = dec({0x89, 0xd8}); // mov eax, ebx
    EXPECT_EQ(i.op, Op::Mov);
    EXPECT_EQ(i.dst.reg, RegEax);
    EXPECT_EQ(i.src.reg, RegEbx);
}

TEST(Decode, MovLoadBaseDisp8)
{
    Insn i = dec({0x8b, 0x46, 0x10}); // mov eax, [esi+0x10]
    EXPECT_EQ(i.op, Op::Mov);
    EXPECT_TRUE(i.src.isMem());
    EXPECT_TRUE(i.src.mem.has_base);
    EXPECT_EQ(i.src.mem.base, RegEsi);
    EXPECT_EQ(i.src.mem.disp, 0x10);
}

TEST(Decode, MovStoreSib)
{
    // mov [eax+ecx*4+0x20], edx
    Insn i = dec({0x89, 0x54, 0x88, 0x20});
    EXPECT_EQ(i.op, Op::Mov);
    EXPECT_TRUE(i.dst.isMem());
    EXPECT_EQ(i.dst.mem.base, RegEax);
    EXPECT_TRUE(i.dst.mem.has_index);
    EXPECT_EQ(i.dst.mem.index, RegEcx);
    EXPECT_EQ(i.dst.mem.scale, 4);
    EXPECT_EQ(i.dst.mem.disp, 0x20);
}

TEST(Decode, MovAbsolute)
{
    Insn i = dec({0x8b, 0x0d, 0x00, 0x20, 0x40, 0x00});
    // mov ecx, [0x402000]
    EXPECT_EQ(i.op, Op::Mov);
    EXPECT_FALSE(i.src.mem.has_base);
    EXPECT_FALSE(i.src.mem.has_index);
    EXPECT_EQ(i.src.mem.disp, 0x402000);
}

TEST(Decode, EbpRequiresDisp)
{
    Insn i = dec({0x8b, 0x45, 0x00}); // mov eax, [ebp+0]
    EXPECT_TRUE(i.src.mem.has_base);
    EXPECT_EQ(i.src.mem.base, RegEbp);
    EXPECT_EQ(i.src.mem.disp, 0);
}

TEST(Decode, AluGroup83SignExtends)
{
    Insn i = dec({0x83, 0xc0, 0xff}); // add eax, -1
    EXPECT_EQ(i.op, Op::Add);
    EXPECT_EQ(i.src.imm, -1);
}

TEST(Decode, AluRmForms)
{
    Insn i = dec({0x01, 0xc8}); // add eax, ecx
    EXPECT_EQ(i.op, Op::Add);
    EXPECT_EQ(i.dst.reg, RegEax);
    EXPECT_EQ(i.src.reg, RegEcx);

    Insn j = dec({0x2b, 0x03}); // sub eax, [ebx]
    EXPECT_EQ(j.op, Op::Sub);
    EXPECT_EQ(j.dst.reg, RegEax);
    EXPECT_TRUE(j.src.isMem());
}

TEST(Decode, EightBitAlu)
{
    Insn i = dec({0x00, 0xd8}); // add al, bl
    EXPECT_EQ(i.op, Op::Add);
    EXPECT_EQ(i.op_size, 1u);
    EXPECT_EQ(i.dst.kind, OperandKind::Gpr8);
    EXPECT_EQ(i.dst.reg, RegAl);
    EXPECT_EQ(i.src.reg, RegBl);
}

TEST(Decode, SixteenBitViaPrefix)
{
    Insn i = dec({0x66, 0x01, 0xc8}); // add ax, cx
    EXPECT_EQ(i.op, Op::Add);
    EXPECT_EQ(i.op_size, 2u);
}

TEST(Decode, PushPop)
{
    EXPECT_EQ(dec({0x50}).op, Op::Push);
    EXPECT_EQ(dec({0x50}).dst.reg, RegEax);
    EXPECT_EQ(dec({0x5f}).op, Op::Pop);
    EXPECT_EQ(dec({0x5f}).dst.reg, RegEdi);
    Insn i = dec({0x6a, 0xfe}); // push -2
    EXPECT_EQ(i.op, Op::Push);
    EXPECT_EQ(i.dst.imm, -2);
}

TEST(Decode, JccShortAndNear)
{
    Insn i = dec({0x74, 0x10}, 0x1000); // je +0x10
    EXPECT_EQ(i.op, Op::Jcc);
    EXPECT_EQ(i.cond, Cond::E);
    EXPECT_EQ(i.target(), 0x1000u + 2 + 0x10);

    Insn j = dec({0x0f, 0x85, 0x00, 0x01, 0x00, 0x00}, 0x2000); // jne
    EXPECT_EQ(j.op, Op::Jcc);
    EXPECT_EQ(j.cond, Cond::NE);
    EXPECT_EQ(j.target(), 0x2000u + 6 + 0x100);
}

TEST(Decode, JmpCallRet)
{
    Insn i = dec({0xe9, 0xfb, 0xff, 0xff, 0xff}, 0x1000); // jmp $-5+... = 0x1000
    EXPECT_EQ(i.op, Op::Jmp);
    EXPECT_EQ(i.target(), 0x1000u);

    Insn c = dec({0xe8, 0x00, 0x00, 0x00, 0x00}, 0x1000);
    EXPECT_EQ(c.op, Op::Call);
    EXPECT_EQ(c.target(), 0x1005u);

    EXPECT_EQ(dec({0xc3}).op, Op::Ret);
    Insn r = dec({0xc2, 0x08, 0x00});
    EXPECT_EQ(r.op, Op::Ret);
    EXPECT_EQ(r.src.imm, 8);
}

TEST(Decode, IndirectBranch)
{
    Insn i = dec({0xff, 0xe0}); // jmp eax
    EXPECT_EQ(i.op, Op::JmpInd);
    EXPECT_EQ(i.src.reg, RegEax);

    Insn c = dec({0xff, 0x13}); // call [ebx]
    EXPECT_EQ(c.op, Op::CallInd);
    EXPECT_TRUE(c.src.isMem());
}

TEST(Decode, ShiftForms)
{
    Insn i = dec({0xc1, 0xe0, 0x04}); // shl eax, 4
    EXPECT_EQ(i.op, Op::Shl);
    EXPECT_EQ(i.src.imm, 4);

    Insn j = dec({0xd1, 0xf8}); // sar eax, 1
    EXPECT_EQ(j.op, Op::Sar);
    EXPECT_EQ(j.src.imm, 1);

    Insn k = dec({0xd3, 0xe8}); // shr eax, cl
    EXPECT_EQ(k.op, Op::Shr);
    EXPECT_EQ(k.src.kind, OperandKind::Gpr8);
    EXPECT_EQ(k.src.reg, RegCl);
}

TEST(Decode, MulDivGroup)
{
    EXPECT_EQ(dec({0xf7, 0xe1}).op, Op::Mul1);
    EXPECT_EQ(dec({0xf7, 0xe9}).op, Op::Imul1);
    EXPECT_EQ(dec({0xf7, 0xf1}).op, Op::Div);
    EXPECT_EQ(dec({0xf7, 0xf9}).op, Op::Idiv);
    EXPECT_EQ(dec({0xf7, 0xd9}).op, Op::Neg);
    EXPECT_EQ(dec({0xf7, 0xd1}).op, Op::Not);
    Insn i = dec({0x0f, 0xaf, 0xc3}); // imul eax, ebx
    EXPECT_EQ(i.op, Op::Imul2);
}

TEST(Decode, SetccCmovcc)
{
    Insn i = dec({0x0f, 0x94, 0xc0}); // sete al
    EXPECT_EQ(i.op, Op::Setcc);
    EXPECT_EQ(i.cond, Cond::E);
    EXPECT_EQ(i.dst.reg, RegAl);

    Insn j = dec({0x0f, 0x4c, 0xc1}); // cmovl eax, ecx
    EXPECT_EQ(j.op, Op::Cmovcc);
    EXPECT_EQ(j.cond, Cond::L);
}

TEST(Decode, X87MemForms)
{
    Insn i = dec({0xd9, 0x03}); // fld dword [ebx]
    EXPECT_EQ(i.op, Op::Fld);
    EXPECT_EQ(i.op_size, 4u);

    Insn j = dec({0xdd, 0x5d, 0xf8}); // fstp qword [ebp-8]
    EXPECT_EQ(j.op, Op::Fst);
    EXPECT_TRUE(j.fp_pop);
    EXPECT_EQ(j.op_size, 8u);

    Insn k = dec({0xd8, 0x0d, 0x00, 0x20, 0x00, 0x00}); // fmul dword [0x2000]
    EXPECT_EQ(k.op, Op::Fmul);
    EXPECT_EQ(k.src.mem.disp, 0x2000);

    Insn l = dec({0xd8, 0x0e}); // fmul dword [esi]
    EXPECT_EQ(l.op, Op::Fmul);
    EXPECT_EQ(l.src.mem.base, RegEsi);
}

TEST(Decode, X87RegForms)
{
    Insn i = dec({0xd9, 0xc9}); // fxch st(1)
    EXPECT_EQ(i.op, Op::Fxch);
    EXPECT_EQ(i.dst.reg, 1);

    Insn j = dec({0xde, 0xc1}); // faddp st(1), st
    EXPECT_EQ(j.op, Op::Fadd);
    EXPECT_TRUE(j.fp_pop);
    EXPECT_EQ(j.dst.reg, 1);

    Insn k = dec({0xde, 0xe9}); // fsubp st(1), st
    EXPECT_EQ(k.op, Op::Fsub);
    EXPECT_TRUE(k.fp_pop);

    EXPECT_EQ(dec({0xd9, 0xe8}).op, Op::Fld1);
    EXPECT_EQ(dec({0xd9, 0xee}).op, Op::Fldz);
    EXPECT_EQ(dec({0xd9, 0xe0}).op, Op::Fchs);
    EXPECT_EQ(dec({0xd9, 0xfa}).op, Op::Fsqrt);
    EXPECT_EQ(dec({0xdf, 0xe0}).op, Op::Fnstsw);
    EXPECT_EQ(dec({0xdb, 0xe3}).op, Op::Fninit);
}

TEST(Decode, Mmx)
{
    Insn i = dec({0x0f, 0x6e, 0xc3}); // movd mm0, ebx
    EXPECT_EQ(i.op, Op::Movd);
    EXPECT_EQ(i.dst.kind, OperandKind::Mm);

    Insn j = dec({0x0f, 0xfe, 0xca}); // paddd mm1, mm2
    EXPECT_EQ(j.op, Op::Paddd);
    EXPECT_EQ(j.dst.reg, 1);
    EXPECT_EQ(j.src.reg, 2);

    EXPECT_EQ(dec({0x0f, 0x77}).op, Op::Emms);
}

TEST(Decode, SseMandatoryPrefixes)
{
    EXPECT_EQ(dec({0x0f, 0x58, 0xc1}).op, Op::Addps);
    EXPECT_EQ(dec({0xf3, 0x0f, 0x58, 0xc1}).op, Op::Addss);
    EXPECT_EQ(dec({0x66, 0x0f, 0x58, 0xc1}).op, Op::Addpd);
    EXPECT_EQ(dec({0xf2, 0x0f, 0x58, 0xc1}).op, Op::Addsd);
    EXPECT_EQ(dec({0x66, 0x0f, 0xfe, 0xc1}).op, Op::PadddX);
    EXPECT_EQ(dec({0x0f, 0xfe, 0xc1}).op, Op::Paddd);
}

TEST(Decode, SseMoves)
{
    Insn i = dec({0x0f, 0x28, 0x00}); // movaps xmm0, [eax]
    EXPECT_EQ(i.op, Op::Movaps);
    EXPECT_TRUE(i.src.isMem());

    Insn j = dec({0xf3, 0x0f, 0x10, 0x08}); // movss xmm1, [eax]
    EXPECT_EQ(j.op, Op::Movss);

    Insn k = dec({0x66, 0x0f, 0x6f, 0x10}); // movdqa xmm2, [eax]
    EXPECT_EQ(k.op, Op::Movdqa);

    Insn fmt = dec({0x0f, 0x5a, 0xc1}); // cvtps2pd xmm0, xmm1
    EXPECT_EQ(fmt.op, Op::Cvtps2pd);
    Insn fmt2 = dec({0x66, 0x0f, 0x5a, 0xc1});
    EXPECT_EQ(fmt2.op, Op::Cvtpd2ps);
}

TEST(Decode, StringOps)
{
    Insn i = dec({0xf3, 0xa5}); // rep movsd
    EXPECT_EQ(i.op, Op::Movs);
    EXPECT_TRUE(i.rep);
    EXPECT_EQ(i.op_size, 4u);

    Insn j = dec({0xaa}); // stosb
    EXPECT_EQ(j.op, Op::Stos);
    EXPECT_FALSE(j.rep);
    EXPECT_EQ(j.op_size, 1u);
}

TEST(Decode, SystemOps)
{
    Insn i = dec({0xcd, 0x80}); // int 0x80
    EXPECT_EQ(i.op, Op::Int);
    EXPECT_EQ(i.src.imm, 0x80);
    EXPECT_EQ(dec({0xcc}).op, Op::Int3);
    EXPECT_EQ(dec({0xf4}).op, Op::Hlt);
    EXPECT_EQ(dec({0x90}).op, Op::Nop);
    EXPECT_EQ(dec({0x0f, 0x0b}).op, Op::Ud2);
    EXPECT_EQ(dec({0xc9}).op, Op::Leave);
    EXPECT_EQ(dec({0x99}).op, Op::Cdq);
}

TEST(Decode, InvalidBytes)
{
    Insn insn;
    std::vector<uint8_t> bad = {0x0f, 0xff};
    EXPECT_FALSE(decode(bad.data(), 2, 0, &insn));
    EXPECT_EQ(insn.op, Op::Invalid);
    EXPECT_GE(insn.len, 1);
}

TEST(Decode, TruncatedBuffer)
{
    Insn insn;
    std::vector<uint8_t> trunc = {0xb8, 0x01};
    EXPECT_FALSE(decode(trunc.data(), 2, 0, &insn));
    EXPECT_EQ(insn.op, Op::Invalid);
}

TEST(Decode, ClassificationHelpers)
{
    Insn push = dec({0x50});
    EXPECT_TRUE(canFault(push));
    EXPECT_TRUE(writesMemory(push));

    Insn mov_rr = dec({0x89, 0xd8});
    EXPECT_FALSE(canFault(mov_rr));
    EXPECT_FALSE(writesMemory(mov_rr));

    Insn jcc = dec({0x74, 0x00});
    EXPECT_TRUE(endsBlock(jcc));
    EXPECT_EQ(insnFlagsRead(jcc), static_cast<uint32_t>(FlagZf));

    Insn add = dec({0x01, 0xc8});
    EXPECT_EQ(insnFlagsWritten(add), static_cast<uint32_t>(FlagsArith));

    Insn adc = dec({0x11, 0xc8});
    EXPECT_EQ(insnFlagsRead(adc), static_cast<uint32_t>(FlagCf));

    Insn inc = dec({0x40});
    EXPECT_EQ(insnFlagsWritten(inc),
              static_cast<uint32_t>(FlagsArith & ~FlagCf));
}

} // namespace
} // namespace el::ia32
