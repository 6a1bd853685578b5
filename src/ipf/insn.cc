#include "ipf/insn.hh"

#include "support/logging.hh"
#include "support/strfmt.hh"

namespace el::ipf
{

Slot
Instr::slotKind() const
{
    switch (op) {
      case IpfOp::Add:
      case IpfOp::Sub:
      case IpfOp::AddImm:
      case IpfOp::And:
      case IpfOp::Or:
      case IpfOp::Xor:
      case IpfOp::Andcm:
      case IpfOp::Shladd:
      case IpfOp::Cmp:
      case IpfOp::CmpImm:
      case IpfOp::Mov:
      case IpfOp::Padd:
      case IpfOp::Psub:
        return Slot::A;
      case IpfOp::Shl:
      case IpfOp::ShlImm:
      case IpfOp::Shr:
      case IpfOp::ShrU:
      case IpfOp::ShrImm:
      case IpfOp::ShrUImm:
      case IpfOp::Sxt:
      case IpfOp::Zxt:
      case IpfOp::Tbit:
      case IpfOp::Dep:
      case IpfOp::DepZ:
      case IpfOp::Extr:
      case IpfOp::ExtrU:
      case IpfOp::Popcnt:
      case IpfOp::MovToBr:
      case IpfOp::MovFromBr:
      case IpfOp::Pmull:
      case IpfOp::Pcmp:
        return Slot::I;
      case IpfOp::Movl:
        return Slot::I; // occupies L+X (charged as 2 slots by the timer)
      case IpfOp::Ld:
      case IpfOp::St:
      case IpfOp::ChkS:
      case IpfOp::Ldf:
      case IpfOp::Stf:
      case IpfOp::Getf:
      case IpfOp::Setf:
      case IpfOp::Mf:
        return Slot::M;
      case IpfOp::Xmul:
      case IpfOp::XDivS:
      case IpfOp::XDivU:
      case IpfOp::XRemS:
      case IpfOp::XRemU:
      case IpfOp::Fadd:
      case IpfOp::Fsub:
      case IpfOp::Fmpy:
      case IpfOp::Fma:
      case IpfOp::Fms:
      case IpfOp::Fnma:
      case IpfOp::Fdiv:
      case IpfOp::Fsqrt:
      case IpfOp::Fcmp:
      case IpfOp::Fneg:
      case IpfOp::Fabs:
      case IpfOp::FcvtXf:
      case IpfOp::FcvtFxTrunc:
      case IpfOp::Fmov:
      case IpfOp::Fpadd:
      case IpfOp::Fpsub:
      case IpfOp::Fpmpy:
      case IpfOp::Fpdiv:
      case IpfOp::Fpcvt:
        return Slot::F;
      case IpfOp::Br:
      case IpfOp::BrCall:
      case IpfOp::BrRet:
      case IpfOp::BrInd:
      case IpfOp::Exit:
        return Slot::B;
      case IpfOp::Nop:
        return Slot::A;
      default:
        el_panic("slotKind: bad op %u", static_cast<unsigned>(op));
    }
}

const char *
ipfOpName(IpfOp op)
{
    switch (op) {
      case IpfOp::Invalid: return "(invalid)";
      case IpfOp::Add: return "add";
      case IpfOp::Sub: return "sub";
      case IpfOp::AddImm: return "adds";
      case IpfOp::And: return "and";
      case IpfOp::Or: return "or";
      case IpfOp::Xor: return "xor";
      case IpfOp::Andcm: return "andcm";
      case IpfOp::Shl: return "shl";
      case IpfOp::ShlImm: return "shl";
      case IpfOp::Shr: return "shr";
      case IpfOp::ShrU: return "shr.u";
      case IpfOp::ShrImm: return "shr";
      case IpfOp::ShrUImm: return "shr.u";
      case IpfOp::Shladd: return "shladd";
      case IpfOp::Sxt: return "sxt";
      case IpfOp::Zxt: return "zxt";
      case IpfOp::Movl: return "movl";
      case IpfOp::Mov: return "mov";
      case IpfOp::MovToBr: return "mov.b";
      case IpfOp::MovFromBr: return "mov.fb";
      case IpfOp::Cmp: return "cmp";
      case IpfOp::CmpImm: return "cmp.i";
      case IpfOp::Tbit: return "tbit";
      case IpfOp::Dep: return "dep";
      case IpfOp::DepZ: return "dep.z";
      case IpfOp::Extr: return "extr";
      case IpfOp::ExtrU: return "extr.u";
      case IpfOp::Popcnt: return "popcnt";
      case IpfOp::Padd: return "padd";
      case IpfOp::Psub: return "psub";
      case IpfOp::Pmull: return "pmpyshr2";
      case IpfOp::Pcmp: return "pcmp";
      case IpfOp::Ld: return "ld";
      case IpfOp::St: return "st";
      case IpfOp::ChkS: return "chk.s";
      case IpfOp::Ldf: return "ldf";
      case IpfOp::Stf: return "stf";
      case IpfOp::Getf: return "getf.sig";
      case IpfOp::Setf: return "setf.sig";
      case IpfOp::Mf: return "mf";
      case IpfOp::Xmul: return "xmul*";
      case IpfOp::XDivS: return "xdiv.s*";
      case IpfOp::XDivU: return "xdiv.u*";
      case IpfOp::XRemS: return "xrem.s*";
      case IpfOp::XRemU: return "xrem.u*";
      case IpfOp::Fadd: return "fadd";
      case IpfOp::Fsub: return "fsub";
      case IpfOp::Fmpy: return "fmpy";
      case IpfOp::Fma: return "fma";
      case IpfOp::Fms: return "fms";
      case IpfOp::Fnma: return "fnma";
      case IpfOp::Fdiv: return "fdiv*";
      case IpfOp::Fsqrt: return "fsqrt*";
      case IpfOp::Fcmp: return "fcmp";
      case IpfOp::Fneg: return "fneg";
      case IpfOp::Fabs: return "fabs";
      case IpfOp::FcvtXf: return "fcvt.xf";
      case IpfOp::FcvtFxTrunc: return "fcvt.fx.trunc";
      case IpfOp::Fmov: return "fmov";
      case IpfOp::Fpadd: return "fpadd";
      case IpfOp::Fpsub: return "fpsub";
      case IpfOp::Fpmpy: return "fpmpy";
      case IpfOp::Fpdiv: return "fpdiv*";
      case IpfOp::Fpcvt: return "fpcvt";
      case IpfOp::Br: return "br";
      case IpfOp::BrCall: return "br.call";
      case IpfOp::BrRet: return "br.ret";
      case IpfOp::BrInd: return "br.ind";
      case IpfOp::Exit: return "exit";
      case IpfOp::Nop: return "nop";
      default: return "?";
    }
}

bool
writesGr(const Instr &i)
{
    switch (i.op) {
      case IpfOp::Add:
      case IpfOp::Sub:
      case IpfOp::AddImm:
      case IpfOp::And:
      case IpfOp::Or:
      case IpfOp::Xor:
      case IpfOp::Andcm:
      case IpfOp::Shl:
      case IpfOp::ShlImm:
      case IpfOp::Shr:
      case IpfOp::ShrU:
      case IpfOp::ShrImm:
      case IpfOp::ShrUImm:
      case IpfOp::Shladd:
      case IpfOp::Sxt:
      case IpfOp::Zxt:
      case IpfOp::Movl:
      case IpfOp::Mov:
      case IpfOp::MovFromBr:
      case IpfOp::Dep:
      case IpfOp::DepZ:
      case IpfOp::Extr:
      case IpfOp::ExtrU:
      case IpfOp::Popcnt:
      case IpfOp::Padd:
      case IpfOp::Psub:
      case IpfOp::Pmull:
      case IpfOp::Pcmp:
      case IpfOp::Ld:
      case IpfOp::Getf:
      case IpfOp::Xmul:
      case IpfOp::XDivS:
      case IpfOp::XDivU:
      case IpfOp::XRemS:
      case IpfOp::XRemU:
        return true;
      default:
        return false;
    }
}

bool
writesFr(const Instr &i)
{
    switch (i.op) {
      case IpfOp::Ldf:
      case IpfOp::Setf:
      case IpfOp::Fadd:
      case IpfOp::Fsub:
      case IpfOp::Fmpy:
      case IpfOp::Fma:
      case IpfOp::Fms:
      case IpfOp::Fnma:
      case IpfOp::Fdiv:
      case IpfOp::Fsqrt:
      case IpfOp::Fneg:
      case IpfOp::Fabs:
      case IpfOp::FcvtXf:
      case IpfOp::FcvtFxTrunc:
      case IpfOp::Fmov:
      case IpfOp::Fpadd:
      case IpfOp::Fpsub:
      case IpfOp::Fpmpy:
      case IpfOp::Fpdiv:
      case IpfOp::Fpcvt:
        return true;
      default:
        return false;
    }
}

std::string
Instr::toString() const
{
    std::string s;
    if (qp != 0)
        s += strfmt("(p%u) ", qp);
    s += ipfOpName(op);
    switch (op) {
      case IpfOp::Ld:
      case IpfOp::St:
        s += strfmt("%u", size);
        if (spec == Spec::S)
            s += ".s";
        break;
      case IpfOp::Ldf:
      case IpfOp::Stf:
        s += size == 4 ? "s" : size == 8 ? "d" : size == 9 ? "8" : "e";
        break;
      default:
        break;
    }
    s += strfmt(" d=%u,%u s=%u,%u,%u imm=%lld", dst, dst2, src1, src2,
                src3, static_cast<long long>(imm));
    if (target >= 0)
        s += strfmt(" ->%lld", static_cast<long long>(target));
    if (exit_reason != ExitReason::None)
        s += strfmt(" exit=%u", static_cast<unsigned>(exit_reason));
    if (stop)
        s += " ;;";
    return s;
}

} // namespace el::ipf
