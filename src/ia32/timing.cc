#include "ia32/timing.hh"

#include "support/bitfield.hh"

namespace el::ia32
{

namespace
{

// Per-class cycle costs of the direct-execution model.
constexpr double base_cpi = 0.5; // two-wide issue
constexpr unsigned mul_cycles = 3;
constexpr unsigned div_cycles = 20;
constexpr unsigned fp_cycles = 4;
constexpr unsigned fdiv_cycles = 23;
constexpr unsigned branch_miss_cycles = 12;
constexpr double indirect_miss_rate = 0.30; // BTB miss rate for indirects
constexpr double cond_miss_rate = 0.05;     // conditional mispredict rate
constexpr unsigned misalign_extra = 2;      // cheap on IA-32 (the point!)

} // namespace

StepResult
DirectRunner::step()
{
    State pre = interp_.state(); // cheap copy; used for address math
    StepResult res = interp_.step();
    if (res.kind != StepKind::Fault)
        charge(res.insn, pre);
    return res;
}

void
DirectRunner::charge(const Insn &insn, const State &pre)
{
    cycles_ += base_cpi;
    const OpInfo &info = opInfo(insn.op);

    auto eff = [&](const MemRef &m) {
        uint32_t addr = static_cast<uint32_t>(m.disp);
        if (m.has_base)
            addr += pre.gpr[m.base];
        if (m.has_index)
            addr += pre.gpr[m.index] * m.scale;
        return addr;
    };

    auto mem_cost = [&](uint32_t addr, unsigned size) {
        unsigned lat = cache_.access(addr, size);
        cycles_ += lat > 1 ? lat - 1 : 0; // first cycle overlaps issue
        if (!isAligned(addr, size ? size : 1))
            cycles_ += misalign_extra;
    };

    // Explicit memory operands.
    unsigned size = insn.op_size;
    if (insn.dst.isMem())
        mem_cost(eff(insn.dst.mem), size);
    if (insn.src.isMem())
        mem_cost(eff(insn.src.mem), size);

    // Implicit stack accesses.
    switch (insn.op) {
      case Op::Push:
      case Op::Call:
      case Op::CallInd:
        mem_cost(pre.gpr[RegEsp] - 4, 4);
        break;
      case Op::Pop:
      case Op::Ret:
        mem_cost(pre.gpr[RegEsp], 4);
        break;
      case Op::Leave:
        mem_cost(pre.gpr[RegEbp], 4);
        break;
      case Op::Movs:
      case Op::Stos:
      case Op::Lods: {
        // Charge the whole (possibly REP) operation.
        uint64_t count = insn.rep ? pre.gpr[RegEcx] : 1;
        for (uint64_t i = 0; i < count; ++i) {
            uint32_t off = static_cast<uint32_t>(i * insn.op_size);
            if (insn.op != Op::Stos)
                mem_cost(pre.gpr[RegEsi] + off, insn.op_size);
            if (insn.op != Op::Lods)
                mem_cost(pre.gpr[RegEdi] + off, insn.op_size);
            cycles_ += 0.5; // string-unit throughput
        }
        break;
      }
      default:
        break;
    }

    // Execution latency classes.
    switch (insn.op) {
      case Op::Imul2:
      case Op::Mul1:
      case Op::Imul1:
        cycles_ += mul_cycles;
        break;
      case Op::Div:
      case Op::Idiv:
        cycles_ += div_cycles;
        break;
      case Op::Fdiv:
      case Op::Fdivr:
      case Op::Fsqrt:
      case Op::Divps:
      case Op::Divss:
      case Op::Sqrtss:
        cycles_ += fdiv_cycles;
        break;
      default:
        if (info.is_fp || info.is_sse)
            cycles_ += fp_cycles * 0.5; // pipelined FP
        break;
    }

    // Branch prediction model: deterministic pseudo-random outcomes.
    if (info.is_branch) {
        branch_seed_ = branch_seed_ * 6364136223846793005ULL + 1442695040888963407ULL;
        double u = static_cast<double>(branch_seed_ >> 11) * 0x1.0p-53;
        double miss_rate = 0.0;
        if (insn.op == Op::Jcc)
            miss_rate = cond_miss_rate;
        else if (insn.op == Op::JmpInd || insn.op == Op::CallInd ||
                 insn.op == Op::Ret) {
            miss_rate = indirect_miss_rate;
        }
        if (u < miss_rate)
            cycles_ += branch_miss_cycles;
    }
}

} // namespace el::ia32
