#include "harness/native.hh"

#include "ipf/machine.hh"
#include "support/bitfield.hh"
#include "support/logging.hh"

namespace el::harness
{

using guest::WorkloadParams;
using ipf::CmpRel;
using ipf::CodeCache;
using ipf::Instr;
using ipf::IpfOp;
using ipf::Machine;

namespace
{

/** Minimal IPF assembler for the native kernels. */
class NB
{
  public:
    CodeCache code;

    Instr
    base(IpfOp op)
    {
        Instr i;
        i.op = op;
        i.meta.bucket = ipf::Bucket::Native;
        return i;
    }

    int64_t
    movl(uint8_t d, int64_t imm, bool stop = false)
    {
        Instr i = base(IpfOp::Movl);
        i.dst = d;
        i.imm = imm;
        i.stop = stop;
        return code.emit(i);
    }

    int64_t
    addi(uint8_t d, int64_t imm, uint8_t s, bool stop = false)
    {
        Instr i = base(IpfOp::AddImm);
        i.dst = d;
        i.imm = imm;
        i.src1 = s;
        i.stop = stop;
        return code.emit(i);
    }

    int64_t
    alu(IpfOp op, uint8_t d, uint8_t a, uint8_t b, bool stop = false)
    {
        Instr i = base(op);
        i.dst = d;
        i.src1 = a;
        i.src2 = b;
        i.stop = stop;
        return code.emit(i);
    }

    int64_t
    shladd(uint8_t d, uint8_t idx, unsigned lg, uint8_t b,
           bool stop = false)
    {
        Instr i = base(IpfOp::Shladd);
        i.dst = d;
        i.src1 = idx;
        i.src2 = b;
        i.imm = lg;
        i.stop = stop;
        return code.emit(i);
    }

    int64_t
    shli(uint8_t d, uint8_t s, unsigned n, bool stop = false)
    {
        Instr i = base(IpfOp::ShlImm);
        i.dst = d;
        i.src1 = s;
        i.imm = n;
        i.stop = stop;
        return code.emit(i);
    }

    int64_t
    extr(uint8_t d, uint8_t s, unsigned pos, unsigned len,
         bool stop = false)
    {
        Instr i = base(IpfOp::ExtrU);
        i.dst = d;
        i.src1 = s;
        i.pos = static_cast<uint8_t>(pos);
        i.len = static_cast<uint8_t>(len);
        i.stop = stop;
        return code.emit(i);
    }

    int64_t
    ld(uint8_t d, uint8_t a, unsigned size, int64_t post = 0,
       bool stop = false)
    {
        Instr i = base(IpfOp::Ld);
        i.dst = d;
        i.src1 = a;
        i.size = static_cast<uint8_t>(size);
        i.imm = post;
        i.stop = stop;
        return code.emit(i);
    }

    int64_t
    st(uint8_t a, uint8_t v, unsigned size, int64_t post = 0,
       bool stop = false)
    {
        Instr i = base(IpfOp::St);
        i.src1 = a;
        i.src2 = v;
        i.size = static_cast<uint8_t>(size);
        i.imm = post;
        i.stop = stop;
        return code.emit(i);
    }

    int64_t
    cmpi(CmpRel rel, uint8_t p, uint8_t p2, int64_t imm, uint8_t s,
         bool stop = true)
    {
        Instr i = base(IpfOp::CmpImm);
        i.dst = p;
        i.dst2 = p2;
        i.crel = rel;
        i.imm = imm;
        i.src2 = s;
        i.stop = stop;
        return code.emit(i);
    }

    int64_t
    br(int64_t target, uint8_t qp = 0, bool stop = true)
    {
        Instr i = base(IpfOp::Br);
        i.qp = qp;
        i.target = target;
        i.stop = stop;
        return code.emit(i);
    }

    int64_t
    exit(bool stop = true)
    {
        Instr i = base(IpfOp::Exit);
        i.exit_reason = ipf::ExitReason::Halt;
        i.stop = stop;
        return code.emit(i);
    }

    int64_t
    xmul(uint8_t d, uint8_t a, uint8_t b, bool stop = false)
    {
        Instr i = base(IpfOp::Xmul);
        i.dst = d;
        i.src1 = a;
        i.src2 = b;
        i.stop = stop;
        return code.emit(i);
    }

    int64_t
    xdiv(uint8_t d, uint8_t a, uint8_t b, bool stop = false)
    {
        Instr i = base(IpfOp::XDivU);
        i.dst = d;
        i.src1 = a;
        i.src2 = b;
        i.stop = stop;
        return code.emit(i);
    }
};

double
runNative(NB &nb, mem::Memory &memory)
{
    Machine m(nb.code, memory);
    ipf::StopInfo stop = m.run(0, 4ULL * 1000 * 1000 * 1000);
    el_assert(stop.kind == ipf::StopKind::Exit, "native kernel died");
    return m.totalCycles();
}

constexpr uint64_t nat_data = 0x100000;

double
nativeStream(const WorkloadParams &p)
{
    NB nb;
    mem::Memory memory;
    // 8-byte table entries: keep them aligned for any buffer size, or
    // every lookup pays the misalignment penalty (the slack page below
    // absorbs the padding).
    uint64_t table = alignUp(nat_data + p.size + 4096, 8);
    memory.map(nat_data, p.size + 4096 + 256 * 8 + 4096, mem::PermRW);

    // r10 buffer, r11 table, r12 outer, r13 inner, r14 acc, r15 addr.
    nb.movl(10, static_cast<int64_t>(nat_data));
    nb.movl(11, static_cast<int64_t>(table));
    nb.movl(12, p.outer_iters, true);
    int64_t outer = nb.addi(15, 0, 10);
    nb.movl(13, p.size, true);
    // inner: ld1 byte (post-inc), table lookup, accumulate, store back.
    int64_t inner = nb.ld(16, 15, 1);
    nb.addi(13, -1, 13, true);
    nb.shladd(17, 16, 3, 11, true);
    nb.ld(18, 17, 8, 0, true);
    nb.alu(IpfOp::Add, 14, 14, 18);
    nb.alu(IpfOp::Xor, 16, 16, 14, true);
    nb.st(15, 16, 1, 1);
    nb.cmpi(CmpRel::Ne, 6, 7, 0, 13);
    nb.br(inner, 6);
    nb.addi(12, -1, 12, true);
    nb.cmpi(CmpRel::Ne, 6, 7, 0, 12);
    nb.br(outer, 6);
    nb.exit();
    return runNative(nb, memory);
}

double
nativeChase(const WorkloadParams &p)
{
    NB nb;
    mem::Memory memory;
    // 64-bit nodes: {next:u64, val:u64} -> double the guest footprint.
    uint64_t bytes = static_cast<uint64_t>(p.size) * 16 + 4096;
    memory.map(nat_data, bytes, mem::PermRW);
    // Build next[i] = &node[(i*7919+1) % size] from host code (the init
    // loop is not what Figure 5 measures).
    for (uint32_t i = 0; i < p.size; ++i) {
        uint64_t tgt = (static_cast<uint64_t>(i) * 7919 + 1) % p.size;
        memory.writePriv(nat_data + i * 16, 8, nat_data + tgt * 16);
        memory.writePriv(nat_data + i * 16 + 8, 8, i);
    }
    nb.movl(12, p.outer_iters, true);
    int64_t outer = nb.movl(10, static_cast<int64_t>(nat_data));
    nb.movl(13, p.size, true);
    int64_t inner = nb.addi(15, 8, 10, true);
    nb.ld(16, 15, 8);      // val
    nb.ld(10, 10, 8);      // next (serialized: the chase dependency)
    nb.addi(13, -1, 13, true);
    nb.alu(IpfOp::Add, 14, 14, 16);
    nb.cmpi(CmpRel::Ne, 6, 7, 0, 13);
    nb.br(inner, 6);
    nb.addi(12, -1, 12, true);
    nb.cmpi(CmpRel::Ne, 6, 7, 0, 12);
    nb.br(outer, 6);
    nb.exit();
    return runNative(nb, memory);
}

double
nativeBranchy(const WorkloadParams &p)
{
    NB nb;
    mem::Memory memory;
    memory.map(nat_data, 4096, mem::PermRW);
    nb.movl(12, p.outer_iters);
    nb.movl(14, 0x12345678, true);
    int64_t outer = nb.movl(13, p.size, true);
    int64_t inner = nb.movl(16, 1103515245, true);
    nb.xmul(14, 14, 16, true);
    nb.addi(14, 12345, 14, true);
    // Unpredictable conditional work (predicated natively — the native
    // compiler if-converts these).
    Instr t1 = nb.base(IpfOp::Tbit);
    t1.dst = 6;
    t1.dst2 = 7;
    t1.src1 = 14;
    t1.pos = 10;
    t1.stop = true;
    nb.code.emit(t1);
    {
        Instr x = nb.base(IpfOp::Xor);
        x.qp = 6;
        x.dst = 14;
        x.src1 = 14;
        x.src2 = 16;
        x.stop = true;
        nb.code.emit(x);
    }
    if (p.indirect_every) {
        // Native indirect call through b6 (well-predicted natively is
        // still a few cycles).
        nb.extr(17, 14, 8, 2, true);
        int64_t fn_table = nb.code.nextIndex() + 12; // resolved below
        nb.movl(18, fn_table, true);
        nb.alu(IpfOp::Add, 18, 18, 17, true);
        {
            Instr mb = nb.base(IpfOp::MovToBr);
            mb.dst = ipf::br_ind;
            mb.src1 = 18;
            mb.stop = true;
            nb.code.emit(mb);
        }
        {
            Instr bi = nb.base(IpfOp::BrCall);
            bi.dst = 0; // b0
            // fall through to the "functions": emulate a short callee.
            bi.target = nb.code.nextIndex() + 1;
            bi.stop = true;
            nb.code.emit(bi);
        }
        nb.addi(14, 0x11, 14, true);
        // return
        {
            Instr rr = nb.base(IpfOp::BrRet);
            rr.src1 = 0;
            rr.stop = true;
            // Returning to the call site +1 loops forever; emulate the
            // callee inline instead (fall through).
            rr.op = IpfOp::Nop;
            nb.code.emit(rr);
        }
    }
    nb.addi(13, -1, 13, true);
    nb.cmpi(CmpRel::Ne, 6, 7, 0, 13);
    nb.br(inner, 6);
    nb.addi(12, -1, 12, true);
    nb.cmpi(CmpRel::Ne, 6, 7, 0, 12);
    nb.br(outer, 6);
    nb.exit();
    return runNative(nb, memory);
}

double
nativeParser(const WorkloadParams &p)
{
    NB nb;
    mem::Memory memory;
    memory.map(nat_data, p.size + 4096, mem::PermRW);
    for (uint32_t i = 0; i < p.size; ++i)
        memory.writePriv(nat_data + i, 1, ((i * i) & 0x7f) + 1);

    nb.movl(12, p.outer_iters, true);
    int64_t outer = nb.movl(10, static_cast<int64_t>(nat_data));
    nb.movl(13, p.size, true);
    int64_t inner = nb.ld(16, 10, 1, 1, true);
    // classify + hash (if-converted natively).
    nb.cmpi(CmpRel::Ltu, 6, 7, 0x41, 16, false);
    nb.addi(13, -1, 13, true);
    {
        Instr h = nb.base(IpfOp::Xmul);
        h.qp = 7;
        h.dst = 14;
        h.src1 = 14;
        h.src2 = 16;
        h.stop = true;
        nb.code.emit(h);
    }
    {
        Instr a = nb.base(IpfOp::Add);
        a.qp = 6;
        a.dst = 14;
        a.src1 = 14;
        a.src2 = 16;
        a.stop = true;
        nb.code.emit(a);
    }
    nb.cmpi(CmpRel::Ne, 6, 7, 0, 13);
    nb.br(inner, 6);
    nb.addi(12, -1, 12, true);
    nb.cmpi(CmpRel::Ne, 6, 7, 0, 12);
    nb.br(outer, 6);
    nb.exit();
    return runNative(nb, memory);
}

double
nativeMatrix(const WorkloadParams &p)
{
    NB nb;
    mem::Memory memory;
    uint64_t bytes = static_cast<uint64_t>(p.size) * 24 + 8192;
    memory.map(nat_data, bytes, mem::PermRW);
    uint64_t a = nat_data;
    uint64_t b = nat_data + p.size * 8 + 64;
    uint64_t c = b + p.size * 8 + 64;
    for (uint32_t i = 0; i < p.size; ++i) {
        memory.writePriv(a + i * 8, 8, static_cast<uint64_t>(i) * i);
        memory.writePriv(b + i * 8, 8, static_cast<uint64_t>(i) * i + 7);
    }
    nb.movl(12, p.outer_iters, true);
    int64_t outer = nb.movl(10, static_cast<int64_t>(a));
    nb.movl(11, static_cast<int64_t>(b));
    nb.movl(15, static_cast<int64_t>(c));
    nb.movl(13, p.size, true);
    int64_t inner = nb.ld(16, 10, 8, 8);
    nb.ld(17, 11, 8, 8, true);
    nb.shladd(18, 16, 1, 16, true);     // *3
    nb.alu(IpfOp::Add, 18, 18, 17);
    nb.extr(19, 13, 0, 4, true);        // i & 15
    nb.cmpi(CmpRel::Eq, 6, 7, 0, 19, true);
    {
        Instr d = nb.base(IpfOp::XDivU);
        d.qp = 6;
        d.dst = 18;
        d.src1 = 18;
        d.src2 = 11; // a nonzero address as divisor stand-in
        d.stop = true;
        nb.code.emit(d);
    }
    nb.st(15, 18, 8, 8);
    nb.addi(13, -1, 13, true);
    nb.cmpi(CmpRel::Ne, 6, 7, 0, 13);
    nb.br(inner, 6);
    nb.addi(12, -1, 12, true);
    nb.cmpi(CmpRel::Ne, 6, 7, 0, 12);
    nb.br(outer, 6);
    nb.exit();
    return runNative(nb, memory);
}

double
nativeBigCode(const WorkloadParams &p)
{
    NB nb;
    mem::Memory memory;
    memory.map(nat_data, 65536, mem::PermRW);
    nb.movl(12, p.outer_iters);
    nb.movl(10, static_cast<int64_t>(nat_data));
    nb.movl(14, 1, true);
    int64_t outer = nb.code.nextIndex();
    for (uint32_t cpy = 0; cpy < p.code_copies; ++cpy) {
        nb.addi(14, 0x1001 + (cpy & 0x3ff), 14, true);
        nb.extr(16, 14, 3, 32, false);
        nb.addi(17, ((cpy % 1024) * 8), 10, true);
        nb.alu(IpfOp::Xor, 14, 14, 16);
        nb.st(17, 14, 8, 0, true);
        nb.ld(18, 17, 8, 0, true);
        nb.alu(IpfOp::Add, 14, 14, 18, true);
    }
    nb.addi(12, -1, 12, true);
    nb.cmpi(CmpRel::Ne, 6, 7, 0, 12);
    nb.br(outer, 6);
    nb.exit();
    return runNative(nb, memory);
}

} // namespace

double
nativeCycles(const guest::Workload &workload)
{
    const WorkloadParams &p = workload.params;
    if (workload.kernel == "stream")
        return nativeStream(p);
    if (workload.kernel == "pointer_chase")
        return nativeChase(p);
    if (workload.kernel == "branchy")
        return nativeBranchy(p);
    if (workload.kernel == "parser")
        return nativeParser(p);
    if (workload.kernel == "matrix")
        return nativeMatrix(p);
    if (workload.kernel == "bigcode")
        return nativeBigCode(p);
    el_panic("no native kernel for %s", workload.kernel.c_str());
}

} // namespace el::harness
