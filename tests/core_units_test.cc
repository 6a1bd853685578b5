/**
 * @file
 * Unit tests for the translator's analysis and back end: region
 * discovery and block splitting, EFlags liveness, the scheduler's
 * group legality and renaming, hot coverage across trace retirement,
 * plus BTLib (handshake, personalities), the guest loader and the
 * native-kernel baselines.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "btlib/os_sim.hh"
#include "core/analysis.hh"
#include "core/emit_env.hh"
#include "core/sched.hh"
#include "guest/image.hh"
#include "guest/workloads.hh"
#include "harness/exec.hh"
#include "harness/native.hh"
#include "ia32/assembler.hh"
#include "ipf/machine.hh"
#include "support/strfmt.hh"

namespace el
{
namespace
{

using core::BasicBlock;
using core::Region;
using guest::Layout;
using namespace ia32;

void
loadCode(Assembler &as, mem::Memory *m)
{
    std::vector<uint8_t> code = as.finish();
    m->map(Layout::code_base, code.size() + 16, mem::PermRX);
    for (size_t k = 0; k < code.size(); ++k)
        m->writePriv(Layout::code_base + k, 1, code[k]);
}

TEST(Analysis, DiscoversDiamond)
{
    Assembler as(Layout::code_base);
    Label t = as.label(), j = as.label();
    as.testRR(RegEax, RegEax);     // block A
    as.jcc(Cond::E, t);
    as.incR(RegEbx);               // block F (fall)
    as.jmp(j);
    as.bind(t);
    as.decR(RegEbx);               // block T
    as.bind(j);
    as.ret();                      // block J
    mem::Memory m;
    loadCode(as, &m);

    Region r = core::discoverRegion(m, Layout::code_base, 8);
    EXPECT_GE(r.blocks.size(), 4u);
    const BasicBlock *a = r.find(Layout::code_base);
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(a->insns.back().op, Op::Jcc);
    EXPECT_NE(r.find(a->taken), nullptr);
    EXPECT_NE(r.find(a->fall), nullptr);
}

TEST(Analysis, SplitsBlockAtBranchTarget)
{
    // A loop whose backedge lands mid-block forces a split.
    Assembler as(Layout::code_base);
    as.movRI(RegEcx, 10);   // head (target is the next insn)
    Label mid = as.label();
    as.bind(mid);
    as.incR(RegEax);
    as.decR(RegEcx);
    as.jcc(Cond::NE, mid);
    as.ret();
    mem::Memory m;
    loadCode(as, &m);
    Region r = core::discoverRegion(m, Layout::code_base, 8);
    // The entry block must now end exactly before `mid`.
    const BasicBlock *entry = r.find(Layout::code_base);
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->insns.size(), 1u);
    EXPECT_NE(r.find(entry->fall), nullptr);
}

TEST(Analysis, FlagsLivenessKillsDeadFlags)
{
    // add (writes flags) immediately followed by another add: the first
    // add's flags are dead.
    Assembler as(Layout::code_base);
    as.aluRI(Op::Add, RegEax, 1);
    as.aluRI(Op::Add, RegEbx, 2);
    as.jcc(Cond::E, as.label()); // unbound is fine; finish() not called
    // Manually build a block instead (decode path requires finish()).
    Assembler as2(Layout::code_base);
    as2.aluRI(Op::Add, RegEax, 1);
    as2.aluRI(Op::Add, RegEbx, 2);
    Label out = as2.label();
    as2.jcc(Cond::E, out);
    as2.bind(out);
    as2.ret();
    mem::Memory m;
    loadCode(as2, &m);
    Region r = core::discoverRegion(m, Layout::code_base, 4);
    core::computeFlagsLiveness(r);
    const BasicBlock *b = r.find(Layout::code_base);
    ASSERT_NE(b, nullptr);
    std::vector<uint32_t> live =
        core::perInsnLiveFlags(*b, b->flags_live_out);
    // After insn 0 (add eax), ZF is not live (rewritten by insn 1).
    EXPECT_EQ(live[0] & FlagZf, 0u);
    // After insn 1 (add ebx), ZF is live (consumed by the je).
    EXPECT_NE(live[1] & FlagZf, 0u);
}

TEST(Analysis, WritableCodeReadsEveryFlag)
{
    // `add` then a call to a callee that rewrites every flag. On a
    // read-only page the add's flags are dead at the call; on a
    // writable page a store may turn the callee into a flag reader, so
    // every flag stays live.
    Assembler as(Layout::code_base);
    Label fn = as.label(), mid = as.label();
    as.aluRI(Op::Add, RegEax, 1);
    as.call(fn);
    as.bind(fn);
    as.aluRR(Op::Cmp, RegEax, RegEax);
    const uint32_t mid_eip = as.pc();
    as.bind(mid);
    as.aluRI(Op::Add, RegEbx, 2);
    as.jcc(Cond::NE, mid); // splits fn's block at mid
    as.ret();
    std::vector<uint8_t> code = as.finish();
    for (bool writable : {false, true}) {
        SCOPED_TRACE(writable ? "writable" : "read-only");
        mem::Memory m;
        m.map(Layout::code_base, code.size() + 16,
              writable ? mem::PermRWX : mem::PermRX);
        for (size_t k = 0; k < code.size(); ++k)
            m.writePriv(Layout::code_base + k, 1, code[k]);
        Region r = core::discoverRegion(m, Layout::code_base, 8);
        core::computeFlagsLiveness(r);
        const BasicBlock *entry = r.find(Layout::code_base);
        const BasicBlock *tail = r.find(mid_eip);
        ASSERT_NE(entry, nullptr);
        ASSERT_NE(tail, nullptr);
        EXPECT_EQ(entry->writable, writable);
        EXPECT_EQ(tail->writable, writable); // split tails inherit it
        EXPECT_EQ(entry->flags_live_out,
                  writable ? static_cast<uint32_t>(ia32::FlagsArith) : 0u);
    }
}

TEST(Sched, PacksIndependentOpsIntoOneGroup)
{
    core::Options opts;
    std::vector<core::Il> ils;
    for (int k = 0; k < 4; ++k) {
        core::Il il;
        il.ins.op = ipf::IpfOp::AddImm;
        il.dst = static_cast<int16_t>(core::vgr_base + k);
        il.src1 = ipf::gr_zero;
        il.ins.imm = k;
        ils.push_back(il);
    }
    {
        core::Il x;
        x.ins.op = ipf::IpfOp::Exit;
        x.ins.exit_reason = ipf::ExitReason::Halt;
        ils.push_back(x);
    }
    ipf::CodeCache cache;
    core::ScheduleResult res =
        core::schedule(ils, cache, opts, true, false, nullptr);
    ASSERT_TRUE(res.ok);
    // 4 independent A-ops -> one group; plus the exit group.
    EXPECT_LE(res.groups, 2u);
}

TEST(Sched, SplitsRawDependentOps)
{
    core::Options opts;
    std::vector<core::Il> ils;
    core::Il a;
    a.ins.op = ipf::IpfOp::AddImm;
    a.dst = core::vgr_base;
    a.src1 = ipf::gr_zero;
    a.ins.imm = 5;
    ils.push_back(a);
    core::Il b;
    b.ins.op = ipf::IpfOp::AddImm;
    b.dst = static_cast<int16_t>(core::vgr_base + 1);
    b.src1 = core::vgr_base; // RAW on a
    b.ins.imm = 1;
    ils.push_back(b);
    core::Il x;
    x.ins.op = ipf::IpfOp::Exit;
    x.ins.exit_reason = ipf::ExitReason::Halt;
    ils.push_back(x);

    ipf::CodeCache cache;
    core::ScheduleResult res =
        core::schedule(ils, cache, opts, false, false, nullptr);
    ASSERT_TRUE(res.ok);
    EXPECT_GE(res.groups, 2u);
    // Execute and verify the renamed code still computes 6.
    mem::Memory m;
    ipf::MachineConfig cfg;
    cfg.verify_groups = true;
    ipf::Machine mach(cache, m, cfg);
    ipf::StopInfo stop = mach.run(res.entry);
    EXPECT_EQ(stop.reason, ipf::ExitReason::Halt);
    // Find which physical register got the result of b.
    bool found = false;
    for (unsigned r = ipf::gr_rename_base;
         r < ipf::gr_rename_base + ipf::gr_rename_count; ++r) {
        if (mach.gr(r) == 6)
            found = true;
    }
    EXPECT_TRUE(found);
}

TEST(Sched, DeadIlsRemovedOnlyWhenReordering)
{
    core::Options opts;
    std::vector<core::Il> ils;
    core::Il dead;
    dead.ins.op = ipf::IpfOp::AddImm;
    dead.dst = core::vgr_base; // never read
    dead.src1 = ipf::gr_zero;
    dead.ins.imm = 9;
    ils.push_back(dead);
    core::Il x;
    x.ins.op = ipf::IpfOp::Exit;
    x.ins.exit_reason = ipf::ExitReason::Halt;
    ils.push_back(x);

    ipf::CodeCache c1, c2;
    core::ScheduleResult hot =
        core::schedule(ils, c1, opts, true, false, nullptr);
    core::ScheduleResult cold =
        core::schedule(ils, c2, opts, false, false, nullptr);
    EXPECT_EQ(hot.dead_removed, 1u);
    EXPECT_EQ(cold.dead_removed, 0u);
}

TEST(SmcGuard, GuardsExactlyItsWindowWithAlignedLoads)
{
    // The guard covers [eip, eip+8) at every alignment of eip, using
    // naturally aligned loads only (no misalignment fix-up per entry).
    constexpr uint32_t page = 0x40000;
    for (uint32_t skew = 0; skew < 8; ++skew) {
        mem::Memory m;
        m.map(page, 4096, mem::PermRW);
        for (uint32_t k = 0; k < 4096; ++k)
            m.writePriv(page + k, 1, (k * 37 + 11) & 0xff);
        const uint32_t eip = page + 64 + skew;
        uint64_t expected = 0;
        m.readPriv(eip, 8, &expected);

        core::EmitEnv env(core::Options{}, core::Phase::Cold, 0,
                          core::SpecContext{});
        env.beginHead();
        env.emitSmcGuard(eip, expected, 8);
        env.endExit(ipf::ExitReason::Halt, 0);
        ipf::CodeCache cache;
        core::ScheduleResult res = core::schedule(
            env.head.ils, cache, core::Options{}, false, false, nullptr);
        ASSERT_TRUE(res.ok);
        ipf::Machine mach(cache, m);

        EXPECT_EQ(mach.run(res.entry).reason, ipf::ExitReason::Halt)
            << "skew " << skew;
        for (int d = -1; d <= 8; ++d) {
            uint64_t old = 0;
            m.readPriv(eip + d, 1, &old);
            m.writePriv(eip + d, 1, old ^ 0x5a);
            ipf::StopInfo stop = mach.run(res.entry);
            bool guarded = d >= 0 && d < 8;
            EXPECT_EQ(stop.reason, guarded ? ipf::ExitReason::SmcDetected
                                           : ipf::ExitReason::Halt)
                << "skew " << skew << " byte " << d;
            if (guarded)
                EXPECT_EQ(stop.payload, (int64_t{8} << 32) | eip);
            m.writePriv(eip + d, 1, old);
        }
        EXPECT_EQ(mach.misalignedAccesses(), 0u) << "skew " << skew;
    }
}

TEST(Btlib, HandshakeAcceptsMatchingVersions)
{
    mem::Memory m;
    btlib::SimLinux os(m);
    btlib::BtOsClient client(os.vtable());
    EXPECT_TRUE(client.ok());
    EXPECT_STREQ(client.osName(), "sim-linux");
}

TEST(Btlib, HandshakeRejectsMismatch)
{
    mem::Memory m;
    btlib::SimLinux os(m);
    btlib::BtOsVtable vt = os.vtable();
    vt.major = btlib::btos_major + 1;
    btlib::BtOsClient newer(vt);
    EXPECT_FALSE(newer.ok());

    vt = os.vtable();
    vt.minor = btlib::btos_minor + 1;
    btlib::BtOsClient newer_minor(vt);
    EXPECT_FALSE(newer_minor.ok());

    vt = os.vtable();
    vt.system_service = nullptr;
    btlib::BtOsClient broken(vt);
    EXPECT_FALSE(broken.ok());
}

TEST(Btlib, AllocPagesMapsMemory)
{
    mem::Memory m;
    btlib::SimLinux os(m);
    btlib::BtOsClient client(os.vtable());
    uint64_t base = client.allocPages(12345);
    EXPECT_NE(base, 0u);
    EXPECT_TRUE(m.check(base, 12345, mem::PermRW));
}

TEST(Btlib, PersonalitiesDifferInAbi)
{
    mem::Memory m;
    btlib::SimLinux lin(m);
    btlib::SimWindows win(m);
    EXPECT_NE(lin.intVector(), win.intVector());
    EXPECT_EQ(lin.intVector(), btlib::linux_abi::int_vector);
    EXPECT_EQ(win.intVector(), btlib::windows_abi::int_vector);
}

TEST(GuestLoader, MapsSectionsWithPermissions)
{
    guest::Image img;
    img.entry = Layout::code_base;
    img.addCode(Layout::code_base, {0x90, 0xc3});
    img.addData(Layout::data_base, 0x2000);
    mem::Memory m;
    uint32_t esp = guest::load(img, m);
    EXPECT_TRUE(m.check(Layout::code_base, 2, mem::PermRX));
    EXPECT_FALSE(m.check(Layout::code_base, 2, mem::PermWrite));
    EXPECT_TRUE(m.check(Layout::data_base, 0x2000, mem::PermRW));
    EXPECT_TRUE(m.check(esp - 16, 16, mem::PermRW));
    EXPECT_TRUE(m.isCode(Layout::code_base, 2));
}

TEST(GuestLoader, WritableCodeStaysWritable)
{
    guest::Image img;
    img.entry = Layout::code_base;
    img.addCode(Layout::code_base, {0x90, 0xc3}, /*writable=*/true);
    mem::Memory m;
    guest::load(img, m);
    EXPECT_TRUE(m.check(Layout::code_base, 2, mem::PermRWX));
}

// ----- hot coverage -----------------------------------------------------

/** How many live hot traces hold @p eip (as entry or interior)? */
int
liveHolders(const core::Translator &xl, uint32_t eip)
{
    int n = 0;
    for (const auto &b : xl.allBlocks()) {
        if (b->kind != core::BlockKind::Hot || b->invalidated)
            continue;
        n += b->entry_eip == eip ||
             std::count(b->covered_eips.begin(), b->covered_eips.end(), eip);
    }
    return n;
}

/** Is @p b's use counter armed (its RegisterHot exit not silenced)? */
bool
heatArmed(core::Runtime &rt, const core::BlockInfo &b)
{
    for (int64_t i = b.cache_entry; i < b.cache_end; ++i) {
        const ipf::Instr &in = rt.codeCache().at(i);
        if (in.exit_reason == ipf::ExitReason::RegisterHot)
            return in.op == ipf::IpfOp::Exit;
    }
    return false;
}

/** Retire @p hot, then check every cold block at its entry and
 *  interiors: released ones are Eligible with heat re-armed, the rest
 *  keep the state they had. Returns how many were released. */
int
retireAndCheck(core::Runtime &rt, core::BlockInfo *hot)
{
    core::Translator &xl = rt.translator();
    std::vector<uint32_t> held = hot->covered_eips;
    held.push_back(hot->entry_eip);
    std::map<const core::BlockInfo *, core::HotState> before;
    for (const auto &b : xl.allBlocks())
        if (b->kind == core::BlockKind::Cold && !b->invalidated)
            before[b.get()] = b->hot_state;

    int32_t hot_id = hot->id;
    xl.discardHotBlock(hot);

    int released = 0;
    for (uint32_t eip : held) {
        bool still_held = liveHolders(xl, eip) > 0;
        for (const auto &[b, state] : before) {
            if (b->entry_eip != eip || b->precise)
                continue;
            SCOPED_TRACE(strfmt("cold block %d at %#x", b->id, eip));
            EXPECT_NE(b->redirect_to, hot_id);
            if (still_held) {
                EXPECT_EQ(b->hot_state, state);
                continue;
            }
            EXPECT_EQ(b->hot_state, core::HotState::Eligible);
            EXPECT_TRUE(heatArmed(rt, *b));
            released += state == core::HotState::Covered;
        }
    }
    return released;
}

TEST(HotCoverage, RetiredTraceReleasesInteriorsOnlyWhenUnheld)
{
    // Flat big code under synchronous sessions: traces tile the loop
    // body, and hot exits chain traces whose entries are interiors of
    // earlier traces.
    guest::WorkloadParams p;
    p.outer_iters = 200;
    p.size = 0;
    p.code_copies = 16;
    guest::Workload w = guest::buildBigCode("gcc", p);
    core::Options o;
    o.heat_threshold = 16;
    o.hot_batch = 1;
    harness::TranslatedRun tr =
        harness::runTranslated(w.image, w.params.abi, o);
    ASSERT_TRUE(tr.outcome.exited);
    core::Translator &xl = tr.runtime->translator();

    // An outer trace with an interior that is also an inner trace's
    // entry, and held by no third trace.
    core::BlockInfo *outer = nullptr, *inner = nullptr;
    for (const auto &b : xl.allBlocks()) {
        if (b->kind != core::BlockKind::Hot || b->invalidated)
            continue;
        for (const auto &h : xl.allBlocks())
            if (h->kind == core::BlockKind::Hot && !h->invalidated &&
                std::count(b->covered_eips.begin(), b->covered_eips.end(),
                           h->entry_eip) &&
                liveHolders(xl, h->entry_eip) == 2) {
                outer = b.get();
                inner = h.get();
            }
    }
    ASSERT_NE(outer, nullptr);
    uint32_t shared = inner->entry_eip;

    // Retiring the outer trace releases its unheld interiors; the
    // shared one stays covered by the inner trace's entry.
    EXPECT_GT(retireAndCheck(*tr.runtime, outer), 0);
    EXPECT_EQ(liveHolders(xl, shared), 1);

    // Retiring the inner trace then releases the shared block too.
    EXPECT_GT(retireAndCheck(*tr.runtime, inner), 0);
    EXPECT_EQ(liveHolders(xl, shared), 0);
}

// ----- native baselines -------------------------------------------------

TEST(NativeBaseline, StreamTableAlignedForAnyBufferSize)
{
    // The stream kernel's 8-byte lookup table sits past the byte
    // buffer. One more buffer byte must cost one more inner iteration
    // per outer pass, not a misaligned load on every lookup.
    guest::Workload w;
    w.kernel = "stream";
    w.params.outer_iters = 4;
    w.params.size = 24000;
    double even = harness::nativeCycles(w);
    w.params.size = 24001;
    double odd = harness::nativeCycles(w);

    double per_iter = even / (4.0 * 24000);
    EXPECT_GT(odd, even);
    EXPECT_LT(odd - even, 4 * per_iter * 2);
}

} // namespace
} // namespace el
