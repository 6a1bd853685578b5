/**
 * @file
 * EmitEnv, part 2: the architectural-state machinery — x87 stack
 * speculation and FXCH elimination, MMX domain handling, XMM format
 * tracking, commit regions and reconstruction maps, block guards and
 * status tails, and the block-ending control transfers.
 */

#include "core/emit_env.hh"

#include "ipf/regs.hh"
#include "support/bitfield.hh"
#include "support/logging.hh"

namespace el::core
{

using ia32::FaultKind;
using ipf::IpfOp;

// ----- x87 stack ---------------------------------------------------------

void
EmitEnv::touchFp()
{
    if (!fp_used_ && !mmx_used_) {
        guard.checks_mmx = true;
        guard.expect_domain = 0;
        cur_domain_ = 0;
    }
    fp_used_ = true;
    if (cur_domain_ == 1) {
        // The block mixed MMX then FP: move the MMX values back into the
        // aliased FP significands (the expensive inline conversion the
        // speculation normally avoids).
        for (unsigned k = 0; k < 8; ++k) {
            Il il = mk(IpfOp::Setf);
            il.dst = ipf::frForFpSlot(k);
            il.src1 = ipf::grForMmx(k);
            il.ins.size = 0; // significand
            emit(il);
        }
        cur_domain_ = 0;
    }
}

void
EmitEnv::touchMmx()
{
    if (!fp_used_ && !mmx_used_) {
        guard.checks_mmx = true;
        guard.expect_domain = 1;
        cur_domain_ = 1;
    }
    mmx_used_ = true;
    if (cur_domain_ == 0) {
        for (unsigned k = 0; k < 8; ++k) {
            Il il = mk(IpfOp::Getf);
            il.dst = ipf::grForMmx(k);
            il.src1 = ipf::frForFpSlot(k);
            il.ins.size = 0;
            emit(il);
        }
        cur_domain_ = 1;
    }
    // Architecturally, every MMX instruction makes all stack slots valid
    // and resets TOS.
    tag_now_ = 0xff;
    touched_ = 0xff;
    tag_set_ = 0xff;
    tag_clear_ = 0;
    cur_tos_ = 0;
}

void
EmitEnv::emitStaticGuestFault(FaultKind kind)
{
    Il x = mk(IpfOp::Exit);
    x.ins.exit_reason = ipf::ExitReason::GuestFault;
    uint32_t ip = cur_insn ? cur_insn->addr : 0;
    x.ins.exit_payload = (static_cast<int64_t>(ip) << 8) |
                         static_cast<int64_t>(kind);
    emit(x);
}

int16_t
EmitEnv::frForSt(uint8_t sti)
{
    touchFp();
    uint8_t abs = (cur_tos_ + sti) & 7;
    uint8_t bit = static_cast<uint8_t>(1u << abs);
    if (!(touched_ & bit)) {
        guard.need_valid |= bit;
        touched_ |= bit;
        tag_now_ |= bit;
    } else if (!(tag_now_ & bit)) {
        // Statically known stack fault (read of an empty slot).
        emitStaticGuestFault(FaultKind::FpStackFault);
        tag_now_ |= bit; // keep generating (dead) code sanely
    }
    return fp_perm_[abs];
}

void
EmitEnv::fpPush()
{
    touchFp();
    uint8_t abs = (cur_tos_ + 7) & 7;
    uint8_t bit = static_cast<uint8_t>(1u << abs);
    if (!(touched_ & bit)) {
        guard.need_empty |= bit;
    } else if (tag_now_ & bit) {
        emitStaticGuestFault(FaultKind::FpStackFault);
    }
    touched_ |= bit;
    tag_now_ |= bit;
    tag_set_ |= bit;
    tag_clear_ &= static_cast<uint8_t>(~bit);
    cur_tos_ = abs;
}

void
EmitEnv::fpPop()
{
    touchFp();
    uint8_t abs = cur_tos_;
    uint8_t bit = static_cast<uint8_t>(1u << abs);
    touched_ |= bit;
    tag_now_ &= static_cast<uint8_t>(~bit);
    tag_clear_ |= bit;
    tag_set_ &= static_cast<uint8_t>(~bit);
    cur_tos_ = (cur_tos_ + 1) & 7;
}

void
EmitEnv::fpSwap(uint8_t sti)
{
    touchFp();
    uint8_t a = cur_tos_;
    uint8_t b = (cur_tos_ + sti) & 7;
    if (phase == Phase::Hot && options.enable_fxch_elim) {
        std::swap(fp_perm_[a], fp_perm_[b]);
        ++fxch_eliminated;
        return;
    }
    ++fxch_emitted;
    int16_t fa = fp_perm_[a];
    int16_t fb = fp_perm_[b];
    emitOp(IpfOp::Fmov, ipf::fr_t0, fa);
    emitOp(IpfOp::Fmov, fa, fb);
    emitOp(IpfOp::Fmov, fb, ipf::fr_t0);
}

void
EmitEnv::fpInit()
{
    touchFp();
    tag_now_ = 0;
    touched_ = 0xff;
    tag_clear_ = 0xff;
    tag_set_ = 0;
    cur_tos_ = 0;
}

void
EmitEnv::fpEmms()
{
    touchMmx();
    tag_now_ = 0;
    touched_ = 0xff;
    tag_clear_ = 0xff;
    tag_set_ = 0;
}

void
EmitEnv::restoreFpPerm()
{
    // Materialize the deferred FXCH permutation: move each slot's value
    // into its canonical FR, cycle by cycle, via the scratch FR.
    bool identity = true;
    for (unsigned k = 0; k < 8; ++k)
        identity = identity && fp_perm_[k] == ipf::frForFpSlot(k);
    if (identity)
        return;

    bool done[8] = {};
    for (unsigned start = 0; start < 8; ++start) {
        if (done[start] || fp_perm_[start] == ipf::frForFpSlot(start)) {
            done[start] = true;
            continue;
        }
        // Follow the cycle containing `start`.
        emitOp(IpfOp::Fmov, ipf::fr_t0, fp_perm_[start]);
        unsigned cur = start;
        for (;;) {
            // Which slot's value currently lives in canonical FR(cur)?
            unsigned donor = 0;
            bool found = false;
            for (unsigned j = 0; j < 8; ++j) {
                if (!done[j] && j != start &&
                    fp_perm_[j] == ipf::frForFpSlot(cur)) {
                    donor = j;
                    found = true;
                    break;
                }
            }
            if (!found)
                break;
            emitOp(IpfOp::Fmov, ipf::frForFpSlot(cur), fp_perm_[donor]);
            done[cur] = true;
            cur = donor;
        }
        emitOp(IpfOp::Fmov, ipf::frForFpSlot(cur), ipf::fr_t0);
        done[cur] = true;
        done[start] = true;
    }
    for (unsigned k = 0; k < 8; ++k)
        fp_perm_[k] = ipf::frForFpSlot(k);
}

// ----- in-memory FP stack (the FX!32-style ablation) ---------------------

int16_t
EmitEnv::fpMemTos()
{
    int16_t a = rtAddr(rt::fp_tos);
    int16_t v = newGr();
    Il ld = mk(IpfOp::Ld);
    ld.dst = v;
    ld.src1 = a;
    ld.ins.size = 1;
    emit(ld);
    return v;
}

int16_t
EmitEnv::fpMemSlotAddr(int16_t tos, uint8_t sti)
{
    int16_t t = newGr();
    emitOp(IpfOp::AddImm, t, tos, -1, sti);
    int16_t m = newGr();
    Il e = mk(IpfOp::ExtrU);
    e.dst = m;
    e.src1 = t;
    e.ins.pos = 0;
    e.ins.len = 3;
    emit(e);
    int16_t off = newGr();
    Il sh = mk(IpfOp::ShlImm);
    sh.dst = off;
    sh.src1 = m;
    sh.ins.imm = 4;
    emit(sh);
    int16_t base = rtAddr(rt::fp_mem_stack);
    int16_t addr = newGr();
    emitOp(IpfOp::Add, addr, off, base);
    return addr;
}

int16_t
EmitEnv::fpMemLoadSt(uint8_t sti)
{
    fp_used_ = true;
    int16_t addr = fpMemSlotAddr(fpMemTos(), sti);
    int16_t v = newFr();
    Il ld = mk(IpfOp::Ldf);
    ld.dst = v;
    ld.src1 = addr;
    ld.ins.size = 16;
    emit(ld);
    return v;
}

void
EmitEnv::fpMemStoreSt(uint8_t sti, int16_t fval)
{
    fp_used_ = true;
    int16_t addr = fpMemSlotAddr(fpMemTos(), sti);
    Il st = mk(IpfOp::Stf);
    st.src1 = addr;
    st.src2 = fval;
    st.ins.size = 16;
    emit(st);
}

void
EmitEnv::fpMemPush(int16_t fval)
{
    fp_used_ = true;
    int16_t tos = fpMemTos();
    int16_t t = newGr();
    emitOp(IpfOp::AddImm, t, tos, -1, 7);
    int16_t nt = newGr();
    Il e = mk(IpfOp::ExtrU);
    e.dst = nt;
    e.src1 = t;
    e.ins.pos = 0;
    e.ins.len = 3;
    emit(e);
    int16_t a = rtAddr(rt::fp_tos);
    Il st = mk(IpfOp::St);
    st.src1 = a;
    st.src2 = nt;
    st.ins.size = 1;
    emit(st);
    int16_t slot = fpMemSlotAddr(nt, 0);
    Il sf = mk(IpfOp::Stf);
    sf.src1 = slot;
    sf.src2 = fval;
    sf.ins.size = 16;
    emit(sf);
}

void
EmitEnv::fpMemPop()
{
    fp_used_ = true;
    int16_t tos = fpMemTos();
    int16_t t = newGr();
    emitOp(IpfOp::AddImm, t, tos, -1, 1);
    int16_t nt = newGr();
    Il e = mk(IpfOp::ExtrU);
    e.dst = nt;
    e.src1 = t;
    e.ins.pos = 0;
    e.ins.len = 3;
    emit(e);
    int16_t a = rtAddr(rt::fp_tos);
    Il st = mk(IpfOp::St);
    st.src1 = a;
    st.src2 = nt;
    st.ins.size = 1;
    emit(st);
}

// ----- XMM format tracking ------------------------------------------------

rt::XmmRep
EmitEnv::xmmRep(uint8_t i)
{
    i &= 7;
    uint8_t bit = static_cast<uint8_t>(1u << i);
    if (!(xmm_touched_ & bit)) {
        xmm_touched_ |= bit;
        if (options.enable_sse_format_spec) {
            guard.checks_xmm = true;
            guard.xmm_mask |= 0xfu << rt::formatShift(i);
            guard.xmm_expect |=
                (spec.xmm_format & (0xfu << rt::formatShift(i)));
        }
    }
    return xmm_rep_[i];
}

void
EmitEnv::xmmRequire(uint8_t i, rt::XmmRep want)
{
    i &= 7;
    rt::XmmRep cur = xmmRep(i);
    if (!options.enable_sse_format_spec) {
        // Ablation: every block converts from/to a canonical packed-
        // single representation; conversions happen around each use.
        cur = xmm_rep_[i];
    }
    if (cur == want)
        return;
    auto cvt_half = [&](unsigned half, rt::XmmRep from, rt::XmmRep to) {
        int16_t fr = ipf::frForXmm(i, half);
        int16_t gr = ipf::grForXmm(i, half);
        if (from == rt::XmmInt && to != rt::XmmInt) {
            Il il = mk(IpfOp::Setf);
            il.dst = fr;
            il.src1 = gr;
            il.ins.size = (to == rt::XmmPd) ? 8 : 0;
            emit(il);
        } else if (from != rt::XmmInt && to == rt::XmmInt) {
            Il il = mk(IpfOp::Getf);
            il.dst = gr;
            il.src1 = fr;
            il.ins.size = (from == rt::XmmPd) ? 8 : 0;
            emit(il);
        } else {
            // FR-resident format change: round-trip through a GR.
            int16_t t = newGr();
            Il g = mk(IpfOp::Getf);
            g.dst = t;
            g.src1 = fr;
            g.ins.size = (from == rt::XmmPd) ? 8 : 0;
            emit(g);
            Il s = mk(IpfOp::Setf);
            s.dst = fr;
            s.src1 = t;
            s.ins.size = (to == rt::XmmPd) ? 8 : 0;
            emit(s);
        }
    };
    cvt_half(0, cur, want);
    cvt_half(1, cur, want);
    xmm_rep_[i] = want;
}

void
EmitEnv::xmmDefine(uint8_t i, rt::XmmRep rep)
{
    i &= 7;
    uint8_t bit = static_cast<uint8_t>(1u << i);
    xmm_touched_ |= bit;      // full redefine: no entry guard needed
    xmm_rep_[i] = rep;
}

uint32_t
EmitEnv::xmmExitFormats() const
{
    uint32_t w = spec.xmm_format;
    for (unsigned i = 0; i < 8; ++i) {
        if (xmm_touched_ & (1u << i)) {
            w &= ~(0xfu << rt::formatShift(i));
            w |= static_cast<uint32_t>(xmm_rep_[i]) << rt::formatShift(i);
        }
    }
    return w;
}

// ----- instruction & region management -----------------------------------

void
EmitEnv::beginInsn(const ia32::Insn &insn, uint32_t live_flags)
{
    cur_insn = &insn;
    last_insn_ip_ = insn.addr;
    live_mask_ = live_flags;
    if (region_fresh_) {
        region_start_ip_ = insn.addr;
        region_fresh_ = false;
    }
    will_close_region_ = phase == Phase::Hot &&
                         (ia32::writesMemory(insn) || ia32::endsBlock(insn));
    if (ia32::canFault(insn)) {
        // Reconstruction maps are captured for faulting instructions in
        // both phases: hot code needs the full register map; cold code
        // needs the FP TOS/TAG deltas accumulated since block entry.
        cur_commit_id_ = captureRecovery();
    } else {
        cur_commit_id_ = -1;
    }
    if (phase == Phase::Cold && ia32::canFault(insn)) {
        // Maintain the IA-32 state register (section 4, cold code).
        if (!state_reg_set_) {
            Il il = mk(IpfOp::Movl);
            il.dst = ipf::gr_state;
            il.ins.imm = insn.addr;
            il.ins.meta.ia32_ip = insn.addr;
            emit(il);
            state_reg_set_ = true;
        } else if (insn.addr != last_state_ip_) {
            Il il = mk(IpfOp::AddImm);
            il.dst = ipf::gr_state;
            il.src1 = ipf::gr_state;
            il.ins.imm = static_cast<int64_t>(insn.addr) -
                         static_cast<int64_t>(last_state_ip_);
            emit(il);
        }
        last_state_ip_ = insn.addr;
    }
}

void
EmitEnv::endInsn()
{
    if (phase == Phase::Cold) {
        // Sync modified guest registers to their homes; this happens
        // after the instruction's last faulting IPF instruction, which
        // is exactly the Table-1 ordering discipline.
        for (unsigned r = 0; r < ia32::NumRegs; ++r) {
            if (guest_dirty_ & (1u << r)) {
                Il il = mk(IpfOp::Mov);
                il.dst = ipf::grForGuest(r);
                il.src1 = guest_loc_[r];
                il.is_ordered = true;
                emit(il);
                guest_loc_[r] = ipf::grForGuest(r);
            }
        }
        guest_dirty_ = 0;
    } else if (will_close_region_) {
        closeRegion();
    }
    cur_insn = nullptr;
}

int32_t
EmitEnv::captureRecovery()
{
    RecoveryMap map;
    map.guest_ip = cur_insn ? cur_insn->addr : region_start_ip_;
    for (unsigned r = 0; r < ia32::NumRegs; ++r) {
        map.gpr[r] = (guest_loc_[r] == ipf::grForGuest(r))
                         ? Loc::home()
                         : Loc::gr(guest_loc_[r]);
    }
    map.flags = flagRecipe();
    map.tos_delta = tosDelta();
    map.tag_set = tag_set_;
    map.tag_clear = tag_clear_;
    map.xmm_formats = xmmExitFormats();
    map.mmx_domain = cur_domain_;
    recovery.push_back(map);
    return static_cast<int32_t>(recovery.size()) - 1;
}

void
EmitEnv::closeRegion()
{
    for (unsigned r = 0; r < ia32::NumRegs; ++r) {
        if (guest_dirty_ & (1u << r)) {
            Il il = mk(IpfOp::Mov);
            il.dst = ipf::grForGuest(r);
            il.src1 = guest_loc_[r];
            il.is_ordered = true;
            emit(il);
            guest_loc_[r] = ipf::grForGuest(r);
        }
    }
    guest_dirty_ = 0;
    // Keep live lazy flags recoverable by a cold re-execution (Resync).
    materializeFlags(lazy_.dirty & live_mask_);
    // Home register ids become reusable loc keys after a sync, so cached
    // address expressions keyed on them would go stale.
    addr_cse_.clear();
    align_cache_.clear();
    ++region_;
    region_fresh_ = true;
}

void
EmitEnv::syncAllToHomes()
{
    closeRegion();
    materializeFlags(ia32::FlagsArith);
    if (!fpMemoryMode())
        restoreFpPerm();
}

int8_t
EmitEnv::tosDelta() const
{
    return static_cast<int8_t>((cur_tos_ - spec.tos) & 7);
}

// ----- control transfers ----------------------------------------------

void
EmitEnv::sideExit(int16_t pred, uint32_t target_eip)
{
    syncAllToHomes();
    emitStatusTail();
    Il x = mk(IpfOp::Exit);
    x.qp = pred;
    x.ins.exit_reason = ipf::ExitReason::LinkMiss;
    x.ins.exit_payload = target_eip;
    int32_t idx = emit(x);
    pending_stubs.push_back({idx, target_eip});
}

void
EmitEnv::endBranch(uint32_t target_eip, int16_t pred)
{
    Il x = mk(IpfOp::Exit);
    if (pred >= 0)
        x.qp = pred;
    x.ins.exit_reason = ipf::ExitReason::LinkMiss;
    x.ins.exit_payload = target_eip;
    int32_t idx = emit(x);
    pending_stubs.push_back({idx, target_eip});
}

void
EmitEnv::endIndirect(int16_t target_vreg)
{
    // The fast lookup table of section 2: hash the target EIP, probe one
    // direct-mapped entry, branch through b6 on a hit.
    int16_t h = newGr();
    Il e = mk(IpfOp::ExtrU);
    e.dst = h;
    e.src1 = target_vreg;
    e.ins.pos = 2;
    e.ins.len = 10; // 1024 entries
    emit(e);
    int16_t base = rtAddr(rt::lookup_table);
    int16_t entry = newGr();
    Il sh = mk(IpfOp::Shladd);
    sh.dst = entry;
    sh.src1 = h;
    sh.src2 = base;
    sh.ins.imm = 4; // 16-byte entries
    emit(sh);
    int16_t tag = newGr();
    Il ld = mk(IpfOp::Ld);
    ld.dst = tag;
    ld.src1 = entry;
    ld.ins.size = 8;
    emit(ld);
    int16_t p_hit = newPr(), p_miss = newPr();
    Il c = mk(IpfOp::Cmp);
    c.dst = p_hit;
    c.dst2 = p_miss;
    c.src1 = tag;
    c.src2 = target_vreg;
    c.ins.crel = ipf::CmpRel::Eq;
    emit(c);
    Il x = mk(IpfOp::Exit);
    x.qp = p_miss;
    x.ins.exit_reason = ipf::ExitReason::IndirectMiss;
    x.src1 = target_vreg;
    emit(x);
    int16_t e2 = newGr();
    Il a2 = mk(IpfOp::AddImm);
    a2.qp = p_hit;
    a2.dst = e2;
    a2.src1 = entry;
    a2.ins.imm = 8;
    emit(a2);
    int16_t tgt = newGr();
    Il ld2 = mk(IpfOp::Ld);
    ld2.qp = p_hit;
    ld2.dst = tgt;
    ld2.src1 = e2;
    ld2.ins.size = 8;
    emit(ld2);
    Il mb = mk(IpfOp::MovToBr);
    mb.qp = p_hit;
    mb.dst = ipf::br_ind;
    mb.src1 = tgt;
    emit(mb);
    Il bi = mk(IpfOp::BrInd);
    bi.qp = p_hit;
    bi.src1 = ipf::br_ind;
    emit(bi);
    // Backstop (unreachable).
    Il x2 = mk(IpfOp::Exit);
    x2.ins.exit_reason = ipf::ExitReason::IndirectMiss;
    x2.src1 = target_vreg;
    emit(x2);
}

void
EmitEnv::endExit(ipf::ExitReason reason, int64_t payload)
{
    Il x = mk(IpfOp::Exit);
    x.ins.exit_reason = reason;
    x.ins.exit_payload = payload;
    emit(x);
}

void
EmitEnv::emitGuestFaultCheck(int16_t pred, FaultKind kind)
{
    Il x = mk(IpfOp::Exit);
    x.qp = pred;
    x.ins.exit_reason = ipf::ExitReason::GuestFault;
    uint32_t ip = cur_insn ? cur_insn->addr : 0;
    x.ins.exit_payload = (static_cast<int64_t>(ip) << 8) |
                         static_cast<int64_t>(kind);
    emit(x);
}

// ----- block head / tail helpers --------------------------------------

void
EmitEnv::emitUseCounter(int64_t ctr_off, uint32_t threshold)
{
    setBucket(ipf::Bucket::Overhead);
    int16_t a = rtAddr(ctr_off);
    int16_t c = newGr();
    Il ld = mk(IpfOp::Ld);
    ld.dst = c;
    ld.src1 = a;
    ld.ins.size = 4;
    emit(ld);
    int16_t c1 = newGr();
    emitOp(IpfOp::AddImm, c1, c, -1, 1);
    Il st = mk(IpfOp::St);
    st.src1 = a;
    st.src2 = c1;
    st.ins.size = 4;
    emit(st);
    int16_t p = newPr(), p2 = newPr();
    Il cm = mk(IpfOp::CmpImm);
    cm.dst = p;
    cm.dst2 = p2;
    cm.ins.imm = threshold;
    cm.src2 = c1;
    cm.ins.crel = ipf::CmpRel::Leu; // threshold <=u count
    emit(cm);
    Il x = mk(IpfOp::Exit);
    x.qp = p;
    x.ins.exit_reason = ipf::ExitReason::RegisterHot;
    x.ins.exit_payload = block_id;
    emit(x);
    clearBucket();
}

void
EmitEnv::emitEdgeCounter(int64_t ctr_off, int16_t pred)
{
    setBucket(ipf::Bucket::Overhead);
    int16_t a = rtAddr(ctr_off);
    int16_t c = newGr();
    Il ld = mk(IpfOp::Ld);
    ld.qp = pred;
    ld.dst = c;
    ld.src1 = a;
    ld.ins.size = 4;
    emit(ld);
    int16_t c1 = newGr();
    Il add = mk(IpfOp::AddImm);
    add.qp = pred;
    add.dst = c1;
    add.src1 = c;
    add.ins.imm = 1;
    emit(add);
    Il st = mk(IpfOp::St);
    st.qp = pred;
    st.src1 = a;
    st.src2 = c1;
    st.ins.size = 4;
    emit(st);
    clearBucket();
}

void
EmitEnv::emitSmcGuard(uint32_t guest_addr, uint64_t expected_bytes,
                      uint32_t window)
{
    setBucket(ipf::Bucket::Overhead);
    // Naturally aligned loads only: an unaligned 8-byte load would pay
    // the OS misalignment fix-up on every block entry. An unaligned
    // window [addr, addr+8) is the high bytes of one aligned word and
    // the low bytes of the next; both words lie on the window's pages.
    auto load8 = [&](uint32_t at) {
        int16_t v = newGr();
        Il ld = mk(IpfOp::Ld);
        ld.dst = v;
        ld.src1 = immGr(at);
        ld.ins.size = 8;
        emit(ld);
        return v;
    };
    uint32_t skew = guest_addr % 8;
    int16_t v = load8(guest_addr - skew);
    if (skew != 0) {
        int16_t lo = newGr(), hi = newGr(), both = newGr();
        emitOp(IpfOp::ShrUImm, lo, v, -1, 8 * skew);
        emitOp(IpfOp::ShlImm, hi, load8(guest_addr - skew + 8), -1,
               64 - 8 * skew);
        emitOp(IpfOp::Or, both, lo, hi);
        v = both;
    }
    int16_t exp = immGr(static_cast<int64_t>(expected_bytes));
    int16_t p = newPr(), p2 = newPr();
    Il c = mk(IpfOp::Cmp);
    c.dst = p;
    c.dst2 = p2;
    c.src1 = v;
    c.src2 = exp;
    c.ins.crel = ipf::CmpRel::Ne;
    emit(c);
    Il x = mk(IpfOp::Exit);
    x.qp = p;
    x.ins.exit_reason = ipf::ExitReason::SmcDetected;
    // Runtime decodes (window << 32) | addr to invalidate exactly the
    // guarded bytes instead of a whole page.
    x.ins.exit_payload =
        (static_cast<uint64_t>(window) << 32) | guest_addr;
    emit(x);
    clearBucket();
}

void
EmitEnv::emitFpGuard(GuardInfo *out)
{
    if (!fp_used_ || fpMemoryMode())
        return;
    out->checks_fp = true;
    out->expect_tos = spec.tos;
    out->need_valid = guard.need_valid;
    out->need_empty = guard.need_empty;

    setBucket(ipf::Bucket::Overhead);
    int16_t a = rtAddr(rt::fp_tos);
    int16_t tos = newGr();
    Il ld = mk(IpfOp::Ld);
    ld.dst = tos;
    ld.src1 = a;
    ld.ins.size = 1;
    emit(ld);
    int16_t p = newPr(), p2 = newPr();
    Il c = mk(IpfOp::CmpImm);
    c.dst = p;
    c.dst2 = p2;
    c.ins.imm = spec.tos;
    c.src2 = tos;
    c.ins.crel = ipf::CmpRel::Ne;
    emit(c);
    Il x = mk(IpfOp::Exit);
    x.qp = p;
    x.ins.exit_reason = ipf::ExitReason::GuardFail;
    x.ins.exit_payload = 0; // TOS mismatch
    emit(x);

    if (guard.need_valid || guard.need_empty) {
        int16_t ta = rtAddr(rt::fp_tag);
        int16_t tag = newGr();
        Il ld2 = mk(IpfOp::Ld);
        ld2.dst = tag;
        ld2.src1 = ta;
        ld2.ins.size = 1;
        emit(ld2);
        if (guard.need_valid) {
            int16_t m = immGr(guard.need_valid);
            int16_t got = newGr();
            emitOp(IpfOp::And, got, tag, m);
            int16_t pv = newPr(), pv2 = newPr();
            Il cv = mk(IpfOp::CmpImm);
            cv.dst = pv;
            cv.dst2 = pv2;
            cv.ins.imm = guard.need_valid;
            cv.src2 = got;
            cv.ins.crel = ipf::CmpRel::Ne;
            emit(cv);
            Il xv = mk(IpfOp::Exit);
            xv.qp = pv;
            xv.ins.exit_reason = ipf::ExitReason::GuardFail;
            xv.ins.exit_payload = 1; // TAG mismatch
            emit(xv);
        }
        if (guard.need_empty) {
            int16_t m = immGr(guard.need_empty);
            int16_t got = newGr();
            emitOp(IpfOp::And, got, tag, m);
            int16_t pe = newPr(), pe2 = newPr();
            Il ce = mk(IpfOp::CmpImm);
            ce.dst = pe;
            ce.dst2 = pe2;
            ce.ins.imm = 0;
            ce.src2 = got;
            ce.ins.crel = ipf::CmpRel::Ne;
            emit(ce);
            Il xe = mk(IpfOp::Exit);
            xe.qp = pe;
            xe.ins.exit_reason = ipf::ExitReason::GuardFail;
            xe.ins.exit_payload = 1;
            emit(xe);
        }
    }
    clearBucket();
}

void
EmitEnv::emitMmxGuard(GuardInfo *out)
{
    if (!guard.checks_mmx || fpMemoryMode())
        return;
    out->checks_mmx = true;
    out->expect_domain = guard.expect_domain;
    setBucket(ipf::Bucket::Overhead);
    int16_t a = rtAddr(rt::mmx_domain);
    int16_t d = newGr();
    Il ld = mk(IpfOp::Ld);
    ld.dst = d;
    ld.src1 = a;
    ld.ins.size = 1;
    emit(ld);
    int16_t p = newPr(), p2 = newPr();
    Il c = mk(IpfOp::CmpImm);
    c.dst = p;
    c.dst2 = p2;
    c.ins.imm = guard.expect_domain;
    c.src2 = d;
    c.ins.crel = ipf::CmpRel::Ne;
    emit(c);
    Il x = mk(IpfOp::Exit);
    x.qp = p;
    x.ins.exit_reason = ipf::ExitReason::GuardFail;
    x.ins.exit_payload = 2; // domain mismatch
    emit(x);
    clearBucket();
}

void
EmitEnv::emitXmmGuard(GuardInfo *out)
{
    if (!guard.checks_xmm || guard.xmm_mask == 0)
        return;
    out->checks_xmm = true;
    out->xmm_mask = guard.xmm_mask;
    out->xmm_expect = guard.xmm_expect;
    setBucket(ipf::Bucket::Overhead);
    int16_t a = rtAddr(rt::xmm_format);
    int16_t w = newGr();
    Il ld = mk(IpfOp::Ld);
    ld.dst = w;
    ld.src1 = a;
    ld.ins.size = 4;
    emit(ld);
    int16_t m = immGr(guard.xmm_mask);
    int16_t got = newGr();
    emitOp(IpfOp::And, got, w, m);
    int16_t exp = immGr(guard.xmm_expect);
    int16_t p = newPr(), p2 = newPr();
    Il c = mk(IpfOp::Cmp);
    c.dst = p;
    c.dst2 = p2;
    c.src1 = got;
    c.src2 = exp;
    c.ins.crel = ipf::CmpRel::Ne;
    emit(c);
    Il x = mk(IpfOp::Exit);
    x.qp = p;
    x.ins.exit_reason = ipf::ExitReason::GuardFail;
    x.ins.exit_payload = 3; // format mismatch
    emit(x);
    clearBucket();
}

void
EmitEnv::emitStatusTail()
{
    if ((fp_used_ || mmx_used_) && !fpMemoryMode()) {
        if (cur_tos_ != spec.tos || mmx_used_) {
            int16_t a = rtAddr(rt::fp_tos);
            int16_t v = immGr(cur_tos_);
            Il st = mk(IpfOp::St);
            st.src1 = a;
            st.src2 = v;
            st.ins.size = 1;
            emit(st);
        }
        uint8_t changed = tag_set_ | tag_clear_;
        if (changed) {
            int16_t a = rtAddr(rt::fp_tag);
            if (changed == 0xff) {
                int16_t v = immGr(tag_set_);
                Il st = mk(IpfOp::St);
                st.src1 = a;
                st.src2 = v;
                st.ins.size = 1;
                emit(st);
            } else {
                int16_t old = newGr();
                Il ld = mk(IpfOp::Ld);
                ld.dst = old;
                ld.src1 = a;
                ld.ins.size = 1;
                emit(ld);
                int16_t km = immGr(static_cast<uint8_t>(~tag_clear_ &
                                                        ~tag_set_));
                int16_t kept = newGr();
                emitOp(IpfOp::And, kept, old, km);
                int16_t sm = immGr(tag_set_);
                int16_t merged = newGr();
                emitOp(IpfOp::Or, merged, kept, sm);
                Il st = mk(IpfOp::St);
                st.src1 = a;
                st.src2 = merged;
                st.ins.size = 1;
                emit(st);
            }
        }
        if ((fp_used_ || mmx_used_) && cur_domain_ != spec.mmx_domain) {
            int16_t a = rtAddr(rt::mmx_domain);
            int16_t v = immGr(cur_domain_);
            Il st = mk(IpfOp::St);
            st.src1 = a;
            st.src2 = v;
            st.ins.size = 1;
            emit(st);
        }
    }
    uint32_t exit_fmt = xmmExitFormats();
    if (xmm_touched_ && exit_fmt != spec.xmm_format) {
        int16_t a = rtAddr(rt::xmm_format);
        uint32_t touched_bits = 0;
        for (unsigned i = 0; i < 8; ++i) {
            if (xmm_touched_ & (1u << i))
                touched_bits |= 0xfu << rt::formatShift(i);
        }
        if (xmm_touched_ == 0xff) {
            int16_t v = immGr(exit_fmt);
            Il st = mk(IpfOp::St);
            st.src1 = a;
            st.src2 = v;
            st.ins.size = 4;
            emit(st);
        } else {
            int16_t old = newGr();
            Il ld = mk(IpfOp::Ld);
            ld.dst = old;
            ld.src1 = a;
            ld.ins.size = 4;
            emit(ld);
            int16_t km = immGr(~touched_bits & 0xffffffffu);
            int16_t kept = newGr();
            emitOp(IpfOp::And, kept, old, km);
            int16_t nm = immGr(exit_fmt & touched_bits);
            int16_t merged = newGr();
            emitOp(IpfOp::Or, merged, kept, nm);
            Il st = mk(IpfOp::St);
            st.src1 = a;
            st.src2 = merged;
            st.ins.size = 4;
            emit(st);
        }
    }
}

} // namespace el::core
