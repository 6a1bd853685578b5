#include "core/analysis.hh"

#include <deque>

#include "ia32/decoder.hh"
#include "support/logging.hh"

namespace el::core
{

using ia32::Insn;
using ia32::Op;

namespace
{

/** Decode one basic block starting at @p eip. */
BasicBlock
decodeBlock(const mem::Memory &memory, uint32_t eip, unsigned max_insns)
{
    BasicBlock bb;
    bb.start = eip;
    bb.writable = memory.check(eip, 1, mem::PermWrite);
    uint32_t ip = eip;
    for (unsigned n = 0; n < max_insns; ++n) {
        Insn insn;
        if (!ia32::decode(memory, ip, &insn)) {
            bb.ends_stop = true;
            bb.fetch_fault = insn.len == 0; // fetch fault vs bad opcode
            break;
        }
        bb.insns.push_back(insn);
        ip = insn.next();
        if (ia32::endsBlock(insn)) {
            switch (insn.op) {
              case Op::Jcc:
                bb.taken = insn.target();
                bb.fall = insn.next();
                break;
              case Op::Jmp:
                bb.taken = insn.target();
                break;
              case Op::Call:
                bb.taken = insn.target();
                break;
              case Op::Ret:
              case Op::JmpInd:
              case Op::CallInd:
                bb.ends_indirect = true;
                break;
              default: // Int / Int3 / Hlt / Ud2
                bb.ends_stop = true;
                break;
            }
            break;
        }
    }
    return bb;
}

} // namespace

Region
discoverRegion(const mem::Memory &memory, uint32_t entry,
               unsigned max_blocks)
{
    Region region;
    region.entry = entry;
    std::deque<uint32_t> worklist{entry};
    constexpr unsigned max_block_insns = 128;

    while (!worklist.empty() && region.blocks.size() < max_blocks) {
        uint32_t eip = worklist.front();
        worklist.pop_front();
        if (region.blocks.count(eip))
            continue;

        // Block splitting: if eip falls inside an already-decoded block,
        // split that block at eip.
        auto it = region.blocks.upper_bound(eip);
        if (it != region.blocks.begin()) {
            auto prev = std::prev(it);
            BasicBlock &pb = prev->second;
            if (eip > pb.start && !pb.insns.empty() &&
                eip < pb.insns.back().next()) {
                // Find the instruction boundary.
                size_t split = 0;
                bool on_boundary = false;
                for (; split < pb.insns.size(); ++split) {
                    if (pb.insns[split].addr == eip) {
                        on_boundary = true;
                        break;
                    }
                }
                if (on_boundary) {
                    BasicBlock tail;
                    tail.start = eip;
                    tail.insns.assign(pb.insns.begin() + split,
                                      pb.insns.end());
                    tail.taken = pb.taken;
                    tail.fall = pb.fall;
                    tail.ends_indirect = pb.ends_indirect;
                    tail.ends_stop = pb.ends_stop;
                    tail.writable = pb.writable;
                    pb.insns.resize(split);
                    pb.taken = 0;
                    pb.fall = eip;
                    pb.ends_indirect = false;
                    pb.ends_stop = false;
                    region.blocks.emplace(eip, std::move(tail));
                    continue;
                }
                // Overlapping decode (mid-instruction entry): decode
                // independently; IA-32 allows overlapping code.
            }
        }

        BasicBlock bb = decodeBlock(memory, eip, max_block_insns);
        uint32_t taken = bb.taken;
        uint32_t fall = bb.fall;
        region.blocks.emplace(eip, std::move(bb));
        if (taken)
            worklist.push_back(taken);
        if (fall)
            worklist.push_back(fall);
    }
    return region;
}

void
computeFlagsLiveness(Region &region)
{
    // live_in(b) = first-use-before-def scan of b, extended by
    // live_out(b) through the flags that pass through unwritten.
    // Iterate to a fixed point (the region is tiny).
    auto blockGenKill = [](const BasicBlock &bb, uint32_t *use,
                           uint32_t *def) {
        *use = 0;
        *def = 0;
        for (const Insn &insn : bb.insns) {
            *use |= ia32::insnFlagsRead(insn) & ~*def;
            *def |= ia32::insnFlagsWritten(insn);
        }
    };

    std::map<uint32_t, uint32_t> live_in;
    std::map<uint32_t, std::pair<uint32_t, uint32_t>> genkill;
    for (auto &[eip, bb] : region.blocks) {
        uint32_t use, def;
        blockGenKill(bb, &use, &def);
        genkill[eip] = {use, def};
        live_in[eip] = ia32::FlagsArith; // start conservative
    }

    bool changed = true;
    unsigned iters = 0;
    while (changed && iters++ < 64) {
        changed = false;
        for (auto &[eip, bb] : region.blocks) {
            uint32_t out = 0;
            auto succ_live = [&](uint32_t succ) {
                if (succ == 0)
                    return;
                auto it = live_in.find(succ);
                out |= (it == live_in.end())
                           ? static_cast<uint32_t>(ia32::FlagsArith)
                           : it->second;
            };
            if (bb.ends_indirect || bb.ends_stop) {
                out = ia32::FlagsArith; // unknown continuation
            } else {
                succ_live(bb.taken);
                succ_live(bb.fall);
                if (!bb.taken && !bb.fall)
                    out = ia32::FlagsArith;
            }
            bb.flags_live_out = out;
            auto [use, def] = genkill[eip];
            uint32_t in = bb.writable
                              ? static_cast<uint32_t>(ia32::FlagsArith)
                              : use | (out & ~def);
            if (in != live_in[eip]) {
                live_in[eip] = in;
                changed = true;
            }
        }
    }
}

std::vector<uint32_t>
perInsnLiveFlags(const BasicBlock &block, uint32_t live_out)
{
    std::vector<uint32_t> live(block.insns.size(), 0);
    uint32_t cur = live_out;
    for (size_t k = block.insns.size(); k-- > 0;) {
        live[k] = cur;
        const Insn &insn = block.insns[k];
        cur &= ~ia32::insnFlagsWritten(insn);
        cur |= ia32::insnFlagsRead(insn);
    }
    return live;
}

} // namespace el::core
