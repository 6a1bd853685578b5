/**
 * @file
 * Local code discovery and analysis (the cold-translation front end of
 * Figure 1): decode basic blocks around the current IP, build the local
 * flow graph, and compute EFlags liveness between blocks so redundant
 * EFlags updates can be eliminated. FP-stack deltas are tracked during
 * code generation itself (emit_env.hh), using the block list produced
 * here.
 */

#ifndef EL_CORE_ANALYSIS_HH
#define EL_CORE_ANALYSIS_HH

#include <cstdint>
#include <map>
#include <vector>

#include "ia32/insn.hh"
#include "mem/memory.hh"

namespace el::core
{

/** One decoded IA-32 basic block. */
struct BasicBlock
{
    uint32_t start = 0;
    std::vector<ia32::Insn> insns;
    // Successors within the region (0 = none/unknown).
    uint32_t taken = 0;     //!< Branch target of Jcc/Jmp/Call.
    uint32_t fall = 0;      //!< Fall-through (Jcc / non-branch end).
    bool ends_indirect = false;
    bool ends_stop = false; //!< HLT / INT / undecodable end.
    bool fetch_fault = false; //!< Undecodable because unmapped (#PF).
    bool writable = false;  //!< On a writable page: a store can rewrite
                            //!< it, so liveness assumes it reads every
                            //!< flag.
    uint32_t flags_live_out = ia32::FlagsArith; //!< Conservative default.

    const ia32::Insn &last() const { return insns.back(); }
};

/** A neighbourhood of basic blocks rooted at one entry point. */
struct Region
{
    uint32_t entry = 0;
    std::map<uint32_t, BasicBlock> blocks;

    const BasicBlock *
    find(uint32_t eip) const
    {
        auto it = blocks.find(eip);
        return it == blocks.end() ? nullptr : &it->second;
    }
};

/**
 * Decode up to @p max_blocks basic blocks reachable from @p entry.
 * Decoding stops at indirect branches, system instructions, and
 * undecodable bytes. Block boundaries are also introduced at branch
 * targets inside already-decoded blocks (block splitting).
 */
Region discoverRegion(const mem::Memory &memory, uint32_t entry,
                      unsigned max_blocks);

/**
 * Backward EFlags liveness over the region: for each block compute the
 * set of arithmetic flags that may be read before being written by some
 * successor chain. Unknown successors, and blocks on writable pages
 * (whose bytes a store may rewrite), are assumed to read everything.
 * Results are written into BasicBlock::flags_live_out.
 */
void computeFlagsLiveness(Region &region);

/**
 * Per-instruction liveness inside one block: returns, for each
 * instruction index, the set of flags live immediately after that
 * instruction executes (the flags its EFLAGS writes must actually
 * produce; dead ones need not be materialized).
 */
std::vector<uint32_t> perInsnLiveFlags(const BasicBlock &block,
                                       uint32_t live_out);

} // namespace el::core

#endif // EL_CORE_ANALYSIS_HH
