/**
 * @file
 * Direct-execution IA-32 cost model (the Figure 8 "Xeon" baseline).
 *
 * Runs the reference interpreter and charges an approximate cycle cost per
 * retired instruction: a superscalar base CPI, cache-hierarchy latency for
 * memory operands, multi-cycle latencies for multiplies/divides/FP, and a
 * branch-predictor penalty for hard-to-predict branches. Crucially for the
 * paper's misalignment story, misaligned accesses are nearly free here —
 * the asymmetry that makes misalignment avoidance matter on IPF.
 */

#ifndef EL_IA32_TIMING_HH
#define EL_IA32_TIMING_HH

#include <cstdint>

#include "ia32/interp.hh"
#include "mem/cache_model.hh"

namespace el::ia32
{

/** Interpreter + cost model; accumulates cycles for a full guest run. */
class DirectRunner
{
  public:
    DirectRunner(State &state, mem::Memory &memory)
        : interp_(state, memory), cache_(mem::CacheModel::xeon())
    {}

    /**
     * Run until HLT, a fault, or @p max_insns retired.
     * INT vectors are reported through @p on_int; return false from it to
     * stop the run (e.g. on the exit syscall).
     */
    template <typename OnInt>
    StepResult
    run(uint64_t max_insns, OnInt &&on_int)
    {
        StepResult last;
        for (uint64_t i = 0; i < max_insns; ++i) {
            last = step();
            if (last.kind == StepKind::Fault || last.kind == StepKind::Halt)
                return last;
            if (last.kind == StepKind::Int && !on_int(last.vector))
                return last;
        }
        return last;
    }

    /** Execute one instruction and charge its cost. */
    StepResult step();

    double cycles() const { return cycles_; }
    uint64_t retired() const { return interp_.retired(); }
    Interpreter &interp() { return interp_; }
    mem::CacheModel &cache() { return cache_; }

  private:
    void charge(const Insn &insn, const State &pre);

    Interpreter interp_;
    mem::CacheModel cache_;
    double cycles_ = 0.0;
    uint64_t branch_seed_ = 0x243f6a8885a308d3ULL;
};

} // namespace el::ia32

#endif // EL_IA32_TIMING_HH
