/**
 * @file
 * The IPF machine model: functional execution plus cycle-approximate
 * EPIC timing.
 *
 * Functional side: 128 general registers with NaT bits, 64 FP registers,
 * 64 predicates, 8 branch registers. Instructions execute sequentially,
 * but the scheduler guarantees no intra-group dependencies, so sequential
 * execution equals the architectural parallel semantics (a debug mode
 * verifies this property).
 *
 * Timing side: instruction groups delimited by stop bits issue in order;
 * a group occupies max(structural, 1) cycles and stalls until its source
 * registers' producing latencies have elapsed. Memory operations consult
 * the Itanium-2-like cache model. Misaligned accesses take the
 * OS-assisted fault path and cost thousands of cycles (section 5's
 * premise). Every cycle is attributed to the executing instruction's
 * bucket (hot/cold/overhead/native/idle) so Figures 6 and 7 are measured
 * rather than assumed.
 *
 * Control speculation: ld.s defers faults by setting the target's NaT
 * bit; NaT propagates through ALU ops; chk.s branches to recovery code
 * when it sees a NaT. This is the hardware mechanism section 4's commit
 * points lean on.
 */

#ifndef EL_IPF_MACHINE_HH
#define EL_IPF_MACHINE_HH

#include <array>
#include <cstdint>
#include <cstring>
#include <map>

#include "ipf/code_cache.hh"
#include "ipf/regs.hh"
#include "mem/cache_model.hh"
#include "mem/memory.hh"
#include "support/ring.hh"

namespace el::prof
{
class Profiler;
} // namespace el::prof

namespace el::ipf
{

/** One FP register: an 82-bit-register model with two synchronized views. */
struct Fr
{
    long double val = 0.0L; //!< Scalar FP view.
    uint64_t bits = 0;      //!< Significand / packed view.
    bool is_bits = false;   //!< True when last written as raw bits.

    /** Write as a scalar FP value (keeps the significand view in sync). */
    void
    setVal(long double v)
    {
        val = v;
        std::memcpy(&bits, &v, 8); // x86 long double: significand first
        is_bits = false;
    }

    /** Write as raw 64-bit data (integer/packed content). */
    void
    setBits(uint64_t b)
    {
        bits = b;
        is_bits = true;
    }

    /**
     * Scalar FP view. When the register holds raw bits, assemble the
     * 80-bit pattern {sign=1, exp=all-ones, significand=bits}, matching
     * what an MMX write does to an aliased x87 register.
     */
    long double
    valView() const
    {
        if (!is_bits)
            return val;
        uint8_t raw[16] = {};
        std::memcpy(raw, &bits, 8);
        raw[8] = 0xff;
        raw[9] = 0xff;
        long double out;
        std::memcpy(&out, raw, 10);
        return out;
    }

    /** Raw 64-bit view (always valid). */
    uint64_t bitsView() const { return bits; }
};

/** Why the machine stopped. */
enum class StopKind : uint8_t
{
    Exit,        //!< An Exit instruction executed (translator service).
    MemFault,    //!< Unmapped/protected access in translated code.
    CycleLimit,  //!< Budget exhausted (runaway guard).
    RegionCap,   //!< A visit log's region cap was reached at a block
                 //!< entry (see setVisitLog()); nothing there has run.
    BadIp,       //!< Jumped outside the code cache.
};

/** Description of a machine stop. */
struct StopInfo
{
    StopKind kind = StopKind::Exit;
    ExitReason reason = ExitReason::None;
    int64_t payload = 0;
    int64_t instr_index = -1;  //!< Code-cache index of the stopping op.
    uint64_t fault_addr = 0;   //!< For MemFault.
    bool fault_is_write = false;
};

/** Cycles an OS-assisted unaligned-access fix-up costs (the timing
 *  model's other latencies live beside their reader, machine.cc). */
constexpr unsigned misalign_penalty = 2000;

/** Machine settings. */
struct MachineConfig
{
    bool verify_groups = false;  //!< Check no intra-group RAW/WAW deps.
};

/** Per-bucket cycle and instruction accounting. */
struct BucketStats
{
    std::array<double, static_cast<size_t>(Bucket::NumBuckets)> cycles{};
    std::array<uint64_t, static_cast<size_t>(Bucket::NumBuckets)> insns{};

    double
    totalCycles() const
    {
        double t = 0;
        for (double c : cycles)
            t += c;
        return t;
    }
};

/** Per-translation-block cycle/slot accounting (gated; observability). */
struct BlockCost
{
    double cycles = 0.0;  //!< Simulated cycles attributed to the block.
    uint64_t insns = 0;   //!< Instructions retired inside the block.
};

/** The IPF machine. */
class Machine
{
  public:
    Machine(CodeCache &cache, mem::Memory &memory, MachineConfig cfg = {})
        : code_(cache), mem_(memory), cfg_(cfg),
          dcache_(mem::CacheModel::itanium2())
    {
        reset();
    }

    /** Reset register state (not statistics). */
    void reset();

    /**
     * Run from code-cache index @p entry until the code exits, faults,
     * or @p max_cycles have elapsed.
     */
    StopInfo run(int64_t entry, uint64_t max_cycles = ~0ULL);

    // ----- register access (used by the runtime for state exchange) ---
    uint64_t gr(unsigned idx) const { return grs_[idx]; }
    void setGr(unsigned idx, uint64_t v) { grs_[idx] = v; nats_[idx] = false; }
    bool grNat(unsigned idx) const { return nats_[idx]; }
    const Fr &fr(unsigned idx) const { return frs_[idx]; }
    Fr &fr(unsigned idx) { return frs_[idx]; }
    bool pr(unsigned idx) const { return prs_[idx]; }
    uint64_t br(unsigned idx) const { return brs_[idx]; }

    // ----- statistics -------------------------------------------------
    const BucketStats &stats() const { return stats_; }
    BucketStats &stats() { return stats_; }
    uint64_t retired() const { return retired_; }
    uint64_t misalignedAccesses() const { return misaligned_; }
    mem::CacheModel &dcache() { return dcache_; }

    /**
     * Misalignment-penalty cycles folded into each bucket's total. A
     * subset of stats().cycles — subtracting it yields the "useful"
     * execution time per bucket, which the attribution report needs to
     * separate fault handling from cold/hot code time.
     */
    const std::array<double, static_cast<size_t>(Bucket::NumBuckets)> &
    misalignCycles() const
    {
        return misalign_cycles_;
    }

    /**
     * Enable per-translation-block cycle accounting. Off by default:
     * the map update in closeGroup() is measurable on hot loops, so the
     * runtime only turns it on when a run report was requested.
     */
    void setTrackBlockCycles(bool on) { track_blocks_ = on; }
    bool trackBlockCycles() const { return track_blocks_; }

    /** Per-block costs keyed by translation block id (see InstrMeta). */
    const std::map<int32_t, BlockCost> &blockCosts() const
    {
        return block_costs_;
    }

    /**
     * Attach the execution profiler (null detaches). The machine
     * reports probe-instruction visits to it; timing is untouched, so
     * cycle counts are bit-identical with or without a profiler, and
     * the detached path costs one predictable branch per instruction.
     */
    void setProfiler(prof::Profiler *p) { profiler_ = p; }

    /**
     * Attach a translation-block visit log (null detaches). While
     * attached, the id of every translation block execution enters —
     * deduplicated against the immediately preceding block — is pushed
     * into @p log, giving the divergence sentinel the set of artifacts
     * a checked region executed. Same contract as the profiler hook:
     * timing untouched, cycle counts bit-identical attached or not,
     * and the detached path is one predictable branch per instruction.
     * With a nonzero @p region_cap, entering a block once @p region_cap
     * more instructions have retired stops the machine there
     * (StopKind::RegionCap) before the block's first instruction: at a
     * block entry the guest state is in its homes, so the region can
     * end there and its replay stays bounded.
     */
    void
    setVisitLog(BoundedRing<int32_t> *log, uint64_t region_cap = 0)
    {
        visit_log_ = log;
        visit_last_ = -1;
        visit_cap_at_ = region_cap ? retired_ + region_cap : ~0ULL;
    }

    /** Charge synthetic cycles (translator overhead, native time, idle). */
    void
    chargeCycles(Bucket bucket, double cycles)
    {
        stats_.cycles[static_cast<size_t>(bucket)] += cycles;
        synthetic_cycles_ += cycles;
    }

    /**
     * Total cycles charged via chargeCycles() rather than executed
     * groups. Closes the block-level accounting books: when block
     * tracking is on, Σ blockCosts().cycles + syntheticCycles() equals
     * totalCycles() exactly — the auditor's core closure invariant.
     * Cycles added to stats() directly (the seeded accounting-skew
     * fault does exactly that) break the identity and are caught.
     */
    double syntheticCycles() const { return synthetic_cycles_; }

    double totalCycles() const { return stats_.totalCycles(); }

  private:
    /** Execute one instruction functionally. Returns false on stop. */
    bool execute(const Instr &i, StopInfo *stop);

    /** Close the current timing group. */
    void closeGroup();

    /** Charge a group's structural cost and source stalls. */
    void accountInstr(const Instr &i);

    /** Report a probe-instruction visit to the attached profiler. */
    void profileObserve(const Instr &i);

    CodeCache &code_;
    mem::Memory &mem_;
    MachineConfig cfg_;
    mem::CacheModel dcache_;

    std::array<uint64_t, num_grs> grs_{};
    std::array<bool, num_grs> nats_{};
    std::array<Fr, num_frs> frs_{};
    std::array<bool, num_prs> prs_{};
    std::array<uint64_t, num_brs> brs_{};

    int64_t ip_ = 0;
    bool branched_ = false; //!< Taken branch in the current group.

    // Timing state.
    double cycle_ = 0.0;
    std::array<double, num_grs> gr_ready_{};
    std::array<double, num_frs> fr_ready_{};
    // Current-group accumulation.
    unsigned grp_m_ = 0, grp_i_ = 0, grp_f_ = 0, grp_b_ = 0, grp_a_ = 0;
    unsigned grp_total_ = 0;
    double grp_stall_ = 0.0;
    double grp_extra_ = 0.0; //!< memory/branch penalties inside the group
    double grp_misalign_ = 0.0; //!< misalign share of grp_extra_
    unsigned grp_insns_ = 0;    //!< instructions in the current group
    Bucket grp_bucket_ = Bucket::Cold;
    int32_t grp_block_ = -1; //!< block id the current group belongs to
    bool grp_open_ = false;
    bool track_blocks_ = false;
    prof::Profiler *profiler_ = nullptr; //!< Null = profiling off.
    BoundedRing<int32_t> *visit_log_ = nullptr; //!< Null = no log.
    int32_t visit_last_ = -1; //!< Last block id pushed into the log.
    uint64_t visit_cap_at_ = ~0ULL; //!< retired_ at which the region cap
                                    //!< stops at the next block entry.
    // Group verification (debug).
    std::array<int8_t, num_grs> grp_gr_writer_{};
    std::array<int8_t, num_frs> grp_fr_writer_{};

    BucketStats stats_;
    double synthetic_cycles_ = 0.0;
    std::array<double, static_cast<size_t>(Bucket::NumBuckets)>
        misalign_cycles_{};
    std::map<int32_t, BlockCost> block_costs_;
    uint64_t retired_ = 0;
    uint64_t misaligned_ = 0;
};

} // namespace el::ipf

#endif // EL_IPF_MACHINE_HH
