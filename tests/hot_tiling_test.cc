/**
 * @file
 * Hot tiling on flat big code: a trace ends before a block that live
 * hot code already holds, and every exit of hot code chains a trace at
 * a target that has no hot entry of its own. Together they keep the
 * big-code guests running hot instead of decaying into the cold blocks
 * under trace interiors. Each run must stay bit-exact against the
 * reference interpreter at every pipeline thread count.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "core/report.hh"
#include "guest/workloads.hh"
#include "harness/exec.hh"

namespace el
{
namespace
{

/** The suite's big-code guest @p name at a fifth of its size. */
guest::Workload
reducedBigCode(const std::string &name, uint32_t iters, uint32_t copies)
{
    guest::WorkloadParams p;
    p.outer_iters = iters;
    p.size = 0;
    p.code_copies = copies;
    return guest::buildBigCode(name, p);
}

/** Cold-block entry EIPs of @p rt that no live hot trace starts at. */
size_t
coldEntriesWithoutHot(core::Runtime &rt)
{
    std::set<uint32_t> hot, cold;
    for (const auto &b : rt.translator().allBlocks()) {
        if (b->invalidated)
            continue;
        (b->kind == core::BlockKind::Hot ? hot : cold).insert(b->entry_eip);
    }
    size_t n = 0;
    for (uint32_t eip : cold)
        n += hot.count(eip) == 0;
    return n;
}

/**
 * Run @p w translated at threads {0, 1, 4}; every run matches the
 * interpreter. The synchronous run spends at most 5% of its cycles in
 * cold code. With the pipeline, cold code also runs while sessions are
 * in flight, which at this size is a fifth of the run whatever the
 * tiling; there the 4-worker run checks the tiling itself: every cold
 * block but the entry block, the one the first trace exits into and a
 * session still in flight at exit has a hot trace starting at it. (One
 * worker still has dozens of sessions queued at exit.)
 */
void
expectRunsHot(const guest::Workload &w)
{
    harness::Outcome oracle =
        harness::runInterpreter(w.image, w.params.abi);
    ASSERT_TRUE(oracle.exited);

    for (unsigned threads : {0u, 1u, 4u}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        core::Options opts;
        opts.translation_threads = threads;
        harness::TranslatedRun tr =
            harness::runTranslated(w.image, w.params.abi, opts);

        ASSERT_TRUE(tr.outcome.exited);
        EXPECT_EQ(tr.outcome.exit_code, oracle.exit_code);
        EXPECT_EQ(tr.outcome.console, oracle.console);
        EXPECT_TRUE(tr.outcome.final_state.equalsArch(oracle.final_state));

        if (threads == 0) {
            core::Attribution a = core::attributionOf(*tr.runtime);
            ASSERT_GT(a.total(), 0.0);
            EXPECT_LE(a.cold_code, 0.05 * a.total())
                << "cold " << a.cold_code << " of " << a.total();
        }
        if (threads != 1)
            EXPECT_LE(coldEntriesWithoutHot(*tr.runtime), 3u);
    }
}

TEST(HotTiling, GccRunsHotAndBitExact)
{
    expectRunsHot(reducedBigCode("gcc", 720, 60));
}

TEST(HotTiling, VortexRunsHotAndBitExact)
{
    expectRunsHot(reducedBigCode("vortex", 840, 48));
}

} // namespace
} // namespace el
