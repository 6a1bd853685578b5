/**
 * @file
 * End-to-end tests for the divergence sentinel's shadow-execute mode
 * (`--selfcheck`): a seeded miscompile sweep proving every consequential
 * corruption is detected, quarantined and repaired back to the
 * interpreter's answer; determinism of the sampling counters across
 * repeat runs and pipeline thread counts; and the zero-perturbation
 * guarantee — attaching the sentinel must not move a single simulated
 * cycle unless something actually diverges.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "guest/workloads.hh"
#include "harness/exec.hh"
#include "support/faultinject.hh"
#include "support/sentinel.hh"

namespace el
{
namespace
{

using guest::Workload;

/** Small integer kernel: enough blocks to re-heat, quick to replay. */
Workload
victim()
{
    guest::WorkloadParams p;
    p.outer_iters = 6;
    p.size = 150;
    return guest::buildMatrix("selfcheck_victim", p);
}

core::Options
baseOpts(unsigned threads = 0, bool deterministic = false)
{
    core::Options o;
    o.heat_threshold = 16;
    o.hot_batch = 1;
    o.translation_threads = threads;
    o.deterministic_adoption = deterministic;
    return o;
}

/** True when two outcomes agree on everything the guest can observe. */
bool
sameGuestOutcome(const harness::Outcome &a, const harness::Outcome &b)
{
    return a.exited == b.exited && a.faulted == b.faulted &&
           a.internal_error == b.internal_error &&
           a.exit_code == b.exit_code && a.console == b.console &&
           a.final_state.equalsArch(b.final_state);
}

/** baseOpts() with the Miscompile site armed at @p seed. */
core::Options
miscompileOpts(uint64_t seed)
{
    core::Options o = baseOpts();
    o.fault.seed = seed;
    o.fault.site(FaultSite::Miscompile, 128);
    return o;
}

/**
 * The sweep's seeds: every seed from 1 up to the 18th at which the
 * Miscompile site corrupts at least one translation of the victim
 * within twice the clean run's cycles (the cap keeps a corruption that
 * never terminates from costing the whole cycle budget here). A seed
 * that corrupts nothing tests nothing, and which seeds fire moves
 * whenever the emitted code does, so the sweep runs until 18 have.
 */
const std::vector<uint64_t> &
sweepSeeds()
{
    static const std::vector<uint64_t> seeds = [] {
        std::vector<uint64_t> out;
        Workload w = victim();
        const double clean_cycles =
            harness::runTranslated(w.image, w.params.abi, baseOpts())
                .outcome.cycles;
        unsigned fired = 0;
        for (uint64_t seed = 1; seed <= 200 && fired < 18; ++seed) {
            out.push_back(seed);
            core::Options o = miscompileOpts(seed);
            o.max_run_cycles = static_cast<uint64_t>(2 * clean_cycles);
            harness::TranslatedRun run =
                harness::runTranslated(w.image, w.params.abi, o);
            fired += run.runtime->translator().stats.get(
                         "xlate.miscompiles_injected") > 0;
        }
        return out;
    }();
    return seeds;
}

bool
ledgerHasAdverseRow(const sentinel::Sentinel &s)
{
    for (const auto &[eip, rec] : s.ledger())
        if (rec.state != sentinel::Health::Healthy || rec.pinned)
            return true;
    return false;
}

// ----- the miscompile sweep ---------------------------------------------
//
// For each seed of sweepSeeds(), corrupt emitted translations with
// FaultSite::Miscompile and run three ways: the interpreter oracle, the
// translator unguarded, and the translator with --selfcheck=1. A seed
// is *consequential* when the unguarded run disagrees with the oracle —
// those are exactly the corruptions a user would care about, and the
// sentinel must detect and contain 100% of them. Corruptions that happen to be semantically
// neutral (e.g. a patched byte in dead data flow) produce no divergence
// and need none.
//
// One caveat the region protocol implies: a corruption that turns a
// bounded loop into an effectively unbounded one never reaches a
// dispatch boundary, so there is no region end to arbitrate and both
// translated runs exhaust the cycle budget. Those seeds (which ones
// shifts whenever translation changes) are reported as internal errors,
// not silent wrong answers, and are excluded from the bit-identical
// clause.

class MiscompileSweep : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(MiscompileSweep, SelfcheckDetectsAndRepairs)
{
    const uint64_t seed = GetParam();
    Workload w = victim();
    harness::Outcome ref = harness::runInterpreter(w.image, w.params.abi);
    ASSERT_TRUE(ref.exited);

    core::Options opts = miscompileOpts(seed);

    harness::TranslatedRun unguarded =
        harness::runTranslated(w.image, w.params.abi, opts);
    if (unguarded.outcome.internal_error) {
        // Corruption produced a non-terminating region (see note above):
        // loudly reported, nothing silent to arbitrate.
        GTEST_SKIP() << "seed " << seed << " corrupts into cycle limit: "
                     << unguarded.outcome.internal_reason;
    }
    const bool consequential = !sameGuestOutcome(ref, unguarded.outcome);

    sentinel::Config cfg;
    cfg.selfcheck_rate = 1;
    sentinel::Sentinel sent(cfg);
    core::Options guarded_opts = opts;
    guarded_opts.sentinel = &sent;
    harness::TranslatedRun guarded =
        harness::runTranslated(w.image, w.params.abi, guarded_opts);

    // The guarded run must complete with the oracle's exact answer —
    // whether or not this seed's corruption was consequential.
    ASSERT_FALSE(guarded.outcome.internal_error)
        << "seed " << seed << ": " << guarded.outcome.internal_reason;
    EXPECT_TRUE(guarded.outcome.exited) << "seed " << seed;
    EXPECT_EQ(ref.exit_code, guarded.outcome.exit_code)
        << "seed " << seed;
    EXPECT_EQ(ref.console, guarded.outcome.console) << "seed " << seed;
    std::string why;
    EXPECT_TRUE(
        ref.final_state.equalsArch(guarded.outcome.final_state, &why))
        << "seed " << seed << ": " << why;

    if (consequential) {
        // Detection: the divergence was noticed, attributed and logged...
        EXPECT_GT(sent.totalDivergences(), 0u) << "seed " << seed;
        EXPECT_GE(sent.divergences().size(), 1u) << "seed " << seed;
        // ...and the offending artifacts were quarantined.
        EXPECT_TRUE(ledgerHasAdverseRow(sent)) << "seed " << seed;
        EXPECT_GE(guarded.runtime->stats().get("sentinel.divergence"),
                  1u)
            << "seed " << seed;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MiscompileSweep,
                         ::testing::ValuesIn(sweepSeeds()));

TEST(Selfcheck, SweepHasTeeth)
{
    // Guard against the sweep silently degenerating: across the sweep's
    // seeds (18 of which corrupt something), a healthy fraction of
    // corruptions must actually change the unguarded answer (otherwise
    // the detection clause above is vacuous).
    Workload w = victim();
    harness::Outcome ref = harness::runInterpreter(w.image, w.params.abi);
    int consequential = 0;
    for (uint64_t seed : sweepSeeds()) {
        harness::TranslatedRun run = harness::runTranslated(
            w.image, w.params.abi, miscompileOpts(seed));
        consequential += !sameGuestOutcome(ref, run.outcome);
    }
    EXPECT_GE(consequential, 4) << "miscompile injection lost its bite";
}

TEST(Selfcheck, WorksWithPipelineWorkers)
{
    Workload w = victim();
    harness::Outcome ref = harness::runInterpreter(w.image, w.params.abi);
    for (uint64_t seed : {3u, 7u, 11u}) {
        core::Options opts = baseOpts(4, true);
        opts.fault.seed = seed;
        opts.fault.site(FaultSite::Miscompile, 128);
        sentinel::Config cfg;
        cfg.selfcheck_rate = 1;
        sentinel::Sentinel sent(cfg);
        opts.sentinel = &sent;
        harness::TranslatedRun guarded =
            harness::runTranslated(w.image, w.params.abi, opts);
        ASSERT_FALSE(guarded.outcome.internal_error)
            << "seed " << seed << ": " << guarded.outcome.internal_reason;
        EXPECT_EQ(ref.exit_code, guarded.outcome.exit_code)
            << "seed " << seed;
        std::string why;
        EXPECT_TRUE(ref.final_state.equalsArch(
            guarded.outcome.final_state, &why))
            << "seed " << seed << ": " << why;
    }
}

// ----- clean runs --------------------------------------------------------

TEST(Selfcheck, CleanRunsNeverDiverge)
{
    // No injection: sampling the boundary, syscall, fault-delivery and
    // SMC paths across the adversarial personalities must verify clean.
    std::vector<Workload> suite = guest::adversarialSuite();
    suite.push_back(victim());
    for (const Workload &w : suite) {
        sentinel::Config cfg;
        cfg.selfcheck_rate = 4;
        sentinel::Sentinel sent(cfg);
        core::Options opts = baseOpts();
        opts.sentinel = &sent;
        harness::TranslatedRun run =
            harness::runTranslated(w.image, w.params.abi, opts);
        ASSERT_FALSE(run.outcome.internal_error)
            << w.name << ": " << run.outcome.internal_reason;
        EXPECT_TRUE(run.outcome.exited) << w.name;
        EXPECT_EQ(sent.totalDivergences(), 0u) << w.name;
        EXPECT_GE(run.runtime->stats().get("sentinel.checked"), 1u)
            << w.name;
        EXPECT_GE(run.runtime->stats().get("sentinel.passed"), 1u)
            << w.name;
        EXPECT_EQ(run.runtime->stats().get("sentinel.divergence"), 0u)
            << w.name;
    }
}

TEST(Selfcheck, HotSmcRewritersNeverDiverge)
{
    // Hot traces over writable code: a trace must never store into its
    // own inlined code and then run the stale copy, and a reused Resync
    // block must never outlive the bytes it was translated from.
    std::vector<Workload> suite = guest::adversarialSuite();
    for (const Workload &w : suite) {
        if (w.name != "jit_rewriter" && w.name != "threaded_smc")
            continue;
        for (unsigned threads : {0u, 1u, 4u}) {
            sentinel::Config cfg;
            cfg.selfcheck_rate = 1;
            sentinel::Sentinel sent(cfg);
            core::Options opts = baseOpts(threads, threads > 0);
            opts.sentinel = &sent;
            harness::TranslatedRun run =
                harness::runTranslated(w.image, w.params.abi, opts);
            ASSERT_FALSE(run.outcome.internal_error)
                << w.name << ": " << run.outcome.internal_reason;
            EXPECT_TRUE(run.outcome.exited) << w.name;
            EXPECT_EQ(sent.totalDivergences(), 0u)
                << w.name << " threads " << threads;
            // Translations over the rewritten pages really are reused
            // (no per-traversal retranslation hides a stale copy), and
            // hot traces over them ran under the oracle.
            const StatGroup &xs = run.runtime->translator().stats;
            EXPECT_LE(xs.get("xlate.cold_blocks"), 200u)
                << w.name << " threads " << threads;
            EXPECT_GE(xs.get("xlate.hot_blocks"), 1u)
                << w.name << " threads " << threads;
        }
    }
}

TEST(Selfcheck, LongChainedRegionsNeverDiverge)
{
    // Flat big code runs fully linked: without a cap a checked region
    // runs until the loop ends, past what the oracle may replay, and
    // correct code is convicted. The region is capped at the replay
    // budget and ends at the next block entry instead. A small budget
    // makes every outer iteration longer than one region.
    guest::WorkloadParams p;
    p.outer_iters = 720;
    p.size = 0;
    p.code_copies = 60;
    Workload w = guest::buildBigCode("gcc", p);
    harness::Outcome oracle =
        harness::runInterpreter(w.image, w.params.abi);
    for (unsigned threads : {0u, 4u}) {
        sentinel::Config cfg;
        cfg.selfcheck_rate = 1;
        cfg.replay_budget = 1u << 14;
        sentinel::Sentinel sent(cfg);
        core::Options opts = baseOpts(threads, threads > 0);
        opts.sentinel = &sent;
        harness::TranslatedRun run =
            harness::runTranslated(w.image, w.params.abi, opts);
        EXPECT_TRUE(sameGuestOutcome(run.outcome, oracle))
            << "threads " << threads;
        EXPECT_EQ(sent.totalDivergences(), 0u) << "threads " << threads;
        EXPECT_GE(run.runtime->stats().get("sentinel.passed"), 100u)
            << "threads " << threads;
    }
}

// ----- zero perturbation when attached-but-clean ------------------------

TEST(Selfcheck, AttachedSentinelCostsZeroCycles)
{
    // Detached, attached-at-rate-0 and attached-and-sampling runs must
    // be cycle-identical: checkpoints, journaling and replays charge
    // nothing to the simulated machine unless a divergence rewrites
    // history.
    Workload w = victim();

    harness::TranslatedRun detached =
        harness::runTranslated(w.image, w.params.abi, baseOpts());

    sentinel::Sentinel idle; // rate 0: ledger only
    core::Options idle_opts = baseOpts();
    idle_opts.sentinel = &idle;
    harness::TranslatedRun rate0 =
        harness::runTranslated(w.image, w.params.abi, idle_opts);

    sentinel::Config cfg;
    cfg.selfcheck_rate = 2;
    sentinel::Sentinel active(cfg);
    core::Options active_opts = baseOpts();
    active_opts.sentinel = &active;
    harness::TranslatedRun sampling =
        harness::runTranslated(w.image, w.params.abi, active_opts);

    ASSERT_TRUE(detached.outcome.exited);
    EXPECT_DOUBLE_EQ(detached.outcome.cycles, rate0.outcome.cycles);
    EXPECT_DOUBLE_EQ(detached.outcome.cycles, sampling.outcome.cycles);
    EXPECT_EQ(detached.outcome.exit_code, rate0.outcome.exit_code);
    EXPECT_EQ(detached.outcome.exit_code, sampling.outcome.exit_code);
    EXPECT_EQ(detached.outcome.guest_insns, rate0.outcome.guest_insns);
    EXPECT_EQ(detached.outcome.guest_insns,
              sampling.outcome.guest_insns);
    EXPECT_EQ(active.totalDivergences(), 0u);
    EXPECT_GE(sampling.runtime->stats().get("sentinel.passed"), 1u);
}

// ----- determinism -------------------------------------------------------

struct SentinelCounters
{
    uint64_t regions = 0;
    uint64_t checked = 0;
    uint64_t passed = 0;
    uint64_t divergences = 0;
    double cycles = 0;

    bool
    operator==(const SentinelCounters &o) const
    {
        return regions == o.regions && checked == o.checked &&
               passed == o.passed && divergences == o.divergences;
    }
};

SentinelCounters
countersFor(const Workload &w, unsigned threads, bool deterministic,
            bool hot_phase = true, harness::Outcome *out = nullptr)
{
    sentinel::Config cfg;
    cfg.selfcheck_rate = 4;
    sentinel::Sentinel sent(cfg);
    core::Options opts = baseOpts(threads, deterministic);
    opts.enable_hot_phase = hot_phase;
    opts.sentinel = &sent;
    harness::TranslatedRun run =
        harness::runTranslated(w.image, w.params.abi, opts);
    EXPECT_TRUE(run.outcome.exited);
    if (out)
        *out = run.outcome;
    SentinelCounters c;
    c.regions = sent.regionsSeen();
    c.checked = run.runtime->stats().get("sentinel.checked");
    c.passed = run.runtime->stats().get("sentinel.passed");
    c.divergences = sent.totalDivergences();
    c.cycles = run.outcome.cycles;
    return c;
}

TEST(SelfcheckDeterminism, RepeatRunsAreBitIdentical)
{
    // Same image, same config (4 workers, deterministic adoption): the
    // sampling decisions are a pure function of the region counter, so
    // two runs agree on every sentinel counter and on cycles.
    Workload w = victim();
    SentinelCounters a = countersFor(w, 4, true);
    SentinelCounters b = countersFor(w, 4, true);
    EXPECT_TRUE(a == b);
    EXPECT_DOUBLE_EQ(a.cycles, b.cycles);
    EXPECT_GE(a.checked, 1u);
    EXPECT_EQ(a.divergences, 0u);
}

TEST(SelfcheckDeterminism, CountersBitIdenticalAcrossThreadCounts)
{
    // The sentinel itself must introduce no thread-count dependence:
    // its sampling keys off the dispatch-region counter, never wall
    // clock or worker identity. With the hot phase off (worker count
    // then has no effect on the region stream at all), every sentinel
    // counter is bit-identical for 0, 1 and 4 workers.
    Workload w = victim();
    SentinelCounters sync = countersFor(w, 0, false, false);
    SentinelCounters one = countersFor(w, 1, true, false);
    SentinelCounters four = countersFor(w, 4, true, false);
    EXPECT_TRUE(sync == one && one == four)
        << "regions " << sync.regions << "/" << one.regions << "/"
        << four.regions << " checked " << sync.checked << "/"
        << one.checked << "/" << four.checked;
    EXPECT_DOUBLE_EQ(sync.cycles, one.cycles);
    EXPECT_DOUBLE_EQ(sync.cycles, four.cycles);
    EXPECT_GE(sync.checked, 1u);
    EXPECT_EQ(sync.divergences, 0u);
}

TEST(SelfcheckDeterminism, ArchInvarianceSurvivesAttachment)
{
    // With the hot phase on, worker count moves *when* traces are
    // adopted — region streams legitimately differ across thread
    // counts (the same is true without a sentinel; see
    // AsyncDeterminism). What must hold: the attached sentinel stays
    // clean and preserves the architectural thread-count invariance,
    // and each thread count remains individually replayable.
    Workload w = victim();
    harness::Outcome ref;
    SentinelCounters sync = countersFor(w, 0, false, true, &ref);
    EXPECT_EQ(sync.divergences, 0u);
    for (unsigned threads : {1u, 4u}) {
        harness::Outcome got;
        SentinelCounters a = countersFor(w, threads, true, true, &got);
        SentinelCounters b = countersFor(w, threads, true, true);
        EXPECT_TRUE(a == b) << threads << " workers not replayable";
        EXPECT_DOUBLE_EQ(a.cycles, b.cycles) << threads << " workers";
        EXPECT_EQ(a.divergences, 0u) << threads << " workers";
        EXPECT_EQ(ref.exit_code, got.exit_code) << threads << " workers";
        std::string why;
        EXPECT_TRUE(ref.final_state.equalsArch(got.final_state, &why))
            << threads << " workers: " << why;
    }
}

} // namespace
} // namespace el
