/**
 * @file
 * Tests for the event stream's Chrome capture and the run report:
 * replaying a deterministic configuration must reproduce the trace
 * bit-identically, lifecycle event sets must be stable across worker
 * thread counts, tracing must never perturb simulated cycles, the
 * Chrome export must validate, the Figure-6 attribution buckets must
 * sum exactly to the machine's cycle total, and the acceptance
 * scenario (gzip under four workers; a bounded cache under pressure)
 * must surface hot sessions on worker lanes and cache-flush events.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "core/report.hh"
#include "guest/workloads.hh"
#include "harness/exec.hh"
#include "support/flightrec.hh"
#include "support/json.hh"
#include "support/strfmt.hh"

namespace el
{
namespace
{

core::Options
traceOpts(unsigned threads, bool trace = true)
{
    core::Options o;
    o.heat_threshold = 16;
    o.hot_batch = 1;
    o.translation_threads = threads;
    o.trace = trace;
    return o;
}

guest::Workload
gzipWorkload()
{
    guest::WorkloadParams p;
    p.outer_iters = 60;
    p.size = 24000;
    return guest::buildStream("gzip", p);
}

/** The run's capture as exported Chrome JSON. */
std::string
chromeOf(const harness::TranslatedRun &r)
{
    return r.runtime->flight()->chromeJson();
}

/** The exported Chrome trace events of a run. */
std::vector<json::Value>
eventsOf(const harness::TranslatedRun &r)
{
    json::Value root;
    std::string error;
    EXPECT_TRUE(json::Parser::parse(chromeOf(r), &root, &error)) << error;
    const json::Value *events = root.find("traceEvents");
    return events && events->isArray() ? events->arr
                                       : std::vector<json::Value>{};
}

double
argOf(const json::Value &e, const char *key, double missing = -1)
{
    const json::Value *args = e.find("args");
    return args ? args->numberOr(key, missing) : missing;
}

/** The (name, eip) pairs of all events named @p name. */
std::multiset<std::string>
eipSetOf(const harness::TranslatedRun &r, const char *name)
{
    std::multiset<std::string> out;
    for (const json::Value &e : eventsOf(r))
        if (e.strOr("name", "") == name)
            out.insert(strfmt("%s@%llx", name,
                              static_cast<long long>(argOf(e, "eip"))));
    return out;
}

// ----- replay determinism -----------------------------------------------

TEST(Trace, ReplayProducesIdenticalStream)
{
    guest::Workload w = gzipWorkload();
    harness::TranslatedRun r1 =
        harness::runTranslated(w.image, w.params.abi, traceOpts(4));
    harness::TranslatedRun r2 =
        harness::runTranslated(w.image, w.params.abi, traceOpts(4));
    ASSERT_TRUE(r1.outcome.exited);
    EXPECT_EQ(r1.outcome.cycles, r2.outcome.cycles);
    EXPECT_EQ(r1.runtime->flight()->captureDropped(), 0u);
    EXPECT_FALSE(eventsOf(r1).empty());
    EXPECT_EQ(chromeOf(r1), chromeOf(r2));
}

// ----- cross-thread-count stability -------------------------------------

TEST(Trace, ColdTranslateSetStableAcrossThreadCounts)
{
    guest::Workload w = gzipWorkload();
    std::multiset<std::string> sync_set, async_ref;
    for (unsigned threads : {0u, 1u, 4u}) {
        harness::TranslatedRun r = harness::runTranslated(
            w.image, w.params.abi, traceOpts(threads));
        ASSERT_TRUE(r.outcome.exited) << "threads " << threads;
        std::multiset<std::string> cold = eipSetOf(r, "cold_translate");
        EXPECT_FALSE(cold.empty());
        if (threads == 0) {
            sync_set = cold;
        } else if (threads == 1) {
            async_ref = cold;
        } else {
            // Adoption on the simulated worker timeline makes the async
            // timeline (and so the cold-translation set) identical
            // across worker counts.
            EXPECT_EQ(async_ref, cold) << "threads " << threads;
        }
        if (threads > 0) {
            // Async runs keep executing cold code while hot sessions
            // are in flight, so they cold-translate a superset of what
            // the synchronous run does — never less.
            for (const std::string &e : sync_set)
                EXPECT_TRUE(cold.count(e)) << e << " missing at "
                                           << threads << " threads";
        }
    }
}

TEST(Trace, HotLifecycleStableAcrossWorkerCounts)
{
    guest::Workload w = gzipWorkload();
    std::multiset<std::string> ref;
    for (unsigned threads : {1u, 4u}) {
        harness::TranslatedRun r = harness::runTranslated(
            w.image, w.params.abi, traceOpts(threads));
        ASSERT_TRUE(r.outcome.exited);
        // Registration is driven by main-thread execution counts, so
        // the set must not depend on how many workers drain the queue.
        std::multiset<std::string> reg = eipSetOf(r, "heat_register");
        EXPECT_FALSE(reg.empty());
        if (threads == 1)
            ref = reg;
        else
            EXPECT_EQ(ref, reg);
        EXPECT_FALSE(eipSetOf(r, "hot_commit").empty());
    }
}

// ----- the zero-overhead contract ---------------------------------------

TEST(Trace, TracingOffCyclesBitIdentical)
{
    guest::Workload w = gzipWorkload();
    for (unsigned threads : {0u, 4u}) {
        harness::TranslatedRun traced = harness::runTranslated(
            w.image, w.params.abi, traceOpts(threads));
        harness::TranslatedRun plain = harness::runTranslated(
            w.image, w.params.abi, traceOpts(threads, false));
        ASSERT_TRUE(traced.outcome.exited);
        EXPECT_EQ(traced.outcome.cycles, plain.outcome.cycles)
            << "threads " << threads;
        EXPECT_EQ(traced.outcome.exit_code, plain.outcome.exit_code);
    }
}

// ----- export + attribution ---------------------------------------------

TEST(Trace, ChromeExportValidates)
{
    guest::Workload w = gzipWorkload();
    harness::TranslatedRun r =
        harness::runTranslated(w.image, w.params.abi, traceOpts(4));
    std::string error;
    EXPECT_TRUE(flight::validateChromeTrace(chromeOf(r), &error))
        << error;
    // A malformed document must be rejected.
    EXPECT_FALSE(flight::validateChromeTrace("{\"traceEvents\": 3}",
                                             &error));
    EXPECT_FALSE(flight::validateChromeTrace("not json", &error));
}

TEST(Trace, AttributionSumsExactlyToTotalCycles)
{
    guest::Workload w = gzipWorkload();
    for (unsigned threads : {0u, 4u}) {
        harness::TranslatedRun r = harness::runTranslated(
            w.image, w.params.abi, traceOpts(threads, false));
        ASSERT_TRUE(r.outcome.exited);
        core::Attribution a = core::attributionOf(*r.runtime);
        // Exact, not approximate: every subtraction in the attribution
        // re-appears as an addition, and all terms are integer-valued
        // doubles far below 2^53.
        EXPECT_EQ(a.total(),
                  r.runtime->machine().stats().totalCycles());
        EXPECT_GE(a.cold_code, 0.0);
        EXPECT_GE(a.hot_code, 0.0);
        EXPECT_GE(a.btgeneric, 0.0);
        EXPECT_GE(a.fault_handling, 0.0);
    }
}

TEST(Trace, RunReportJsonParsesAndMatchesAttribution)
{
    guest::Workload w = gzipWorkload();
    core::Options o = traceOpts(4, false);
    o.collect_block_cycles = true;
    harness::TranslatedRun r =
        harness::runTranslated(w.image, w.params.abi, o);
    std::string text = core::runReportJson(*r.runtime, w.name);
    json::Value v;
    std::string error;
    ASSERT_TRUE(json::Parser::parse(text, &v, &error)) << error;
    const json::Value *attr = v.find("attribution");
    ASSERT_NE(attr, nullptr);
    const json::Value *total = attr->find("total");
    ASSERT_NE(total, nullptr);
    const json::Value *cycles = v.find("cycles");
    ASSERT_NE(cycles, nullptr);
    EXPECT_EQ(total->num, cycles->num);
    const json::Value *blocks = v.find("blocks");
    ASSERT_NE(blocks, nullptr);
    EXPECT_TRUE(blocks->isArray());
    EXPECT_FALSE(blocks->arr.empty());
}

// ----- acceptance scenario ----------------------------------------------

TEST(Trace, GzipHotSessionsLandOnWorkerLanes)
{
    guest::Workload w = gzipWorkload();
    harness::TranslatedRun r =
        harness::runTranslated(w.image, w.params.abi, traceOpts(4));
    ASSERT_TRUE(r.outcome.exited);
    std::set<double> lanes;
    for (const json::Value &e : eventsOf(r))
        if (e.strOr("name", "") == "hot_emit")
            lanes.insert(e.numberOr("tid", 0));
    EXPECT_FALSE(lanes.empty());
    for (double tid : lanes)
        EXPECT_NE(tid, 0.0); // sessions run on worker lanes, not lane 0
}

TEST(Trace, BoundedCachePressureEmitsFlushEvents)
{
    guest::WorkloadParams p;
    p.outer_iters = 12;
    p.size = 4000;
    p.code_copies = 12;
    guest::Workload w = guest::buildBigCode("bigcode", p);

    core::Options o = traceOpts(0);
    o.code_cache_capacity = 1024;
    o.cache_headroom = 512;
    harness::TranslatedRun r =
        harness::runTranslated(w.image, w.params.abi, o);
    ASSERT_TRUE(r.outcome.exited);
    unsigned flushes = 0;
    for (const json::Value &e : eventsOf(r))
        if (e.strOr("name", "") == "cache_flush")
            ++flushes;
    EXPECT_GE(flushes, 1u);
    std::string error;
    EXPECT_TRUE(flight::validateChromeTrace(chromeOf(r), &error))
        << error;
}

TEST(Trace, InjectedFaultsAreTraced)
{
    guest::Workload w = gzipWorkload();
    core::Options o = traceOpts(4);
    o.fault.site(FaultSite::HotXlateAbort, 512); // p = 512/1024
    o.fault.seed = 7;
    harness::TranslatedRun r =
        harness::runTranslated(w.image, w.params.abi, o);
    ASSERT_TRUE(r.outcome.exited);
    unsigned fires = 0;
    for (const json::Value &e : eventsOf(r))
        if (e.strOr("name", "") == "fault_fire") {
            EXPECT_EQ(argOf(e, "site"),
                      static_cast<double>(FaultSite::HotXlateAbort));
            ++fires;
        }
    EXPECT_GE(fires, 1u);
}

} // namespace
} // namespace el
