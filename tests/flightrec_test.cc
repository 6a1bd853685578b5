/**
 * @file
 * Tests for the observability tentpole: the always-on flight recorder,
 * the artifact provenance ledger, the telemetry snapshotter, and the
 * postmortem bundle.
 *
 * The load-bearing properties:
 *  - recording charges zero simulated cycles: guest results AND cycle
 *    counts are bit-exact with the recorder on or off;
 *  - the merged flight is deterministic: two identical runs produce
 *    identical event sequences for every translation_threads setting,
 *    because worker events carry planned simulated times and planned
 *    worker slots, never wall clock;
 *  - a chaos run's postmortem names the injected fault site that
 *    caused the trouble, and the faulting entry point's provenance
 *    chain is present.
 */

#include <gtest/gtest.h>

#include "btlib/abi.hh"
#include "core/postmortem.hh"
#include "core/provenance.hh"
#include "guest/image.hh"
#include "harness/exec.hh"
#include "ia32/assembler.hh"
#include "support/faultinject.hh"
#include "support/flightrec.hh"
#include "support/json.hh"
#include "support/metrics.hh"
#include "support/random.hh"

namespace el
{
namespace
{

using guest::Layout;
using namespace ia32;

/** Tight counted loop, hot enough to cross any heat threshold. */
guest::Image
hotLoopProgram(uint32_t iterations = 400)
{
    Assembler as(Layout::code_base);
    as.movRI(RegEax, 0);
    as.movRI(RegEcx, iterations);
    Label top = as.label();
    as.bind(top);
    as.aluRI(Op::Add, RegEax, 3);
    as.aluRI(Op::Xor, RegEax, 0x55);
    as.decR(RegEcx);
    as.jcc(Cond::NE, top);
    as.aluRI(Op::And, RegEax, 0x7f);
    as.movRR(RegEbx, RegEax);
    as.movRI(RegEax, btlib::linux_abi::nr_exit);
    as.intN(btlib::linux_abi::int_vector);

    guest::Image img;
    img.name = "flight_hotloop";
    img.entry = Layout::code_base;
    img.addCode(Layout::code_base, as.finish());
    img.addData(Layout::data_base, 0x1000);
    return img;
}

core::Options
hotOpts(unsigned threads, bool flight = true)
{
    core::Options o;
    o.heat_threshold = 16;
    o.hot_batch = 1;
    o.translation_threads = threads;
    o.flight_recorder = flight;
    return o;
}

// ----- recorder unit behavior -------------------------------------------

TEST(FlightRecorder, DropOldestKeepsTheTail)
{
    flight::FlightRecorder fr(4);
    for (int i = 0; i < 10; ++i)
        fr.emitAt({flight::Kind::Dispatch, 0, double(i), 0, i});
    std::vector<flight::Event> ev = fr.snapshot();
    ASSERT_EQ(ev.size(), 4u);
    // The last four events survive, the first six were evicted.
    EXPECT_EQ(ev.front().a, 6);
    EXPECT_EQ(ev.back().a, 9);
    EXPECT_EQ(fr.dropped(), 6u);
}

TEST(FlightRecorder, SnapshotMergesSortedByTime)
{
    flight::FlightRecorder fr(16);
    fr.emitAt({flight::Kind::HotCommit, 0, 30.0, 0, 3});
    fr.emitAt({flight::Kind::Dispatch, 0, 10.0, 0, 1});
    fr.emitAt({flight::Kind::ColdXlate, 0, 20.0, 0, 2});
    std::vector<flight::Event> ev = fr.snapshot();
    ASSERT_EQ(ev.size(), 3u);
    EXPECT_EQ(ev[0].a, 1);
    EXPECT_EQ(ev[1].a, 2);
    EXPECT_EQ(ev[2].a, 3);
}

TEST(FlightRecorder, KindNamesAreStable)
{
    // The postmortem schema exports these names; renaming one is a
    // consumer-visible break and must be deliberate.
    EXPECT_STREQ(flight::kindName(flight::Kind::Dispatch), "dispatch");
    EXPECT_STREQ(flight::kindName(flight::Kind::HotCommit),
                 "hot_commit");
    EXPECT_STREQ(flight::kindName(flight::Kind::FaultInject),
                 "fault_inject");
    EXPECT_STREQ(flight::kindName(flight::Kind::SentinelShift),
                 "sentinel_shift");
}

TEST(FlightRecorder, ConsumersSeeOnlyTheirKinds)
{
    core::ProvenanceLedger led;
    flight::FlightRecorder fr(16, 16);
    fr.attach(&led);
    fr.emit(flight::Kind::Dispatch, 0x1000);        // tail only
    fr.emit(flight::Kind::HeatRegister, 0x1000, 1); // capture only
    fr.emit(flight::Kind::FaultStub, 0x2000, 2);    // fold only
    fr.emit(flight::Kind::ColdXlate, 0x3000, 3, 4); // all three
    // An inline session is drawn by HotInline, not by HotSession.
    fr.emit(flight::Kind::HotSession, 0x3000, 0, 1, flight::none);
    fr.emit(flight::Kind::HotInline, 0x3000, 5);

    std::vector<flight::Event> tail = fr.snapshot();
    ASSERT_EQ(tail.size(), 3u);
    EXPECT_EQ(tail[0].kind, flight::Kind::Dispatch);
    EXPECT_EQ(tail[1].kind, flight::Kind::ColdXlate);
    EXPECT_EQ(tail[2].kind, flight::Kind::HotSession);
    EXPECT_EQ(fr.captured().size(), 3u);
    EXPECT_EQ(led.all().size(), 2u);
    EXPECT_NE(led.timeline(0x2000), nullptr);
    EXPECT_NE(led.timeline(0x3000), nullptr);

    json::Value root;
    std::string error;
    ASSERT_TRUE(json::Parser::parse(fr.chromeJson(), &root, &error))
        << error;
    std::vector<std::string> names;
    for (const json::Value &e : root.find("traceEvents")->arr)
        names.push_back(e.strOr("name", ""));
    // HotInline expands into the inline snapshot/emit/commit spans.
    EXPECT_EQ(names, (std::vector<std::string>{
                         "cold_translate", "heat_register", "hot_snapshot",
                         "hot_emit", "hot_commit"}));
}

TEST(ProvenanceLedger, TimelineIsBoundedPerEip)
{
    core::ProvenanceLedger led;
    flight::FlightRecorder fr(0);
    fr.attach(&led);
    // Each cold translation folds into two steps (decoded, cold).
    const int n = core::ProvenanceLedger::events_per_eip;
    for (int i = 0; i < n; ++i)
        fr.emitAt({flight::Kind::ColdXlate, 0, double(i), 0, 0x1000, i});
    const BoundedRing<core::ProvEvent> *tl = led.timeline(0x1000);
    ASSERT_NE(tl, nullptr);
    EXPECT_EQ(tl->size(), core::ProvenanceLedger::events_per_eip);
    EXPECT_EQ(tl->dropped(), core::ProvenanceLedger::events_per_eip);
    EXPECT_EQ(led.timeline(0x2000), nullptr);
    // Oldest dropped: the survivors are the second half's steps.
    auto it = tl->begin();
    EXPECT_EQ(it->state, core::ProvState::Decoded);
    EXPECT_EQ(it->block_id, n / 2);
}

// ----- zero-overhead / bit-exactness ------------------------------------

TEST(FlightRecorder, RecorderOnOffIsBitExactIncludingCycles)
{
    guest::Image img = hotLoopProgram();
    for (unsigned threads : {0u, 4u}) {
        harness::TranslatedRun on = harness::runTranslated(
            img, btlib::OsAbi::Linux, hotOpts(threads, true));
        harness::TranslatedRun off = harness::runTranslated(
            img, btlib::OsAbi::Linux, hotOpts(threads, false));
        ASSERT_TRUE(on.outcome.exited);
        ASSERT_TRUE(off.outcome.exited);
        EXPECT_EQ(on.outcome.exit_code, off.outcome.exit_code);
        std::string why;
        EXPECT_TRUE(on.outcome.final_state.equalsArch(
            off.outcome.final_state, &why))
            << "threads " << threads << ": " << why;
        // The acceptance bar: zero simulated-cycle delta.
        EXPECT_DOUBLE_EQ(on.outcome.cycles, off.outcome.cycles)
            << "threads " << threads;
        EXPECT_NE(on.runtime->flight(), nullptr);
        EXPECT_EQ(off.runtime->flight(), nullptr);
        EXPECT_GT(on.runtime->flight()->snapshot().size(), 0u);
    }
}

// ----- merged-order determinism -----------------------------------------

/** The merged flight of one run, reduced to a comparable string. */
std::string
flightFingerprint(const flight::FlightRecorder &fr)
{
    std::string out;
    for (const flight::Event &e : fr.snapshot()) {
        char buf[160];
        std::snprintf(buf, sizeof(buf), "%s lane=%u ts=%.0f %lld %lld "
                      "%lld\n",
                      flight::kindName(e.kind), e.lane, e.ts,
                      static_cast<long long>(e.a),
                      static_cast<long long>(e.b),
                      static_cast<long long>(e.c));
        out += buf;
    }
    return out;
}

TEST(FlightRecorder, MergedOrderIsDeterministicAcrossThreadCounts)
{
    guest::Image img = hotLoopProgram();
    for (unsigned threads : {0u, 1u, 4u}) {
        harness::TranslatedRun a = harness::runTranslated(
            img, btlib::OsAbi::Linux, hotOpts(threads));
        harness::TranslatedRun b = harness::runTranslated(
            img, btlib::OsAbi::Linux, hotOpts(threads));
        ASSERT_TRUE(a.outcome.exited);
        ASSERT_TRUE(b.outcome.exited);
        ASSERT_NE(a.runtime->flight(), nullptr);
        ASSERT_NE(b.runtime->flight(), nullptr);
        // Identical runs must replay to identical merged flights:
        // worker events carry planned times and planned slots, so host
        // scheduling cannot reorder or relabel anything.
        EXPECT_EQ(flightFingerprint(*a.runtime->flight()),
                  flightFingerprint(*b.runtime->flight()))
            << "threads " << threads;
    }
}

// ----- provenance through a real run ------------------------------------

TEST(ProvenanceLedger, HotBlockLifecycleIsRecorded)
{
    guest::Image img = hotLoopProgram();
    harness::TranslatedRun tr =
        harness::runTranslated(img, btlib::OsAbi::Linux, hotOpts(4));
    ASSERT_TRUE(tr.outcome.exited);
    const core::ProvenanceLedger *led = tr.runtime->provenance();
    ASSERT_NE(led, nullptr);

    const BoundedRing<core::ProvEvent> *tl =
        led->timeline(Layout::code_base);
    ASSERT_NE(tl, nullptr) << "entry point never entered the ledger";
    // The entry block is decoded cold; the hot candidate is the loop
    // head further in, so scan the whole ledger for the hot states.
    bool decoded = false, cold = false, queued = false,
         published = false;
    for (const core::ProvEvent &e : *tl) {
        decoded |= e.state == core::ProvState::Decoded;
        cold |= e.state == core::ProvState::Cold;
    }
    for (const auto &[eip, ring] : led->all()) {
        for (const core::ProvEvent &e : ring) {
            queued |= e.state == core::ProvState::HotQueued;
            published |= e.state == core::ProvState::Published;
        }
    }
    EXPECT_TRUE(decoded);
    EXPECT_TRUE(cold);
    EXPECT_TRUE(queued);
    EXPECT_TRUE(published) << "hot commit never reached the ledger";
}

// ----- telemetry snapshots ----------------------------------------------

TEST(Metrics, SnapshotJsonIsWellFormed)
{
    metrics::Registry reg;
    double g = 42.0;
    reg.gauge("answer", [&] { return g; });
    StatGroup sg;
    sg.add("lookups", 7);
    reg.counters("demo", &sg);
    Histogram h(0, 10, 10);
    h.sample(5);
    h.sample(25);
    reg.histogram("latency", &h);

    json::Value root;
    std::string error;
    ASSERT_TRUE(json::Parser::parse(reg.snapshotJson(123), &root,
                                    &error))
        << error;
    EXPECT_EQ(root.strOr("kind", ""), "el-metrics");
    EXPECT_EQ(root.numberOr("version", 0), 1);
    EXPECT_EQ(root.numberOr("cycle", 0), 123);
    const json::Value *gauges = root.find("gauges");
    ASSERT_NE(gauges, nullptr);
    EXPECT_EQ(gauges->numberOr("answer", 0), 42.0);
    const json::Value *counters = root.find("counters");
    ASSERT_NE(counters, nullptr);
    EXPECT_EQ(counters->numberOr("demo.lookups", 0), 7);
    const json::Value *hists = root.find("histograms");
    ASSERT_NE(hists, nullptr);
    const json::Value *lat = hists->find("latency");
    ASSERT_NE(lat, nullptr);
    EXPECT_EQ(lat->numberOr("count", 0), 2);
}

TEST(Metrics, MaybeEmitHonorsThePeriod)
{
    metrics::Registry reg;
    reg.setPeriod(100);
    // No output file open: maybeEmit must be a no-op, not a crash.
    reg.maybeEmit(1000);
    EXPECT_EQ(reg.snapshots(), 0u);
}

// ----- postmortem bundles -----------------------------------------------

TEST(Postmortem, CleanRunBundleIsSchemaValid)
{
    guest::Image img = hotLoopProgram();
    harness::TranslatedRun tr =
        harness::runTranslated(img, btlib::OsAbi::Linux, hotOpts(4));
    ASSERT_TRUE(tr.outcome.exited);

    core::PostmortemInfo info;
    info.workload = "flight_hotloop";
    info.exit_class = "ok";
    info.exit_code = 0;
    json::Value root;
    std::string error;
    ASSERT_TRUE(json::Parser::parse(
        core::postmortemJson(*tr.runtime, info), &root, &error))
        << error;
    EXPECT_EQ(root.strOr("kind", ""), "el-postmortem");
    EXPECT_EQ(root.numberOr("version", 0), 1);
    const json::Value *fl = root.find("flight");
    ASSERT_NE(fl, nullptr);
    const json::Value *events = fl->find("events");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());
    EXPECT_GT(events->arr.size(), 0u);
    const json::Value *prov = root.find("provenance");
    ASSERT_NE(prov, nullptr);
    ASSERT_TRUE(prov->isArray());
    // The hot loop must appear with its translation in the final hot
    // set and a published step in its timeline.
    bool found_hot = false;
    for (const json::Value &entry : prov->arr) {
        const json::Value *hot = entry.find("in_hot_set");
        if (hot && hot->kind == json::Value::Kind::Bool && hot->b)
            found_hot = true;
    }
    EXPECT_TRUE(found_hot);
}

TEST(Postmortem, ChaosRunNamesTheInjectedFaultSite)
{
    // Directed chaos: force hot-session aborts and require the bundle
    // to convict the injected site by name, with the abort visible in
    // both the flight tail and the victim's provenance chain.
    guest::Image img = hotLoopProgram();
    core::Options opts = hotOpts(4);
    opts.fault.seed = 7;
    opts.fault.site(FaultSite::HotXlateAbort, 1024);
    harness::TranslatedRun tr =
        harness::runTranslated(img, btlib::OsAbi::Linux, opts);
    ASSERT_TRUE(tr.outcome.exited);
    ASSERT_NE(tr.runtime->faultInjector(), nullptr);
    ASSERT_GT(tr.runtime->faultInjector()->totalFires(), 0u);

    core::PostmortemInfo info;
    info.workload = "flight_hotloop";
    info.exit_class = "ok";
    info.exit_code = 0;
    json::Value root;
    std::string error;
    ASSERT_TRUE(json::Parser::parse(
        core::postmortemJson(*tr.runtime, info), &root, &error))
        << error;

    const json::Value *fi = root.find("fault_injection");
    ASSERT_NE(fi, nullptr) << "bundle lost the injection config";
    EXPECT_EQ(fi->numberOr("seed", 0), 7);
    const json::Value *sites = fi->find("sites");
    ASSERT_NE(sites, nullptr);
    bool named = false;
    for (const json::Value &s : sites->arr)
        if (s.strOr("site", "") == "hot_xlate_abort" &&
            s.numberOr("fires", 0) > 0)
            named = true;
    EXPECT_TRUE(named)
        << "postmortem does not name the injected fault site";

    // The flight tail carries the worker-lane injection events...
    const json::Value *events = root.find("flight")->find("events");
    ASSERT_NE(events, nullptr);
    bool injected_event = false;
    for (const json::Value &e : events->arr)
        if (e.strOr("kind", "") == "fault_inject")
            injected_event = true;
    EXPECT_TRUE(injected_event);

    // ...and the victim's provenance chain records the aborted
    // session.
    const core::ProvenanceLedger *led = tr.runtime->provenance();
    ASSERT_NE(led, nullptr);
    // The aborted session belongs to the hot loop head, not the image
    // entry block, so scan every timeline for the abort step.
    bool aborted = false;
    for (const auto &[eip, ring] : led->all())
        for (const core::ProvEvent &e : ring)
            aborted |= e.cause == core::ProvCause::SessionAbort;
    EXPECT_TRUE(aborted)
        << "no session_abort step in any timeline";
}

} // namespace
} // namespace el
