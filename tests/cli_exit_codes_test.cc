/**
 * @file
 * Exit-code hygiene for the el_run CLI: scripts and CI must be able to
 * tell *whose fault* a failed run was from the exit code alone —
 * 0 success, 1 usage, 10 the guest's own fault, 20 a translator
 * internal error, 30 a sentinel-detected divergence, 40 an accounting
 * audit violation on an otherwise-clean run. The binary under
 * test comes from the EL_RUN_BIN environment variable, which the CMake
 * test registration points at the just-built el_run.
 *
 * Every abnormal exit must also leave a postmortem bundle behind: the
 * second half of this file runs each failure class with an explicit
 * --postmortem-out and asserts the bundle is schema-valid and names
 * the exit class it was written for.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include <sys/wait.h>

#include "ia32/fault.hh"
#include "support/json.hh"

namespace
{

/** Run el_run with @p args; its stdout goes to @p out when given. */
int
runCli(const std::string &args, std::string *out = nullptr)
{
    const char *bin = std::getenv("EL_RUN_BIN");
    EXPECT_NE(bin, nullptr)
        << "EL_RUN_BIN must point at the el_run binary";
    if (!bin)
        return -1;
    std::string cmd = std::string(bin) + " " + args + " 2>/dev/null";
    FILE *pipe = popen(cmd.c_str(), "r");
    if (!pipe)
        return -1;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, pipe)) > 0)
        if (out)
            out->append(buf, n);
    int rc = pclose(pipe);
    if (rc < 0 || !WIFEXITED(rc))
        return -1;
    return WEXITSTATUS(rc);
}

/** The check count of el_run's "audit: <n> check(s)" line, or 0. */
unsigned long long
auditChecks(const std::string &out)
{
    size_t at = out.find("audit: ");
    return at == std::string::npos
               ? 0
               : std::strtoull(out.c_str() + at + 7, nullptr, 10);
}

std::string
tmpBundlePath(const std::string &tag)
{
    return testing::TempDir() + "el_postmortem_" + tag + ".json";
}

/** Run el_run writing a postmortem to @p path; parse it into @p root. */
int
runCliWithBundle(const std::string &args, const std::string &path,
                 el::json::Value *root)
{
    std::remove(path.c_str());
    int code = runCli(args + " --postmortem-out=" + path);
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "no postmortem bundle at " << path;
    if (!in.good())
        return code;
    std::ostringstream text;
    text << in.rdbuf();
    std::string error;
    EXPECT_TRUE(el::json::Parser::parse(text.str(), root, &error))
        << "postmortem is not valid JSON: " << error;
    return code;
}

/** guest.state_hash of an el_run report for @p args, or "". */
std::string
stateHash(const std::string &args, const std::string &tag)
{
    // Keyed by the running test too: ctest runs tests in parallel.
    std::string path =
        testing::TempDir() + "el_state_" +
        testing::UnitTest::GetInstance()->current_test_info()->name() +
        "_" + tag + ".json";
    std::remove(path.c_str());
    runCli(args + " --report-json=" + path);
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    el::json::Value root;
    std::string error;
    if (!el::json::Parser::parse(text.str(), &root, &error))
        return "";
    const el::json::Value *guest = root.find("guest");
    return guest ? guest->strOr("state_hash", "") : "";
}

/**
 * The miscompile seed the sentinel tests aim at: the first seed in 1..8
 * whose unguarded `jit_rewriter --fault=miscompile:128` run ends in a
 * different guest state than the clean run. A seed whose bit flips are
 * neutral leaves nothing to detect, and which seeds are neutral moves
 * whenever the emitted code does; 0 when none of the eight bites.
 */
int
consequentialMiscompileSeed()
{
    const std::string clean =
        stateHash("--workload=jit_rewriter", "clean");
    EXPECT_FALSE(clean.empty());
    for (int seed = 1; seed <= 8; ++seed) {
        std::string args = "--workload=jit_rewriter "
                           "--fault=miscompile:128 --fault-seed=" +
                           std::to_string(seed);
        std::string got = stateHash(args, "seed" + std::to_string(seed));
        if (!got.empty() && got != clean)
            return seed;
    }
    return 0;
}

/** The invariants every bundle must satisfy, per DESIGN.md §12. */
void
expectBundleSchema(const el::json::Value &root,
                   const std::string &exit_class, int exit_code)
{
    using el::json::Value;
    ASSERT_TRUE(root.isObject());
    EXPECT_EQ(root.strOr("kind", ""), "el-postmortem");
    EXPECT_EQ(root.numberOr("version", 0), 1.0);
    const Value *exit = root.find("exit");
    ASSERT_NE(exit, nullptr);
    EXPECT_EQ(exit->strOr("class", ""), exit_class);
    EXPECT_EQ(exit->numberOr("code", -1),
              static_cast<double>(exit_code));
}

TEST(CliExitCodes, CleanRunIsZero)
{
    EXPECT_EQ(runCli("--workload=jit_rewriter"), 0);
}

TEST(CliExitCodes, UsageErrorIsOne)
{
    EXPECT_EQ(runCli("--no-such-flag"), 1);
    EXPECT_EQ(runCli("--workload="), 1);
    EXPECT_EQ(runCli("--workload=no_such_personality"), 1);
    EXPECT_EQ(runCli("--workload=jit_rewriter --log-level=verbose"), 1);
}

TEST(CliExitCodes, MalformedNumbersAreUsageErrors)
{
    // Numeric flags refuse what atoi() would have turned into a silent
    // zero or a wrapped negative. (A wrapped --threads would start
    // billions of workers, so that flag is covered by the parser's
    // unit test, never by launching el_run.)
    EXPECT_EQ(runCli("--workload=jit_rewriter --flight-ring=abc"), 1);
    EXPECT_EQ(runCli("--workload=jit_rewriter --flight-ring=-5"), 1);
    EXPECT_EQ(runCli("--workload=jit_rewriter --audit-period=12x"), 1);
    EXPECT_EQ(runCli("--workload=jit_rewriter --hot-batch=abc"), 1);
}

TEST(CliExitCodes, IoErrorIsTwo)
{
    EXPECT_EQ(runCli("--workload=jit_rewriter "
                     "--report-json=/no/such/dir/report.json"),
              2);
    EXPECT_EQ(runCli("--workload=jit_rewriter "
                     "--metrics-out=/no/such/dir/metrics.ndjson"),
              2);
    EXPECT_EQ(runCli("--workload=jit_rewriter "
                     "--trace-out=/no/such/dir/trace.json"),
              2);
}

TEST(CliExitCodes, TraceOutRoundTripValidates)
{
    // The --trace-out writer and the --validate-trace checker agree:
    // what el_run exports is a valid Chrome trace.
    std::string path = testing::TempDir() + "el_trace_roundtrip.json";
    std::remove(path.c_str());
    ASSERT_EQ(runCli("--workload=jit_rewriter --threads=2 "
                     "--deterministic --trace-out=" + path),
              0);
    EXPECT_EQ(runCli("--validate-trace=" + path), 0);
    // A truncated copy must be refused.
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    std::string cut = path + ".cut";
    std::ofstream(cut) << text.str().substr(0, text.str().size() / 2);
    EXPECT_EQ(runCli("--validate-trace=" + cut), 2);
}

TEST(CliExitCodes, UnhandledGuestFaultIsTen)
{
    // The faulter diagnostic dereferences an unmapped page with no
    // handler registered: the guest's own fault, not the translator's.
    EXPECT_EQ(runCli("--workload=faulter"), 10);
}

TEST(CliExitCodes, TranslatorInternalErrorIsTwenty)
{
    // Injected BTOS allocation failure on every attempt: the runtime
    // cannot initialize. That is our failure, not the guest's.
    EXPECT_EQ(runCli("--workload=jit_rewriter --fault=btos_alloc:1024"),
              20);
}

TEST(CliExitCodes, SentinelDivergenceIsThirty)
{
    // Seeded miscompile + full shadow-checking: the sentinel detects
    // the corrupted translation and el_run reports the divergence class
    // even though the run completes with the correct answer.
    int seed = consequentialMiscompileSeed();
    ASSERT_NE(seed, 0) << "no seed in 1..8 changes the guest state";
    EXPECT_EQ(runCli("--workload=jit_rewriter --fault=miscompile:128 "
                     "--fault-seed=" + std::to_string(seed) +
                     " --selfcheck=1"),
              30);
}

TEST(CliExitCodes, AuditViolationIsForty)
{
    // The acct_skew site corrupts only the books — it adds phantom
    // Overhead cycles and a phantom cold-translation count without
    // touching guest execution — so the run itself succeeds and the
    // only witness is the auditor's closure check.
    EXPECT_EQ(runCli("--workload=jit_rewriter --audit "
                     "--fault=acct_skew:1024"),
              40);
    // Same corruption without --audit: nobody is checking the books,
    // the run exits clean. This is exactly why CI turns the audit on.
    EXPECT_EQ(runCli("--workload=jit_rewriter --no-audit "
                     "--fault=acct_skew:1024"),
              0);
}

TEST(CliExitCodes, AuditPassesCleanRuns)
{
    EXPECT_EQ(runCli("--workload=jit_rewriter --audit"), 0);
    EXPECT_EQ(runCli("--workload=jit_rewriter --audit --threads=2 "
                     "--deterministic"),
              0);
}

TEST(CliExitCodes, AuditPeriodSetsTheInRunAuditRate)
{
    // A shorter --audit-period runs more in-run closure audits, and
    // every one of them still passes.
    std::string dflt, dense;
    EXPECT_EQ(runCli("--workload=jit_rewriter --audit", &dflt), 0);
    EXPECT_EQ(runCli("--workload=jit_rewriter --audit "
                     "--audit-period=20000",
                     &dense),
              0);
    EXPECT_GT(auditChecks(dflt), 0u);
    EXPECT_GT(auditChecks(dense), auditChecks(dflt));
}

// ----- postmortem bundles on abnormal exit ------------------------------

TEST(CliPostmortem, CleanRunWritesNoBundle)
{
    std::string path = tmpBundlePath("clean");
    std::remove(path.c_str());
    EXPECT_EQ(runCli("--workload=jit_rewriter --postmortem-out=" + path),
              0);
    std::ifstream in(path);
    EXPECT_FALSE(in.good())
        << "a clean, uninjected run must not write a postmortem";
}

TEST(CliPostmortem, DumpOnExitForcesABundle)
{
    using el::json::Value;
    Value root;
    std::string path = tmpBundlePath("forced");
    int code = runCliWithBundle(
        "--workload=jit_rewriter --dump-on-exit", path, &root);
    EXPECT_EQ(code, 0);
    expectBundleSchema(root, "ok", 0);
    // A healthy run still carries the full observability payload.
    const Value *fl = root.find("flight");
    ASSERT_NE(fl, nullptr);
    const Value *events = fl->find("events");
    ASSERT_NE(events, nullptr);
    EXPECT_TRUE(events->isArray());
    EXPECT_FALSE(events->arr.empty());
}

TEST(CliPostmortem, FlightRingCapsTheTail)
{
    // --flight-ring=8 keeps the last 8 events per host thread: the
    // bundle records that capacity and no lane carries more.
    using el::json::Value;
    Value root;
    std::string path = tmpBundlePath("ring8");
    int code = runCliWithBundle(
        "--workload=jit_rewriter --dump-on-exit --flight-ring=8", path,
        &root);
    EXPECT_EQ(code, 0);
    const Value *fl = root.find("flight");
    ASSERT_NE(fl, nullptr);
    EXPECT_EQ(fl->numberOr("ring_capacity", 0), 8.0);
    EXPECT_GT(fl->numberOr("dropped", 0), 0.0);
    const Value *events = fl->find("events");
    ASSERT_NE(events, nullptr);
    std::map<double, unsigned> per_lane;
    for (const Value &e : events->arr)
        ++per_lane[e.numberOr("lane", -1)];
    ASSERT_FALSE(per_lane.empty());
    for (const auto &[lane, n] : per_lane)
        EXPECT_LE(n, 8u) << "lane " << lane;
}

TEST(CliPostmortem, GuestFaultBundleNamesTheFault)
{
    using el::json::Value;
    Value root;
    std::string path = tmpBundlePath("guest_fault");
    int code =
        runCliWithBundle("--workload=faulter", path, &root);
    EXPECT_EQ(code, 10);
    expectBundleSchema(root, "guest_fault", 10);
    // The flight tail must contain the delivered fault event, and the
    // ledger must have a provenance chain for the code that ran.
    const Value *events = root.find("flight")
                              ? root.find("flight")->find("events")
                              : nullptr;
    ASSERT_NE(events, nullptr);
    bool fault_event = false;
    for (const Value &e : events->arr) {
        if (e.strOr("kind", "") != "guest_fault")
            continue;
        fault_event = true;
        // a = the faulting eip (the faulter's load, after its 5-byte
        // mov at the code base), b = the fault kind.
        EXPECT_EQ(e.numberOr("a", 0), 0x08048005);
        EXPECT_EQ(e.numberOr("b", 0),
                  static_cast<double>(el::ia32::FaultKind::PageFault));
    }
    EXPECT_TRUE(fault_event) << "no guest_fault flight event in bundle";
    const Value *prov = root.find("provenance");
    ASSERT_NE(prov, nullptr);
    EXPECT_TRUE(prov->isArray());
    EXPECT_FALSE(prov->arr.empty())
        << "faulting run must carry provenance for its blocks";
}

TEST(CliPostmortem, InternalErrorBundleRecordsInitFailure)
{
    using el::json::Value;
    Value root;
    std::string path = tmpBundlePath("internal");
    int code = runCliWithBundle(
        "--workload=jit_rewriter --fault=btos_alloc:1024", path, &root);
    EXPECT_EQ(code, 20);
    expectBundleSchema(root, "internal", 20);
    // The runtime never initialized: the bundle must say why, and must
    // name the injected site that killed it.
    const Value *exit = root.find("exit");
    ASSERT_NE(exit, nullptr);
    EXPECT_NE(exit->strOr("init_error", ""), "");
    const Value *fi = root.find("fault_injection");
    ASSERT_NE(fi, nullptr);
    bool named = false;
    const Value *sites = fi->find("sites");
    ASSERT_NE(sites, nullptr);
    for (const Value &s : sites->arr)
        if (s.strOr("site", "") == "btos_alloc" &&
            s.numberOr("fires", 0) > 0)
            named = true;
    EXPECT_TRUE(named) << "bundle does not name the btos_alloc site";
}

TEST(CliPostmortem, AuditViolationBundleIsClassAudit)
{
    using el::json::Value;
    Value root;
    std::string path = tmpBundlePath("audit");
    int code = runCliWithBundle(
        "--workload=jit_rewriter --audit --fault=acct_skew:1024", path,
        &root);
    EXPECT_EQ(code, 40);
    expectBundleSchema(root, "audit", 40);
    // The stamp satellite: every bundle names its producer so readers
    // (el_prof --provenance, el_diff) can refuse mismatched inputs.
    const Value *producer = root.find("producer");
    ASSERT_NE(producer, nullptr);
    EXPECT_EQ(producer->strOr("tool", ""), "el_run");
    EXPECT_NE(producer->strOr("build", ""), "");
    EXPECT_EQ(producer->numberOr("schema", 0), 1.0);
}

TEST(CliPostmortem, DivergenceBundleCarriesTheSentinelLedger)
{
    using el::json::Value;
    Value root;
    std::string path = tmpBundlePath("divergence");
    int seed = consequentialMiscompileSeed();
    ASSERT_NE(seed, 0) << "no seed in 1..8 changes the guest state";
    int code = runCliWithBundle(
        "--workload=jit_rewriter --fault=miscompile:128 "
        "--fault-seed=" + std::to_string(seed) + " --selfcheck=1",
        path, &root);
    EXPECT_EQ(code, 30);
    expectBundleSchema(root, "divergence", 30);
    const Value *sent = root.find("sentinel");
    ASSERT_NE(sent, nullptr);
    EXPECT_GE(sent->numberOr("total_divergences", 0), 1.0);
    const Value *divs = sent->find("divergences");
    ASSERT_NE(divs, nullptr);
    EXPECT_FALSE(divs->arr.empty());
    // The convicted translation's provenance chain is in the bundle.
    const Value *prov = root.find("provenance");
    ASSERT_NE(prov, nullptr);
    EXPECT_FALSE(prov->arr.empty());
}

} // namespace
