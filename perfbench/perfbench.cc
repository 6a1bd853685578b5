/**
 * @file
 * The repository benchmark: one workload, one seed, one process.
 *
 *   el_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *                --work-dir <dir> [--spans-out <file>]
 *
 * (With --rss-guest <i> it only sets up and runs guest i once: the child
 * process whose peak memory becomes peak_rss_mb.)
 *
 * Workloads (each a fixed set of guest programs whose WorkloadParams are
 * drawn from the seed around the suite values of guest/workloads.cc):
 *
 *  - steady_hot:   stream, pointer_chase, matrix, parser and branchy
 *                  (indirect calls). Nearly all simulated cycles are in
 *                  hot code and most host time is the IPF machine loop.
 *  - cold_bigcode: bigcode (gcc, vortex) and an office app. Flat
 *                  profiles: cold code + BTGeneric dominate, and code
 *                  cache publication is a host-time hotspot.
 *  - smc_churn:    sigstorm (both ABIs), jit_rewriter, threaded_smc:
 *                  self-modifying code and dense faults. A small parser
 *                  guest rides along as the workload's native-kernel
 *                  control, so its Fig. 5 score is defined.
 *  - warm_bigcode: the cold_bigcode guests rerun against an artifact
 *                  store recorded (untimed) before measurement.
 *
 * Each guest's reference result (exit code, console, final
 * architectural state, retired IA-32 instructions) comes once from the
 * reference interpreter, outside every timed region. Then guests run in
 * rounds until --seconds have passed; every translated run is checked
 * against its reference and against the first round's simulated
 * counters, which must repeat bit-exactly.
 *
 * --trace 0 prints the end-to-end metrics; --trace 1 prints the
 * per-layer metrics, derived from spans the benchmark records around
 * each public call it makes, from the runtime's counters, and from
 * replays of cold translation, hot sessions and publication. Nothing
 * inside src/ is instrumented. setup_s and guest_mips are process CPU
 * time, spans are steady_clock; simulated cycles come from an IPF
 * machine model that has not been validated against hardware.
 *
 * The last stdout line is the result object. An earlier line, prefixed
 * "deterministic ", holds every simulated quantity so the wrapper
 * (run.py) can compare runs of one seed across processes.
 */

#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/report.hh"
#include "core/runtime.hh"
#include "guest/workloads.hh"
#include "harness/exec.hh"
#include "harness/native.hh"
#include "ia32/decoder.hh"
#include "persist/store.hh"
#include "support/json.hh"
#include "support/random.hh"
#include "support/strfmt.hh"

extern char **environ;

using namespace el;

namespace
{

// ----- clocks -------------------------------------------------------------

double
cpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

using SteadyClock = std::chrono::steady_clock;
const SteadyClock::time_point process_start = SteadyClock::now();

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               SteadyClock::now() - process_start)
        .count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ----- spans --------------------------------------------------------------

/** One timed call into a layer; parent is an index into the span log. */
struct Span
{
    const char *name;
    int32_t parent;
    int32_t guest;
    int64_t start_ns;
    int64_t end_ns = -1;
};

/**
 * In-memory span log. Disabled, open/close cost one branch, so traced
 * and untraced rounds run the same code.
 */
class SpanLog
{
  public:
    bool enabled = false;

    int32_t
    open(const char *name, int32_t guest)
    {
        if (!enabled)
            return -1;
        int32_t parent = stack_.empty() ? -1 : stack_.back();
        spans_.push_back(Span{name, parent, guest, nowNs()});
        stack_.push_back(static_cast<int32_t>(spans_.size() - 1));
        return stack_.back();
    }

    void
    close(int32_t id)
    {
        if (id < 0)
            return;
        spans_[id].end_ns = nowNs();
        stack_.pop_back();
    }

    const std::vector<Span> &spans() const { return spans_; }

    /** Total and self nanoseconds per span name. */
    std::map<std::string, std::pair<double, double>>
    totals() const
    {
        std::vector<double> child(spans_.size(), 0.0);
        for (const Span &s : spans_)
            if (s.parent >= 0)
                child[s.parent] += static_cast<double>(s.end_ns - s.start_ns);
        std::map<std::string, std::pair<double, double>> out;
        for (size_t i = 0; i < spans_.size(); ++i) {
            double dur =
                static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
            auto &t = out[spans_[i].name];
            t.first += dur;
            t.second += dur - child[i];
        }
        return out;
    }

  private:
    std::vector<Span> spans_;
    std::vector<int32_t> stack_;
};

SpanLog spans;

/** RAII span over one public call. */
class Scope
{
  public:
    Scope(const char *name, int32_t guest = -1)
        : id_(spans.open(name, guest))
    {
    }
    ~Scope() { spans.close(id_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    int32_t id_;
};

// ----- workloads ----------------------------------------------------------

using Builder = guest::Workload (*)(const std::string &,
                                    guest::WorkloadParams);

/** Figure 5's published IA-32 EL score (% of native) per benchmark. */
const std::map<std::string, double> fig5_paper = {
    {"gzip", 86},   {"vpr", 69},    {"gcc", 51},   {"mcf", 104},
    {"crafty", 39}, {"parser", 81}, {"eon", 41},   {"perlbmk", 64},
    {"gap", 62},    {"vortex", 60}, {"bzip2", 74}, {"twolf", 76},
};

struct GuestSpec
{
    std::string name;
    Builder build;
    guest::WorkloadParams params;

    /** Figure 5 stand-ins have a native kernel and a paper score. */
    bool fig5() const { return fig5_paper.count(name) != 0; }
};

/** Relative half-width of a seeded working-set size. */
constexpr double size_jitter = 0.02;

/**
 * Relative half-width of a seeded run length. Narrower: a guest's
 * translation cost is fixed, so its share of the cycles moves with the
 * run length.
 */
constexpr double run_jitter = 0.01;

/**
 * Sizes are drawn on an 8-element grid: every suite size is a multiple
 * of 8, and the native kernels lay out 8-byte tables right after the
 * guest-sized buffer, so an unaligned size would charge the native
 * baseline misalignment penalties the suite never sees.
 */
constexpr uint32_t size_grid = 8;

uint32_t
around(Rng &rng, double base, double jitter, uint32_t grid)
{
    double f = 1.0 + jitter * (2.0 * rng.uniform() - 1.0);
    double units = std::max(1.0, std::round(base * f / grid));
    return static_cast<uint32_t>(units) * grid;
}

uint32_t
drawSize(Rng &rng, double size)
{
    return around(rng, size, size_jitter, size_grid);
}

uint32_t
drawRun(Rng &rng, double outer)
{
    return around(rng, outer, run_jitter, 1);
}

guest::WorkloadParams
params(uint32_t outer, uint32_t size,
       btlib::OsAbi abi = btlib::OsAbi::Linux)
{
    guest::WorkloadParams p;
    p.outer_iters = outer;
    p.size = size;
    p.abi = abi;
    return p;
}

/**
 * The guests of @p workload for @p seed, scaled from the suites of
 * guest/workloads.cc (the factor is noted per workload). A seed draws
 * working-set sizes, or run lengths where the size must stay fixed, so
 * it changes how much work a guest does without changing what the
 * workload stresses. Returns false for an unknown workload name.
 */
bool
drawGuests(const std::string &workload, uint64_t seed,
           std::vector<GuestSpec> *out)
{
    using btlib::OsAbi;
    bool bigcode = workload == "cold_bigcode" || workload == "warm_bigcode";
    // warm_bigcode reruns exactly cold_bigcode's draw.
    uint64_t stream = bigcode ? 2 : workload == "steady_hot" ? 1 : 3;
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + stream);
    if (workload == "steady_hot") {
        // Suite run lengths / 8 (mcf / 5). mcf and vpr keep the suite's
        // sizes: their native kernels' cache behaviour jumps with size
        // (mcf's native cycles span 4.7-8.1 M over a 3% size change), so
        // a size draw would change what they measure, not how much.
        // mcf's 1.25 MB list stays larger than the modeled L2.
        GuestSpec crafty{"crafty", guest::buildBranchy,
                         params(5, drawSize(rng, 9000))};
        crafty.params.indirect_every = 1;
        *out = {
            {"gzip", guest::buildStream, params(8, drawSize(rng, 24000))},
            {"mcf", guest::buildPointerChase, params(2, 160000)},
            {"vpr", guest::buildMatrix, params(7, 12000)},
            {"parser", guest::buildParser, params(8, drawSize(rng, 20000))},
            crafty,
        };
    } else if (bigcode) {
        // Suite run lengths / 5, drawn. The code footprint stays at the
        // suite's 240-300 copies: the code cache, and with it peak
        // memory, grows in steps as copies are added.
        GuestSpec word{"wordproc", guest::buildOfficeApp,
                       params(drawRun(rng, 800), 0, OsAbi::Windows)};
        word.params.code_copies = 300;
        word.params.kernel_work_units = 1;
        word.params.yields = 1;
        GuestSpec gcc{"gcc", guest::buildBigCode,
                      params(drawRun(rng, 720), 0)};
        gcc.params.code_copies = 300;
        GuestSpec vortex{"vortex", guest::buildBigCode,
                         params(drawRun(rng, 840), 0)};
        vortex.params.code_copies = 240;
        *out = {gcc, vortex, word};
    } else if (workload == "smc_churn") {
        // At suite run lengths these guests take 0.1-0.7 s; outer
        // iterations are scaled up (x5 sigstorm, x1.5 jit_rewriter and
        // threaded_smc) so SMC and fault handling dominate the round.
        // perlbmk (suite run length / 8) is the native-kernel control.
        *out = {
            {"sigstorm", guest::buildSignalStorm,
             params(150, drawSize(rng, 256))},
            {"sigstorm_win", guest::buildSignalStorm,
             params(150, drawSize(rng, 256), OsAbi::Windows)},
            {"jit_rewriter", guest::buildJitRewriter,
             params(36, drawSize(rng, 300))},
            {"threaded_smc", guest::buildThreadedSmc,
             params(60, drawSize(rng, 200))},
            {"perlbmk", guest::buildParser, params(5, drawSize(rng, 16000))},
        };
    } else {
        return false;
    }
    return true;
}

// ----- per-run bookkeeping --------------------------------------------------

/** The interpreter's verdict on one guest. */
struct Reference
{
    int32_t exit_code = 0;
    std::string console;
    ia32::State state;
    uint64_t insns = 0;
};

/** Simulated quantities of one run; every value must repeat exactly. */
using Counts = std::map<std::string, double>;

void
addCounts(Counts *into, const Counts &c)
{
    for (const auto &[k, v] : c)
        (*into)[k] += v;
}

Counts
countsOf(core::Runtime &rt, const persist::ArtifactStore *store)
{
    Counts c;
    const StatGroup &st = rt.stats();
    const StatGroup &xl = rt.translator().stats;
    ipf::Machine &m = rt.machine();
    core::Attribution a = core::attributionOf(rt);
    auto stat = [&](const char *name) {
        return static_cast<double>(st.get(name) + xl.get(name));
    };

    c["sim_cycles"] = m.totalCycles();
    c["cycles.cold_code"] = a.cold_code;
    c["cycles.hot_code"] = a.hot_code;
    c["cycles.btgeneric"] = a.btgeneric;
    c["cycles.fault_handling"] = a.fault_handling;
    c["cycles.native"] = a.native;
    c["cycles.idle"] = a.idle;
    c["ipf.insns"] = static_cast<double>(m.retired());
    c["ipf.code_cache_high_water"] =
        static_cast<double>(rt.codeCache().highWater());
    const auto &levels = m.dcache().stats();
    for (size_t i = 0; i < levels.size() && i < 2; ++i) {
        std::string lvl = i == 0 ? "mem.l1d" : "mem.l2";
        c[lvl + ".accesses"] = static_cast<double>(levels[i].accesses);
        c[lvl + ".misses"] = static_cast<double>(levels[i].misses);
    }

    c["ia32.interp_steps"] = stat("recover.interp_steps");
    c["core.cold_blocks"] = stat("xlate.cold_blocks");
    c["core.cold_insns"] = stat("xlate.cold_insns");
    c["core.hot_sessions"] = stat("hot.sessions");
    c["core.hot_blocks"] = stat("xlate.hot_blocks");
    c["core.hot_insns"] = stat("xlate.hot_insns");
    c["core.hot_ipf_insns"] = stat("xlate.hot_ipf_insns");
    c["core.sched_groups"] = stat("sched.groups");
    c["core.hot_stall_cycles"] = stat("hot.stall_cycles");
    for (const char *e : {"link_miss", "indirect_miss", "register_hot",
                          "smc", "syscall", "guest_fault"})
        c[std::string("core.exits.") + e] =
            stat((std::string("exits.") + e).c_str());
    c["core.links_patched"] = stat("links.patched");
    c["core.dispatch_lookups"] = static_cast<double>(rt.dispatchLookups());
    c["core.faults_delivered"] = stat("faults.delivered");
    c["core.smc_invalidations"] = stat("smc.invalidations");
    c["core.cache_flushes"] = stat("recover.cache_flush");

    c["persist.adopted_blocks"] = stat("persist.adopted_blocks");
    c["persist.adopted_insns"] = stat("persist.adopted_insns");
    if (store) {
        const StatGroup &ps = store->stats;
        c["persist.hits"] = static_cast<double>(ps.get("persist.hits"));
        c["persist.records_loaded"] =
            static_cast<double>(ps.get("persist.records_loaded"));
        double rejected = 0;
        for (const char *r : {"header", "fingerprint", "magic", "truncated",
                              "crc", "invalid"})
            rejected += static_cast<double>(
                ps.get(std::string("persist.rejected_") + r));
        c["persist.rejected"] = rejected + stat("persist.smc_rejected");
    }

    if (const flight::FlightRecorder *fr = rt.flight()) {
        c["support.flight_dropped"] = static_cast<double>(fr->dropped());
        c["support.flight_events"] =
            static_cast<double>(fr->snapshot().size()) +
            c["support.flight_dropped"];
    }
    return c;
}

/** A guest prepared for measurement. */
struct Guest
{
    GuestSpec spec;
    Reference ref;
    double native_cycles = 0; //!< Fig. 5 guests only.
    persist::Fingerprint fp;
    std::string store_dir;    //!< warm_bigcode only.
};

/** The objects Runtime::run needs, built by the timed set-up. */
struct Setup
{
    guest::Workload workload;
    std::unique_ptr<mem::Memory> memory;
    std::unique_ptr<btlib::SimOsBase> os;
    std::unique_ptr<persist::ArtifactStore> store;
    std::unique_ptr<core::Runtime> runtime;
    ia32::State state;
};

/**
 * The public calls before Runtime::run, as harness::runTranslated makes
 * them: build the image, load it, construct the OS personality and the
 * runtime (the BTOS handshake), and on a warm workload load the store.
 */
bool
setUp(const Guest &g, int32_t gi, core::Options options, bool warm,
      Setup *s, double *load_s)
{
    {
        Scope sp("guest.build", gi);
        s->workload = g.spec.build(g.spec.name, g.spec.params);
    }
    if (warm) {
        Scope sp("persist.load", gi);
        double t0 = cpuSeconds();
        s->store = std::make_unique<persist::ArtifactStore>(g.fp);
        s->store->load(g.store_dir);
        if (load_s)
            *load_s += cpuSeconds() - t0;
        options.persist = s->store.get();
    }
    Scope sp("harness.runtime_init", gi);
    s->memory = std::make_unique<mem::Memory>();
    uint32_t esp = guest::load(s->workload.image, *s->memory);
    s->memory->clearDirty();
    s->os = harness::makeOs(g.spec.params.abi, *s->memory);
    s->runtime = std::make_unique<core::Runtime>(*s->memory,
                                                 s->os->vtable(), options);
    if (!s->runtime->initOk())
        return false;
    s->os->setCycleSink([rt = s->runtime.get()](ipf::Bucket b, double c) {
        rt->machine().chargeCycles(b, c);
    });
    s->state = ia32::State{};
    s->state.eip = s->workload.image.entry;
    s->state.gpr[ia32::RegEsp] = esp;
    return true;
}

/** Why a translated run disagrees with its reference ("" = it agrees). */
std::string
mismatch(const core::RunResult &rr, const Setup &s, const Reference &ref)
{
    switch (rr.kind) {
      case core::RunResult::Kind::Exit:
        break;
      case core::RunResult::Kind::Fault:
        return "unhandled guest fault";
      case core::RunResult::Kind::CycleLimit:
        return "CycleLimit";
      case core::RunResult::Kind::InitError:
        return "InitError";
    }
    if (rr.exit_code != ref.exit_code)
        return "exit code " + std::to_string(rr.exit_code) + " != " +
               std::to_string(ref.exit_code);
    if (s.os->consoleOutput() != ref.console)
        return "console output differs";
    std::string why;
    if (!s.state.equalsArch(ref.state, &why))
        return "final state differs: " + why;
    return "";
}

// ----- replays (traced runs only) --------------------------------------------

struct Replay
{
    double decode_ns = 0, decoded = 0;
    double cold_ns = 0, cold_blocks = 0, cold_ipf = 0, cold_ia32 = 0;
    double hot_ns = 0, hot_sessions = 0;
    double publish_ns = 0, published = 0;
};

/**
 * Time ia32::decode over every instruction of every cold block the run
 * translated, then translateCold on a fresh runtime over the same image
 * (its code expansion too), then prepareHotInput + runHotSession and
 * commitHotArtifact for every hot trace, against the finished runtime
 * whose profile counters chose them.
 */
void
replay(const Guest &g, int32_t gi, core::Options options, Setup &done,
       Replay *r)
{
    std::vector<const core::BlockInfo *> cold, hot;
    for (const auto &b : done.runtime->translator().allBlocks()) {
        if (b->kind == core::BlockKind::Cold)
            cold.push_back(b.get());
        else if (!b->loaded_from_store)
            hot.push_back(b.get());
    }

    // The fresh runtime's set-up is not a measured set-up: keep it out
    // of the guest.build / harness.runtime_init spans.
    Setup fresh;
    bool was_enabled = spans.enabled;
    spans.enabled = false;
    bool ok = setUp(g, gi, options, false, &fresh, nullptr);
    spans.enabled = was_enabled;
    if (!ok)
        return;

    // Decoding a small guest's blocks once takes microseconds; repeat
    // the pass so the per-instruction time is not one cold-cache sample.
    constexpr int decode_passes = 10;
    for (int pass = 0; pass < decode_passes; ++pass) {
        Scope sp("ia32.decode", gi);
        int64_t t0 = nowNs();
        for (const core::BlockInfo *b : cold) {
            uint32_t eip = b->entry_eip;
            for (uint32_t k = 0; k < b->insn_count; ++k) {
                ia32::Insn insn;
                if (!ia32::decode(*fresh.memory, eip, &insn) || insn.len == 0)
                    break;
                eip += insn.len;
                r->decoded += 1;
            }
        }
        r->decode_ns += static_cast<double>(nowNs() - t0);
    }

    core::Translator &tr = fresh.runtime->translator();
    ipf::CodeCache &cache = fresh.runtime->codeCache();
    for (const core::BlockInfo *b : cold) {
        size_t before = cache.size();
        int64_t t0 = nowNs();
        core::BlockInfo *nb;
        {
            Scope sp("core.translate_cold", gi);
            nb = tr.translateCold(b->entry_eip, core::SpecContext{},
                                  b->misalign_stage);
        }
        r->cold_ns += static_cast<double>(nowNs() - t0);
        if (!nb)
            continue;
        r->cold_blocks += 1;
        r->cold_ia32 += nb->insn_count;
        r->cold_ipf += static_cast<double>(cache.size() - before);
    }

    core::Translator &live = done.runtime->translator();
    for (const core::BlockInfo *b : hot) {
        core::HotSessionInput in;
        core::HotArtifact art;
        int64_t t0 = nowNs();
        {
            Scope sp("core.hot_session", gi);
            if (!live.prepareHotInput(b->entry_eip, core::SpecContext{}, &in))
                continue;
            art.generation = done.runtime->codeCache().generation();
            core::Translator::runHotSession(in, live.options, nullptr, &art);
        }
        int64_t t1 = nowNs();
        r->hot_ns += static_cast<double>(t1 - t0);
        r->hot_sessions += 1;
        if (!art.ok)
            continue;
        {
            Scope sp("ipf.publish", gi);
            live.commitHotArtifact(art);
        }
        r->publish_ns += static_cast<double>(nowNs() - t1);
        r->published += 1;
    }
}

// ----- output --------------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

std::string
resultJson(bool correct, uint64_t attempted, uint64_t failed,
           const std::vector<Metric> &metrics)
{
    json::Writer w;
    w.beginObject();
    w.kv("correct", correct);
    w.kv("attempted", attempted);
    w.kv("failed", failed);
    w.key("metrics");
    w.beginObject();
    for (const Metric &m : metrics) {
        w.key(m.name);
        w.beginObject();
        w.kv("value", std::isfinite(m.value) ? m.value : 0.0);
        w.kv("unit", m.unit);
        w.endObject();
    }
    w.endObject();
    w.endObject();
    return w.str();
}

void
writeSpans(const std::string &path, const std::vector<Guest> &guests)
{
    json::Writer w;
    w.beginObject();
    w.key("spans");
    w.beginArray();
    for (const Span &s : spans.spans()) {
        w.beginObject();
        w.kv("name", s.name);
        w.kv("parent", static_cast<int64_t>(s.parent));
        w.kv("guest", s.guest >= 0 ? guests[s.guest].spec.name
                                   : std::string());
        w.kv("start_ns", s.start_ns);
        w.kv("end_ns", s.end_ns);
        w.endObject();
    }
    w.endArray();
    w.key("totals");
    w.beginObject();
    for (const auto &[name, t] : spans.totals()) {
        w.key(name);
        w.beginObject();
        w.kv("total_ms", t.first * 1e-6);
        w.kv("self_ms", t.second * 1e-6);
        w.endObject();
    }
    w.endObject();
    w.endObject();
    std::ofstream f(path);
    f << w.str() << "\n";
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: el_perfbench --workload <steady_hot|cold_bigcode|"
                 "smc_churn|warm_bigcode> --seed <n> --seconds <s> "
                 "--trace <0|1> --work-dir <dir> [--spans-out <file>]\n");
    return 2;
}

struct Args
{
    std::string workload, work_dir, spans_out;
    uint64_t seed = 0;
    double seconds = 0;
    int trace = -1;
    size_t rss_guest = SIZE_MAX; //!< Set in a peak-memory child only.
};

/** Where warm_bigcode keeps the artifact store of @p spec. */
std::string
storeDir(const Args &args, const GuestSpec &spec)
{
    return args.work_dir + "/store-" + spec.name;
}

bool
parseArgs(int argc, char **argv, Args *a)
{
    if (argc % 2 == 0)
        return false;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string k = argv[i], v = argv[i + 1];
        if (k == "--workload")
            a->workload = v;
        else if (k == "--seed")
            a->seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (k == "--seconds")
            a->seconds = std::atof(v.c_str());
        else if (k == "--trace")
            a->trace = std::atoi(v.c_str());
        else if (k == "--work-dir")
            a->work_dir = v;
        else if (k == "--spans-out")
            a->spans_out = v;
        else if (k == "--rss-guest")
            a->rss_guest = std::strtoull(v.c_str(), nullptr, 10);
        else
            return false;
    }
    return !a->workload.empty() && !a->work_dir.empty() && a->seconds > 0 &&
           (a->trace == 0 || a->trace == 1);
}

/**
 * The untimed prelude: each guest's reference result, the native cycles
 * of the Figure 5 stand-ins (their host rate into @p native_rates), and
 * on warm_bigcode the artifact store its runs will load. False when a
 * guest cannot serve (its reference run did not exit, or recording
 * failed).
 */
bool
prepare(const Args &args, const std::vector<GuestSpec> &specs, bool warm,
        const core::Options &options, std::vector<Guest> *guests,
        std::vector<double> *native_rates)
{
    for (const GuestSpec &spec : specs) {
        Guest g;
        g.spec = spec;
        guest::Workload w = spec.build(spec.name, spec.params);
        harness::Outcome ref = harness::runInterpreter(w.image,
                                                       spec.params.abi);
        if (!ref.exited) {
            std::fprintf(stderr, "el_perfbench: reference run of %s did "
                         "not exit cleanly\n", spec.name.c_str());
            return false;
        }
        g.ref = {ref.exit_code, ref.console, ref.final_state,
                 ref.guest_insns};
        g.fp = persist::fingerprintOf(w.image, options);
        if (warm) {
            g.store_dir = storeDir(args, spec);
            persist::ArtifactStore store(g.fp);
            core::Options o = options;
            o.persist = &store;
            harness::TranslatedRun rec =
                harness::runTranslated(w.image, spec.params.abi, o);
            if (!rec.outcome.exited ||
                rec.outcome.exit_code != g.ref.exit_code ||
                !store.save(g.store_dir)) {
                std::fprintf(stderr, "el_perfbench: recording the store "
                             "for %s failed\n", spec.name.c_str());
                return false;
            }
        }
        if (g.spec.fig5()) {
            spans.enabled = args.trace == 1;
            int64_t t0 = nowNs();
            {
                Scope sp("harness.native_cycles",
                         static_cast<int32_t>(guests->size()));
                g.native_cycles = harness::nativeCycles(w);
            }
            native_rates->push_back(g.native_cycles * 1e3 /
                                    static_cast<double>(nowNs() - t0));
            spans.enabled = false;
        }
        guests->push_back(std::move(g));
    }
    std::fprintf(stderr, "el_perfbench: references ready after %.2f s\n",
                 cpuSeconds());
    return true;
}

/**
 * How one run of a guest is made. An untraced benchmark run makes only
 * plain runs; a traced one makes all three back to back per guest and
 * round, so the cost of the spans and of the flight recorder is each
 * paired against a plain run made moments apart on the same host.
 */
enum class Kind
{
    Plain,
    Traced,
    NoFlight,
};

/** What the measurement rounds observed. */
struct Measurement
{
    uint64_t attempted = 0, failed = 0;
    bool drift = false;
    // Per guest: CPU seconds of each set-up-only sample, and of the
    // store load within it (warm_bigcode).
    std::vector<std::vector<double>> setup_cpu, load_cpu;
    std::map<std::pair<size_t, bool>, Counts> first; // (guest, flight on)
    // Host contention inflates CPU time by up to ~1.8x in phases of
    // seconds; each guest's median over rounds rides through short ones.
    std::vector<std::vector<double>> guest_cpu;
    std::vector<double> trace_ratio, flight_ratio;
    size_t traced_runs = 0;
    Counts totals; // round 0's plain runs, summed over guests
    Replay replay;
};

/**
 * Set up, run and check one guest. Returns the run's CPU seconds, or a
 * negative value when set-up failed.
 */
double
runOnce(const Guest &g, size_t gi, Kind kind, size_t round, uint64_t seed,
        bool warm, const core::Options &options, Measurement *m)
{
    core::Options o = options;
    o.flight_recorder = kind != Kind::NoFlight;
    int32_t gid = static_cast<int32_t>(gi);
    spans.enabled = kind == Kind::Traced;
    Scope guest_span("guest", gid);
    Setup s;
    ++m->attempted;
    if (!setUp(g, gid, o, warm, &s, nullptr)) {
        ++m->failed;
        std::fprintf(stderr, "FAIL %s (seed %llu): InitError\n",
                     g.spec.name.c_str(),
                     static_cast<unsigned long long>(seed));
        return -1;
    }
    core::RunResult rr;
    double c0 = cpuSeconds();
    {
        Scope sp("core.run", gid);
        rr = s.runtime->run(s.state);
    }
    double cpu = cpuSeconds() - c0;
    s.runtime->quiesce();
    std::string why = mismatch(rr, s, g.ref);
    if (!why.empty()) {
        ++m->failed;
        std::fprintf(stderr, "FAIL %s (seed %llu): %s\n",
                     g.spec.name.c_str(),
                     static_cast<unsigned long long>(seed), why.c_str());
        return cpu;
    }
    Counts c = countsOf(*s.runtime, s.store.get());
    auto key = std::make_pair(gi, o.flight_recorder);
    if (!m->first.count(key)) {
        m->first[key] = c;
    } else if (m->first[key] != c) {
        m->drift = true;
        std::fprintf(stderr, "DRIFT %s (seed %llu): simulated counters "
                     "differ between runs of one process\n",
                     g.spec.name.c_str(),
                     static_cast<unsigned long long>(seed));
    }
    if (kind == Kind::Plain && round == 0)
        addCounts(&m->totals, c);
    if (kind == Kind::Traced) {
        ++m->traced_runs;
        if (round == 0)
            replay(g, gid, o, s, &m->replay);
    }
    return cpu;
}

/**
 * One set-up of guest @p gi without a run, timed in CPU seconds into
 * m->setup_cpu (and its store load into m->load_cpu).
 */
void
sampleSetUp(const std::vector<Guest> &guests, size_t gi, bool warm,
            const core::Options &options, Measurement *m)
{
    Setup s;
    double load_s = 0;
    double t0 = cpuSeconds();
    setUp(guests[gi], static_cast<int32_t>(gi), options, warm, &s, &load_s);
    m->setup_cpu[gi].push_back(cpuSeconds() - t0);
    if (warm)
        m->load_cpu[gi].push_back(load_s);
}

/**
 * Set-up-only samples of a guest after each of its runs in a round, and
 * the fewest it may have once the rounds end. A set-up takes well under
 * a millisecond (warm_bigcode's store load some fifteen), so samples are
 * cheap; spreading them over the rounds keeps a short phase of host
 * contention from covering all of them.
 */
constexpr size_t setup_batch = 10;
constexpr size_t min_setup_samples = 100;

/** Rounds for --seconds (at least two), with set-up-only samples. */
void
measure(const Args &args, const std::vector<Guest> &guests, bool warm,
        const core::Options &options, Measurement *m)
{
    std::vector<Kind> kinds = {Kind::Plain};
    if (args.trace == 1)
        kinds = {Kind::Plain, Kind::Traced, Kind::NoFlight};
    constexpr size_t min_rounds = 2;
    m->guest_cpu.resize(guests.size());
    m->setup_cpu.resize(guests.size());
    m->load_cpu.resize(guests.size());

    int64_t start_ns = nowNs();
    for (size_t round = 0;
         round < min_rounds ||
         static_cast<double>(nowNs() - start_ns) * 1e-9 < args.seconds;
         ++round) {
        double cpu_s = 0;
        std::string per_guest;
        for (size_t gi = 0; gi < guests.size(); ++gi) {
            std::map<Kind, double> cpu;
            for (Kind kind : kinds) {
                cpu[kind] = runOnce(guests[gi], gi, kind, round, args.seed,
                                    warm, options, m);
                spans.enabled = false;
            }
            for (size_t k = 0; k < setup_batch; ++k)
                sampleSetUp(guests, gi, warm, options, m);
            double plain = cpu[Kind::Plain];
            if (plain <= 0)
                continue;
            cpu_s += plain;
            per_guest += strfmt(" %s=%.3f", guests[gi].spec.name.c_str(),
                                plain);
            // Round 0 warms the host caches: checked like every round,
            // never timed.
            if (round > 0)
                m->guest_cpu[gi].push_back(plain);
            if (cpu.count(Kind::Traced) && cpu[Kind::Traced] > 0)
                m->trace_ratio.push_back(cpu[Kind::Traced] / plain);
            if (cpu.count(Kind::NoFlight) && cpu[Kind::NoFlight] > 0)
                m->flight_ratio.push_back(plain / cpu[Kind::NoFlight]);
        }
        std::fprintf(stderr, "el_perfbench: round %zu: plain runs %.3f s "
                     "(%s )\n", round, cpu_s, per_guest.c_str());
    }
    for (size_t gi = 0; gi < guests.size(); ++gi)
        while (m->setup_cpu[gi].size() < min_setup_samples)
            sampleSetUp(guests, gi, warm, options, m);
}

/**
 * Sum over guests of each guest's least sample. Host contention only
 * ever adds CPU time to a fixed piece of work, so the least of many
 * samples is its steadiest estimate; a median moved by 2-28% between
 * sets of runs made minutes apart.
 */
double
sumOfLeast(const std::vector<std::vector<double>> &per_guest)
{
    double sum = 0;
    for (const std::vector<double> &v : per_guest)
        if (!v.empty())
            sum += *std::min_element(v.begin(), v.end());
    return sum;
}

/**
 * Peak resident memory, in MB, summed over guests, of one set-up and
 * Runtime::run per guest, each in a fresh process as el_run makes it:
 * this executable re-run with --rss-guest, with the allocator's defaults
 * and none of this process's history. A child that fails counts as a
 * failed run.
 */
double
peakRssMb(const Args &args, size_t n_guests, Measurement *m)
{
    double sum_kb = 0;
    for (size_t gi = 0; gi < n_guests; ++gi) {
        std::vector<std::string> argv_s = {
            "/proc/self/exe", "--workload", args.workload,
            "--seed", std::to_string(args.seed), "--seconds", "1",
            "--trace", "0", "--work-dir", args.work_dir,
            "--rss-guest", std::to_string(gi)};
        std::vector<char *> argv;
        for (std::string &a : argv_s)
            argv.push_back(a.data());
        argv.push_back(nullptr);
        ++m->attempted;
        pid_t pid;
        int status = 0;
        rusage ru{};
        if (posix_spawn(&pid, argv[0], nullptr, nullptr, argv.data(),
                        environ) != 0 ||
            wait4(pid, &status, 0, &ru) != pid || !WIFEXITED(status) ||
            WEXITSTATUS(status) != 0) {
            ++m->failed;
            std::fprintf(stderr, "FAIL guest %zu (seed %llu): peak-memory "
                         "run failed\n", gi,
                         static_cast<unsigned long long>(args.seed));
            continue;
        }
        sum_kb += static_cast<double>(ru.ru_maxrss);
    }
    return sum_kb / 1024.0;
}

/**
 * The body of a --rss-guest child: set up guest @p gi and run it once.
 * Exits 0 when the run ends in a clean guest exit.
 */
int
rssGuest(const Args &args, const std::vector<GuestSpec> &specs, bool warm,
         const core::Options &options)
{
    if (args.rss_guest >= specs.size())
        return 2;
    Guest g;
    g.spec = specs[args.rss_guest];
    if (warm) {
        g.fp = persist::fingerprintOf(
            g.spec.build(g.spec.name, g.spec.params).image, options);
        g.store_dir = storeDir(args, g.spec);
    }
    Setup s;
    if (!setUp(g, 0, options, warm, &s, nullptr))
        return 1;
    core::RunResult rr = s.runtime->run(s.state);
    return rr.kind == core::RunResult::Kind::Exit ? 0 : 1;
}

/**
 * Print each guest's cycles beside its Figure 5 score and the paper's,
 * then every simulated quantity on the "deterministic" line. Returns the
 * workload's native_pct.
 */
double
printSimulated(const Args &args, const std::vector<Guest> &guests,
               const Measurement &m)
{
    std::vector<double> ours, theirs;
    std::printf("workload %s seed %llu: %zu guests, %llu runs\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), guests.size(),
                static_cast<unsigned long long>(m.attempted));
    std::printf("  %-14s %12s %12s %10s %10s\n", "guest", "EL cycles",
                "native cyc", "ours", "paper");
    for (size_t gi = 0; gi < guests.size(); ++gi) {
        const Guest &g = guests[gi];
        auto it = m.first.find({gi, true});
        double el = it == m.first.end() ? 0 : it->second.at("sim_cycles");
        if (g.spec.fig5() && el > 0) {
            double pct = g.native_cycles / el * 100.0;
            ours.push_back(pct);
            theirs.push_back(fig5_paper.at(g.spec.name));
            std::printf("  %-14s %12.0f %12.0f %9.1f%% %9.0f%%\n",
                        g.spec.name.c_str(), el, g.native_cycles, pct,
                        fig5_paper.at(g.spec.name));
        } else {
            std::printf("  %-14s %12.0f %12s %10s %10s\n",
                        g.spec.name.c_str(), el, "-", "-", "-");
        }
    }
    double native_pct = geomean(ours);
    std::printf("  geomean native_pct %.1f%% vs paper %.1f%% on these "
                "guests (full suite: 31.7%% ours vs 64.8%% paper)\n",
                native_pct, geomean(theirs));
    std::printf("  note: cycles come from a simulated IPF machine that "
                "has not been validated against hardware\n");

    json::Writer w;
    w.beginObject();
    w.kv("native_pct", native_pct);
    for (const auto &[k, v] : m.totals)
        w.kv(k, v);
    if (args.trace == 1) {
        w.kv("replay.cold_blocks", m.replay.cold_blocks);
        w.kv("replay.cold_ipf", m.replay.cold_ipf);
        w.kv("replay.cold_ia32", m.replay.cold_ia32);
        w.kv("replay.decoded", m.replay.decoded);
    }
    w.endObject();
    std::printf("deterministic %s\n", w.str().c_str());
    return native_pct;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/** The per-layer metrics of a traced run (BENCHMARK.json per_layer). */
std::vector<Metric>
perLayer(const Measurement &m, size_t n_guests,
         const std::vector<double> &native_rates)
{
    auto get = [&](const std::string &k) {
        auto it = m.totals.find(k);
        return it == m.totals.end() ? 0.0 : it->second;
    };
    auto pct = [&](const char *num, const char *den) {
        return 100.0 * ratio(get(num), get(den));
    };
    auto span_totals = spans.totals();
    // Mean per round of a span's total (or self) time, in seconds.
    double rounds = static_cast<double>(m.traced_runs) /
                    static_cast<double>(n_guests);
    auto span_s = [&](const char *name, bool self) {
        auto it = span_totals.find(name);
        if (it == span_totals.end())
            return 0.0;
        return ratio(self ? it->second.second : it->second.first, rounds) *
               1e-9;
    };
    const Replay &r = m.replay;
    std::vector<Metric> out = {
        {"guest.build_s", span_s("guest.build", false), "s"},
        {"harness.runtime_init_s", span_s("harness.runtime_init", true),
         "s"},
        {"core.run_s", span_s("core.run", false), "s"},
        {"ia32.decode_ns_per_insn", ratio(r.decode_ns, r.decoded), "ns"},
        {"ia32.interp_steps", get("ia32.interp_steps"), "count"},
        {"core.cold_blocks", get("core.cold_blocks"), "count"},
        {"core.cold_insns", get("core.cold_insns"), "count"},
        {"core.cold_us_per_block", ratio(r.cold_ns * 1e-3, r.cold_blocks),
         "us"},
        {"core.cold_ipf_per_ia32", ratio(r.cold_ipf, r.cold_ia32), "ratio"},
        {"core.hot_sessions", get("core.hot_sessions"), "count"},
        {"core.hot_traces", get("core.hot_blocks"), "count"},
        {"core.hot_us_per_session", ratio(r.hot_ns * 1e-3, r.hot_sessions),
         "us"},
        {"core.hot_ipf_per_ia32",
         ratio(get("core.hot_ipf_insns"), get("core.hot_insns")), "ratio"},
        {"core.sched_groups", get("core.sched_groups"), "count"},
        {"core.hot_stall_cycles", get("core.hot_stall_cycles"), "cycles"},
        {"core.links_patched", get("core.links_patched"), "count"},
        {"core.dispatch_lookups", get("core.dispatch_lookups"), "count"},
        {"core.faults_delivered", get("core.faults_delivered"), "count"},
        {"core.smc_invalidations", get("core.smc_invalidations"), "count"},
        {"core.cache_flushes", get("core.cache_flushes"), "count"},
        {"ipf.insns", get("ipf.insns"), "count"},
        {"ipf.native_mcycles_per_s", median(native_rates), "Mcycles/s"},
        {"ipf.publish_us", ratio(r.publish_ns * 1e-3, r.published), "us"},
        {"ipf.code_cache_high_water", get("ipf.code_cache_high_water"),
         "count"},
        {"mem.l1d_miss_pct", pct("mem.l1d.misses", "mem.l1d.accesses"), "%"},
        {"mem.l2_miss_pct", pct("mem.l2.misses", "mem.l2.accesses"), "%"},
        {"persist.load_s", sumOfLeast(m.load_cpu), "s"},
        {"persist.records_loaded", get("persist.records_loaded"), "count"},
        {"persist.adopted_blocks", get("persist.adopted_blocks"), "count"},
        {"persist.reuse_pct",
         100.0 * ratio(get("persist.hits"),
                       get("persist.hits") + get("core.hot_blocks")),
         "%"},
        {"persist.rejected", get("persist.rejected"), "count"},
        {"support.flight_events", get("support.flight_events"), "count"},
        {"support.flight_dropped", get("support.flight_dropped"), "count"},
        {"support.observe_cost_pct", 100.0 * (median(m.flight_ratio) - 1.0),
         "%"},
        {"support.trace_overhead_pct", 100.0 * (median(m.trace_ratio) - 1.0),
         "%"},
    };
    for (const char *b : {"cold_code", "hot_code", "btgeneric",
                          "fault_handling", "native", "idle"})
        out.push_back({std::string("ipf.cycles_pct.") + b,
                       pct((std::string("cycles.") + b).c_str(),
                           "sim_cycles"),
                       "%"});
    for (const char *e : {"link_miss", "indirect_miss", "register_hot",
                          "smc", "syscall", "guest_fault"}) {
        std::string k = std::string("core.exits.") + e;
        out.push_back({k, get(k), "count"});
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, &args))
        return usage();
    std::vector<GuestSpec> specs;
    if (!drawGuests(args.workload, args.seed, &specs)) {
        std::fprintf(stderr, "el_perfbench: unknown workload '%s'\n",
                     args.workload.c_str());
        return 2;
    }
    const bool warm = args.workload == "warm_bigcode";
    const core::Options options; // el_run's defaults.
    if (args.rss_guest != SIZE_MAX)
        return rssGuest(args, specs, warm, options);

    std::vector<Guest> guests;
    std::vector<double> native_rates;
    if (!prepare(args, specs, warm, options, &guests, &native_rates))
        return 1;
    Measurement m;
    measure(args, guests, warm, options, &m);
    double rss_mb = args.trace == 0 ? peakRssMb(args, guests.size(), &m) : 0;
    double native_pct = printSimulated(args, guests, m);

    double cpu_total = 0, insns_total = 0;
    for (size_t gi = 0; gi < guests.size(); ++gi) {
        cpu_total += median(m.guest_cpu[gi]);
        insns_total += static_cast<double>(guests[gi].ref.insns);
    }
    // Host throughput swings by up to ~1.8x with the load of other
    // tenants on a shared machine, in phases of seconds to minutes, so it
    // is reported with the per-layer metrics rather than gated end to
    // end. failed_pct is 0 whenever the run is correct; the result
    // line's failed / attempted carry it end to end.
    std::vector<Metric> ungated = {
        {"guest_mips", ratio(insns_total, cpu_total) * 1e-6, "Minsn/s"},
        {"failed_pct",
         100.0 * ratio(static_cast<double>(m.failed),
                       static_cast<double>(m.attempted)),
         "%"},
    };
    std::vector<Metric> metrics, shown;
    if (args.trace == 0) {
        metrics = {
            {"sim_cycles", m.totals["sim_cycles"], "cycles"},
            {"native_pct", native_pct, "%"},
            {"setup_s", sumOfLeast(m.setup_cpu), "s"},
            {"peak_rss_mb", rss_mb, "MB"},
        };
        shown = metrics;
        shown.insert(shown.end(), ungated.begin(), ungated.end());
    } else {
        metrics = ungated;
        std::vector<Metric> layers = perLayer(m, guests.size(), native_rates);
        metrics.insert(metrics.end(), layers.begin(), layers.end());
        shown = metrics;
        if (!args.spans_out.empty())
            writeSpans(args.spans_out, guests);
    }
    for (const Metric &x : shown)
        std::printf("  %-32s %16.6g %s\n", x.name.c_str(), x.value,
                    x.unit.c_str());
    bool correct = m.failed == 0 && !m.drift;
    std::printf("%s\n",
                resultJson(correct, m.attempted, m.failed, metrics).c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}
