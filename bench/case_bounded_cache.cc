/**
 * @file
 * Case study: cost of graceful degradation under a bounded code cache.
 *
 * The seed's unbounded cache is the happy path; production translators
 * run with a cap and a flush-and-retranslate GC. This bench sweeps the
 * capacity downward on an integer kernel and reports the slowdown, the
 * number of flush generations taken and the retranslation volume — the
 * knee of the curve shows how much cache the workload actually needs
 * before recovery overhead (the fixed per-flush cost + retranslation)
 * starts to dominate.
 */

#include "bench/bench_common.hh"

using namespace el;

namespace
{

struct Run
{
    double cycles = 0;
    uint64_t flushes = 0;
    uint64_t cold_blocks = 0;
    size_t high_water = 0;
};

Run
runWith(const guest::Workload &w, core::Options o, bench::Report &rep,
        const std::string &label)
{
    harness::TranslatedRun tr =
        harness::runTranslated(w.image, w.params.abi, o);
    Run r;
    r.cycles = tr.outcome.cycles;
    r.flushes = tr.runtime->translator().stats.get("recover.cache_flush");
    r.cold_blocks =
        tr.runtime->translator().stats.get("xlate.cold_blocks");
    r.high_water = tr.runtime->codeCache().highWater();
    rep.row(label)
        .metric("cycles", r.cycles)
        .metric("flushes", static_cast<double>(r.flushes))
        .metric("cold_xlates", static_cast<double>(r.cold_blocks))
        .metric("high_water", static_cast<double>(r.high_water))
        .attribution(*tr.runtime);
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    if (int rc = bench::handleArgs(argc, argv); rc >= 0)
        return rc;
    bench::banner("Bounded code cache: flush-and-retranslate cost",
                  "the robustness spine (no paper figure)");

    // Large flat code footprint: the cache-pressure worst case.
    guest::WorkloadParams ip;
    ip.outer_iters = 12;
    ip.size = 4000;
    ip.code_copies = 12;
    guest::Workload intw = guest::buildBigCode("bigcode", ip);

    core::Options base;
    base.heat_threshold = 16;
    base.hot_batch = 1;
    bench::Report rep("case_bounded_cache");
    Run unbounded = runWith(intw, base, rep, "unbounded");

    Table t({"capacity", "slowdown", "flushes", "cold xlates",
             "high water"});
    t.addRow({"unbounded", "1.00x", "0",
              strfmt("%llu",
                     static_cast<unsigned long long>(
                         unbounded.cold_blocks)),
              strfmt("%zu", unbounded.high_water)});

    for (size_t cap : {8192u, 4096u, 2048u, 1024u}) {
        core::Options o = base;
        o.code_cache_capacity = cap;
        o.cache_headroom = cap >= 2048 ? 768 : 512;
        Run r = runWith(intw, o, rep, strfmt("cap_%zu", cap));
        rep.scalar(strfmt("slowdown_cap_%zu", cap),
                   r.cycles / unbounded.cycles, 0.20);
        t.addRow({strfmt("%zu", cap),
                  strfmt("%.2fx", r.cycles / unbounded.cycles),
                  strfmt("%llu",
                         static_cast<unsigned long long>(r.flushes)),
                  strfmt("%llu",
                         static_cast<unsigned long long>(r.cold_blocks)),
                  strfmt("%zu", r.high_water)});
    }
    rep.write();
    std::printf("%s\n", t.render().c_str());
    std::printf("Interpretation: the cache never exceeds its cap (high\n"
                "water <= capacity); shrinking the cap trades cycles for\n"
                "memory through extra flush generations and\n"
                "retranslation.\n");
    return 0;
}
