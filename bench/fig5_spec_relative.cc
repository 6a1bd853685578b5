/**
 * @file
 * Figure 5: SPEC CPU2000 INT scores of IA-32 EL relative to native
 * Itanium execution (native = 100%). Each synthetic stand-in runs
 * translated on the IPF machine and natively as a hand-written IPF
 * kernel on the same machine model; the score ratio is
 * native_cycles / translated_cycles.
 */

#include "bench/bench_common.hh"

using namespace el;

int
main(int argc, char **argv)
{
    if (int rc = bench::handleArgs(argc, argv); rc >= 0)
        return rc;
    bench::banner("SPEC CPU2000 INT: IA-32 EL vs native Itanium",
                  "Figure 5");

    // The paper's reported percentages, for side-by-side comparison.
    const std::map<std::string, double> paper = {
        {"gzip", 86},   {"vpr", 69},    {"gcc", 51},   {"mcf", 104},
        {"crafty", 39}, {"parser", 81}, {"eon", 41},   {"perlbmk", 64},
        {"gap", 62},    {"vortex", 60}, {"bzip2", 74}, {"twolf", 76},
    };

    // Both cycle counts come from the deterministic simulator (the
    // default run is synchronous: no worker-thread timing), so a rerun of
    // the same source reproduces every score bit for bit. The 1%
    // tolerance only absorbs host-compiler floating-point differences;
    // any real translator change past it refreshes the baseline.
    constexpr double score_tolerance = 0.01;

    Table table({"benchmark", "EL cycles", "native cycles",
                 "EL score (ours)", "EL score (paper)"});
    std::vector<double> ours;
    std::vector<double> theirs;
    bench::Report rep("fig5_spec_relative");

    for (guest::Workload &w : guest::specIntSuite()) {
        harness::TranslatedRun tr =
            harness::runTranslated(w.image, w.params.abi);
        double nat = harness::nativeCycles(w);
        double rel = nat / tr.outcome.cycles * 100.0;
        ours.push_back(rel);
        theirs.push_back(paper.at(w.name));
        table.addRow({w.name, strfmt("%.0f", tr.outcome.cycles),
                      strfmt("%.0f", nat), strfmt("%.1f%%", rel),
                      strfmt("%.0f%%", paper.at(w.name))});
        rep.row(w.name)
            .metric("el_cycles", tr.outcome.cycles)
            .metric("native_cycles", nat)
            .metric("score_pct", rel)
            .metric("paper_pct", paper.at(w.name))
            .attribution(*tr.runtime);
        rep.scalar(w.name + "_pct", rel, score_tolerance);
    }
    table.addRow({"GeoMean", "", "", strfmt("%.1f%%", geomean(ours)),
                  strfmt("%.0f%%", geomean(theirs))});
    rep.scalar("geomean_pct", geomean(ours), score_tolerance);
    rep.scalar("paper_geomean_pct", geomean(theirs));
    rep.write();
    std::printf("%s\n", table.render().c_str());
    std::printf("Shape checks: mcf should be the best (small 32-bit\n"
                "footprint), crafty/eon the worst (indirect branches),\n"
                "gcc/vortex low (flat profile, large code).\n");
    return 0;
}
