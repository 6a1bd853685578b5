/**
 * @file
 * Ablations of the design choices the paper calls out: the second
 * (hot) phase, EFlags elimination, FXCH elimination, the register FP
 * stack vs the FX!32-style in-memory stack, loop unrolling, load
 * speculation, block chaining and misalignment avoidance. Each row is
 * the slowdown of turning one feature off, measured on a workload that
 * stresses it.
 */

#include "bench/bench_common.hh"

using namespace el;

namespace
{

double
cyclesWith(const guest::Workload &w, core::Options o)
{
    harness::TranslatedRun tr =
        harness::runTranslated(w.image, w.params.abi, o);
    return tr.outcome.cycles;
}

} // namespace

int
main(int argc, char **argv)
{
    if (int rc = bench::handleArgs(argc, argv); rc >= 0)
        return rc;
    bench::banner("Design-choice ablations", "sections 2, 4, 5");

    guest::WorkloadParams ip;
    ip.outer_iters = 30;
    ip.size = 16000;
    guest::Workload intw = guest::buildStream("int-kernel", ip);

    guest::WorkloadParams fp;
    fp.outer_iters = 25;
    fp.size = 4000;
    guest::Workload fpw = guest::buildFpKernel("fp-kernel", fp);

    guest::WorkloadParams mp = ip;
    mp.misaligned = 2;
    mp.size = 8000;
    guest::Workload misw = guest::buildMatrix("mis-kernel", mp);

    core::Options base;
    double int_base = cyclesWith(intw, base);
    double fp_base = cyclesWith(fpw, base);
    double mis_base = cyclesWith(misw, base);

    bench::Report rep("ablation_design_choices");
    rep.scalar("baseline_int_cycles", int_base);
    rep.scalar("baseline_fp_cycles", fp_base);
    rep.scalar("baseline_mis_cycles", mis_base);

    Table t({"feature disabled", "workload", "slowdown"});
    auto row = [&](const char *name, const guest::Workload &w,
                   double base_cycles, core::Options o) {
        harness::TranslatedRun tr =
            harness::runTranslated(w.image, w.params.abi, o);
        double c = tr.outcome.cycles;
        t.addRow({name, w.name, strfmt("%.2fx", c / base_cycles)});
        rep.row(name)
            .metric("cycles", c)
            .metric("slowdown", c / base_cycles)
            .attribution(*tr.runtime);
    };

    {
        core::Options o;
        o.enable_hot_phase = false;
        row("hot phase (cold only)", intw, int_base, o);
    }
    {
        core::Options o;
        o.enable_eflags_elim = false;
        row("EFlags elimination", intw, int_base, o);
    }
    {
        core::Options o;
        o.enable_unroll = false;
        row("loop unrolling", intw, int_base, o);
    }
    {
        core::Options o;
        o.enable_load_speculation = false;
        row("load speculation (ld.s/chk.s)", intw, int_base, o);
    }
    {
        core::Options o;
        o.enable_chaining = false;
        row("block chaining", intw, int_base, o);
    }
    {
        core::Options o;
        o.enable_fxch_elim = false;
        row("FXCH elimination", fpw, fp_base, o);
    }
    {
        core::Options o;
        o.enable_fp_stack_spec = false;
        row("register FP stack (use memory stack)", fpw, fp_base, o);
    }
    {
        core::Options o;
        o.enable_misalign_avoidance = false;
        o.max_run_cycles = 8ULL * 1000 * 1000 * 1000;
        row("misalignment avoidance", misw, mis_base, o);
    }
    rep.write();
    std::printf("%s\n", t.render().c_str());
    std::printf("Interpretation: >1.00x means the feature pays off on\n"
                "its stress workload; the FP-stack-in-memory row is the\n"
                "FX!32 alternative the paper rejects in section 5.\n");
    return 0;
}
