/**
 * @file
 * Reproduces the Figure 1 headline numbers: geometric-mean normalized
 * performance of NDA-P, STT and DoM with and without Doppelganger
 * Loads, and the resulting reduction of the mean slowdown (paper: 42%,
 * 48% and 30% respectively).
 *
 * Usage: fig1_summary [instructions-per-run] [--threads N] [--retries N]
 */

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace dgsim;
    using namespace dgsim::bench;

    const BenchArgs args = parseBenchArgs(argc, argv);
    std::printf("=== Figure 1: headline summary, %llu instructions/run "
                "===\n\n",
                static_cast<unsigned long long>(args.instructions));

    const std::vector<WorkloadRow> rows =
        runSuiteMatrix(args.instructions, args.threads, args.retries);

    struct SchemePair
    {
        const char *base;
        const char *ap;
        double paperBase;
        double paperAp;
    };
    const SchemePair pairs[] = {
        {"NDA-P", "NDA-P+AP", 0.887, 0.935},
        {"STT", "STT+AP", 0.905, 0.951},
        {"DoM", "DoM+AP", 0.818, 0.873},
    };

    std::printf("%-8s %10s %10s %18s %14s\n", "scheme", "base", "+AP",
                "slowdown reduced", "paper");
    for (const SchemePair &pair : pairs) {
        std::vector<double> base_values;
        std::vector<double> ap_values;
        for (const WorkloadRow &row : rows) {
            base_values.push_back(normalizedIpc(row, pair.base));
            ap_values.push_back(normalizedIpc(row, pair.ap));
        }
        const double base = geomean(base_values);
        const double ap = geomean(ap_values);
        const double base_slowdown = 1.0 - base;
        const double ap_slowdown = 1.0 - ap;
        const double reduced =
            base_slowdown <= 0.0
                ? 0.0
                : 100.0 * (base_slowdown - ap_slowdown) / base_slowdown;
        const double paper_reduced = 100.0 *
                                     ((1.0 - pair.paperBase) -
                                      (1.0 - pair.paperAp)) /
                                     (1.0 - pair.paperBase);
        std::printf("%-8s %10.3f %10.3f %17.1f%% %8.3f->%5.3f (%.0f%%)\n",
                    pair.base, base, ap, reduced, pair.paperBase,
                    pair.paperAp, paper_reduced);
    }

    std::vector<double> unsafe_ap;
    for (const WorkloadRow &row : rows)
        unsafe_ap.push_back(normalizedIpc(row, "Unsafe+AP"));
    std::printf("\nUnsafe baseline + AP: %.3f (paper: ~1.005, \"a geomean "
                "performance improvement of 0.5%%\")\n",
                geomean(unsafe_ap));
    return 0;
}
