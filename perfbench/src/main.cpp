/**
 * kvbench — one ProteusKV benchmark workload in one process.
 *
 *   kvbench --workload <ycsb_b_large|mixed_2pc_wal|tuned_shift>
 *           --seed <n> --seconds <s> --trace <0|1>
 *           [--work-dir <dir>] [--plant <fault>] [--matrix-out <csv>]
 *
 * --trace 0 prints the end-to-end metrics; --trace 1 the per-layer
 * ones. --plant plants one fault into the benchmark's view of the
 * store's outputs (torn_audit, foreign_tag, lost_write, sum_drift) to
 * prove the matching check fails the run.
 *
 * The last two lines are `PERFBENCH_HOST {json}` and
 * `PERFBENCH_RESULT {json}`. Exit codes: 0 every check passed, 1 a
 * check failed, 2 bad arguments or an error.
 */
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

perfbench::Plant
parsePlant(const std::string &name)
{
    using perfbench::Plant;
    if (name == "none")
        return Plant::kNone;
    if (name == "torn_audit")
        return Plant::kTornAudit;
    if (name == "foreign_tag")
        return Plant::kForeignTag;
    if (name == "lost_write")
        return Plant::kLostWrite;
    if (name == "sum_drift")
        return Plant::kSumDrift;
    throw std::invalid_argument("unknown --plant '" + name + "'");
}

perfbench::Args
parseArgs(int argc, char **argv)
{
    perfbench::Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            throw std::invalid_argument(flag + " needs a value");
        const std::string value = argv[++i];
        if (flag == "--workload")
            a.workload = value;
        else if (flag == "--seed")
            a.seed = std::stoull(value);
        else if (flag == "--seconds")
            a.seconds = std::stod(value);
        else if (flag == "--trace")
            a.trace = value == "1";
        else if (flag == "--work-dir")
            a.workDir = value;
        else if (flag == "--plant")
            a.plant = parsePlant(value);
        else if (flag == "--matrix-out")
            a.matrixOut = value;
        else
            throw std::invalid_argument("unknown flag " + flag);
    }
    if (a.workload.empty())
        throw std::invalid_argument("--workload is required");
    if (!(a.seconds > 0))
        throw std::invalid_argument("--seconds must be positive");
    return a;
}

} // namespace

int
main(int argc, char **argv)
{
    std::printf("PERFBENCH_HOST {\"compiler\": \"%s %s\", \"build_type\": "
                "\"%s\"}\n",
#if defined(__clang__)
                "clang",
#else
                "gcc",
#endif
                __VERSION__, PERFBENCH_BUILD_TYPE);
    try {
        const perfbench::Args args = parseArgs(argc, argv);
        perfbench::Report report;
        perfbench::runWorkload(args, report);
        std::fflush(stdout);
        std::printf("PERFBENCH_RESULT %s\n", report.json().c_str());
        return report.correct && report.failed == 0 ? 0 : 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "kvbench: %s\n", e.what());
        return 2;
    }
}
