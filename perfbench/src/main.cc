/**
 * @file
 * perfbench: one benchmark run of one workload.
 *
 *   perfbench --workload figures_cold|sweep_warm|service_mix
 *             --seed N --seconds S --trace 0|1
 *             --root DIR --work-dir DIR --trace-out FILE
 *             --expected FILE
 *
 * perfbench/run.py builds this program and passes the paths. The
 * last line of stdout is the result JSON; with --trace 0 it carries
 * the end-to-end metrics, with --trace 1 the per-layer ones. Exits 1
 * when any output check failed, 2 on bad arguments.
 */

#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <map>
#include <string>

#include "check.hh"
#include "common/logging.hh"
#include "workloads.hh"

namespace fs = std::filesystem;
using namespace perfbench;

int
main(int argc, char **argv)
{
    std::map<std::string, std::string> args;
    if (argc % 2 == 0) {
        std::cerr << "perfbench: every --key needs a value\n";
        return 2;
    }
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        if (key.rfind("--", 0) != 0) {
            std::cerr << "perfbench: unexpected argument " << key << "\n";
            return 2;
        }
        args[key.substr(2)] = argv[i + 1];
    }
    for (const char *k : {"workload", "seed", "seconds", "trace", "root",
                          "work-dir", "trace-out", "expected"})
        if (!args.count(k)) {
            std::cerr << "perfbench: missing --" << k << "\n";
            return 2;
        }

    const std::string workload = args["workload"];
    Outcome (*run)(const Context &) = nullptr;
    if (workload == "figures_cold")
        run = runFiguresCold;
    else if (workload == "sweep_warm")
        run = runSweepWarm;
    else if (workload == "service_mix")
        run = runServiceMix;
    if (!run) {
        std::cerr << "perfbench: unknown workload " << workload << "\n";
        return 2;
    }

    std::string text, error;
    std::map<std::string, std::string> expected;
    if (!readFile(args["expected"], text) ||
        !parseExpected(text, expected, error)) {
        std::cerr << "perfbench: cannot load " << args["expected"] << " "
                  << error << "\n";
        return 2;
    }
    Checker check(std::move(expected));

    Context ctx;
    ctx.root = fs::absolute(args["root"]).string();
    ctx.workDir = fs::absolute(args["work-dir"]).string();
    ctx.traceOut = fs::absolute(args["trace-out"]).string();
    ctx.seed = std::strtoull(args["seed"].c_str(), nullptr, 10);
    ctx.seconds = std::atof(args["seconds"].c_str());
    ctx.trace = args["trace"] == "1";
    ctx.check = &check;

    fs::remove_all(ctx.workDir);
    fs::create_directories(ctx.workDir);
    const fs::path cwd = fs::current_path();
    fs::current_path(ctx.workDir); // figure CSVs and sockets land here
    canon::setQuiet(true);
    Outcome out;
    try {
        out = run(ctx);
    } catch (const std::exception &e) {
        check.require(false, std::string("workload threw: ") + e.what());
        ++out.attempted;
        ++out.failed;
    }
    fs::current_path(cwd);
    fs::remove_all(ctx.workDir);

    for (const auto &[key, value] : check.observed())
        std::cerr << "observed: " << key << " " << value << "\n";
    for (const std::string &f : check.failures())
        std::cerr << "perfbench: CHECK FAILED: " << f << "\n";
    const bool correct = out.failed == 0 && check.failures().empty();
    std::cout << resultJson(out, correct) << std::endl;
    return correct ? 0 : 1;
}
