/**
 * @file
 * chf_perfbench — the repository benchmark driver.
 *
 *   chf_perfbench --workload W --seed N --seconds S --trace 0|1
 *
 * Runs one workload (paper_suite, large_fn, serve_mix, batch_4t)
 * through the public API for S seconds and prints, as the last line of
 * stdout, one JSON object: {"correct", "attempted", "failed",
 * "metrics"}. With --trace 0 the metrics are the end-to-end ones; with
 * --trace 1 they are the per-layer ones, taken from driver-side spans
 * around each layer call plus the program's own SessionResult
 * counters. Lines before it ("# ...") stamp the build and machine and
 * break the unit time down by layer. Any oracle, response or
 * determinism mismatch makes the run exit 1.
 */

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "bench.h"

using namespace chf;
using namespace chf::perfbench;

namespace {

/** Share of unit wall time the layer spans must cover. */
constexpr double kCoverageFloor = 0.95;

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/** Linear-interpolated percentile @p p of sorted @p v. */
double
percentile(const std::vector<double> &v, double p)
{
    if (v.empty())
        return 0;
    double rank = p / 100.0 * static_cast<double>(v.size() - 1);
    size_t lo = static_cast<size_t>(rank);
    size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

/** Samples strictly beyond percentile @p p of @p n samples. */
double
beyond(size_t n, double p)
{
    return static_cast<double>(n) * (1.0 - p / 100.0);
}

std::string
number(double value)
{
    if (!std::isfinite(value))
        value = 0;
    char buf[64];
    auto [end, ec] = std::to_chars(buf, buf + sizeof buf, value);
    return ec == std::errc() ? std::string(buf, end) : "0";
}

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

/** Geometric mean of traced/untraced median latency per input. */
double
overheadRatio(const std::vector<Sample> &samples)
{
    std::map<uint32_t, std::pair<std::vector<double>, std::vector<double>>>
        byInput;
    for (const Sample &s : samples)
        (s.traced ? byInput[s.input].first : byInput[s.input].second)
            .push_back(s.us);
    double logSum = 0;
    int n = 0;
    for (const auto &[input, pair] : byInput) {
        if (pair.first.empty() || pair.second.empty())
            continue;
        logSum += std::log(median(pair.first) / median(pair.second));
        ++n;
    }
    return n ? std::exp(logSum / n) : 0;
}

std::vector<Metric>
endToEnd(const RunResult &res)
{
    std::vector<double> ms;
    for (const Sample &s : res.samples)
        ms.push_back(s.us / 1000.0);
    std::sort(ms.begin(), ms.end());
    // The tail percentile is fixed per workload, so runs stay
    // comparable. Where the run length allows, it leaves ten samples
    // beyond it even in a run 1.5x slower than usual; large_fn's
    // handful of modules cannot, and its tail is the median.
    double tailP = res.tailPercentile;
    std::printf("# latency samples=%zu p50 beyond=%.0f tail=p%g "
                "beyond=%.0f\n",
                ms.size(), beyond(ms.size(), 50), tailP,
                beyond(ms.size(), tailP));
    if (beyond(ms.size(), tailP) < 10)
        std::printf("# warning: fewer than 10 samples beyond the tail\n");

    double logSum = 0, blocks = 0, insts = 0;
    int64_t cyclesSum = 0;
    for (const auto &[input, q] : res.quality) {
        logSum += std::log(static_cast<double>(std::max<int64_t>(q.cycles, 1)));
        blocks += static_cast<double>(q.blocks);
        insts += static_cast<double>(q.insts);
        cyclesSum += q.cycles;
    }
    std::printf("# quality inputs=%zu cycles_sum=%lld\n", res.quality.size(),
                static_cast<long long>(cyclesSum));
    double cycles =
        res.quality.empty()
            ? 0
            : std::exp(logSum / static_cast<double>(res.quality.size()));
    double attempted = static_cast<double>(res.attempted);
    return {
        {"setup_s", median(res.setupSeconds), "s"},
        {"throughput_per_s", attempted / res.measuredSeconds, "1/s"},
        {"latency_ms_p50", percentile(ms, 50), "ms"},
        {"latency_ms_tail", percentile(ms, tailP), "ms"},
        {"ok_ratio", (attempted - static_cast<double>(res.failed)) / attempted,
         "ratio"},
        {"peak_rss_mb", res.peakRssMb, "MB"},
        {"sim_cycles_geomean", cycles, "cycles"},
        {"blocks_total", blocks, "count"},
        {"static_insts_total", insts, "count"},
    };
}

std::vector<Metric>
perLayer(const RunResult &res)
{
    const StatSet &st = res.compileStats;
    auto stat = [&](const char *key) {
        return static_cast<double>(st.get(key));
    };
    std::map<std::string, double> self = res.tracer->selfTimes();
    double units = static_cast<double>(std::max<uint64_t>(res.tracedUnits, 1));
    auto perUnit = [&](double total) { return total / units; };

    double trials = 0, merges = 0, spilled = 0;
    for (const auto &[input, q] : res.quality) {
        trials += static_cast<double>(q.trials);
        merges += static_cast<double>(q.merges);
        spilled += static_cast<double>(q.spilled);
    }
    double tracedTrials = stat("trialsRun") + stat("trialsMemoHit") +
                          stat("trialsPrescreened");
    double formation =
        stat("usFormation") + stat("usUnrollPeel") + stat("usScalarOpt");
    double attributed = stat("usMergeCombine") + stat("usMergeLiveness") +
                        stat("usMergeOptimize") + stat("usMergeLegal");
    double wall = self["compile"];
    double timingMs = self["sim.timing"] / 1000.0;
    double requests = static_cast<double>(res.serverRequests);
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };

    return {
        {"frontend.us", perUnit(self["frontend"]), "us"},
        {"prepare.us", perUnit(self["prepare"]), "us"},
        {"compile.us", perUnit(stat("usCompileTotal")), "us"},
        {"formation.us", perUnit(formation), "us"},
        {"formation.trials", trials, "count"},
        {"formation.merges", merges, "count"},
        {"formation.accept_ratio", ratio(merges, trials), "ratio"},
        {"formation.us_per_trial",
         ratio(stat("usFormation"), tracedTrials), "us"},
        {"formation.liveness_us", perUnit(stat("usMergeLiveness")), "us"},
        {"formation.optimize_us", perUnit(stat("usMergeOptimize")), "us"},
        {"formation.legal_us", perUnit(stat("usMergeLegal")), "us"},
        {"formation.unattributed_us",
         perUnit(stat("usFormation") - attributed), "us"},
        {"formation.memo_hits", perUnit(stat("trialsMemoHit")), "count"},
        {"backend.us", perUnit(stat("usBackend")), "us"},
        {"backend.spilled_values", spilled, "count"},
        {"sim.functional_us", perUnit(self["sim.functional"]), "us"},
        {"sim.timing_us", perUnit(self["sim.timing"]), "us"},
        {"sim.timing_cycles_per_ms",
         ratio(static_cast<double>(res.timingCycles), timingMs),
         "cycles/ms"},
        {"session.wall_us", perUnit(wall), "us"},
        {"session.busy_ratio",
         ratio(stat("usCompileTotal"), res.threads * wall), "ratio"},
        {"server.handle_us", perUnit(self["server.handle"]), "us"},
        {"server.cache_hit_ratio",
         ratio(static_cast<double>(res.serverCacheHits), requests),
         "ratio"},
        {"server.compiled", static_cast<double>(res.serverCompiled),
         "count"},
        {"server.shed", static_cast<double>(res.serverShed), "count"},
        {"trace.overhead_ratio", overheadRatio(res.samples), "ratio"},
        {"trace.coverage_ratio", res.tracer->coverage(), "ratio"},
    };
}

/** Print each span's self time per unit: the layer breakdown. */
void
printBreakdown(const RunResult &res)
{
    double units = static_cast<double>(std::max<uint64_t>(res.tracedUnits, 1));
    double total = 0;
    for (const auto &[name, us] : res.tracer->selfTimes())
        total += us;
    std::printf("# self time per traced unit (%llu units):\n",
                static_cast<unsigned long long>(res.tracedUnits));
    for (const auto &[name, us] : res.tracer->selfTimes())
        std::printf("#   %-16s %12.1f us  %5.1f%%\n", name.c_str(),
                    us / units, total > 0 ? 100 * us / total : 0.0);
}

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "chf_perfbench: %s\nusage: chf_perfbench --workload "
                 "paper_suite|large_fn|serve_mix|batch_4t --seed N "
                 "--seconds S --trace 0|1\n",
                 why);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
#ifndef __OPTIMIZE__
    std::fprintf(stderr, "chf_perfbench: refusing to report timings from "
                         "a build without optimization\n");
    return 2;
#endif
    if (argc % 2 == 0)
        return usage("flags come in --name value pairs");
    Options opts;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string flag = argv[i], value = argv[i + 1];
        char *end = nullptr;
        if (flag == "--workload") {
            opts.workload = value;
        } else if (flag == "--seed") {
            opts.seed = std::strtoull(value.c_str(), &end, 10);
            if (*end)
                return usage("--seed wants an unsigned integer");
        } else if (flag == "--seconds") {
            opts.seconds = std::strtod(value.c_str(), &end);
            // serve_mix checks its responses after the timed phase,
            // which takes about as long again; 60 s keeps a run well
            // inside run.py's timeout.
            if (*end || !(opts.seconds > 0) || opts.seconds > 60)
                return usage("--seconds wants a number in (0, 60]");
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                return usage("--trace wants 0 or 1");
            opts.trace = value == "1";
        } else {
            return usage(("unknown flag " + flag).c_str());
        }
    }

    RunResult (*run)(const Options &) = nullptr;
    if (opts.workload == "paper_suite")
        run = runPaperSuite;
    else if (opts.workload == "large_fn")
        run = runLargeFn;
    else if (opts.workload == "serve_mix")
        run = runServeMix;
    else if (opts.workload == "batch_4t")
        run = runBatch4t;
    else
        return usage("unknown --workload");

#ifdef __clang__
    const char *compiler = "clang " __VERSION__;
#else
    const char *compiler = "gcc " __VERSION__;
#endif
    std::printf("# stamp workload=%s seed=%llu seconds=%g trace=%d "
                "hardware_concurrency=%u compiler=\"%s\" "
                "build_type=%s flags=\"%s\"\n",
                opts.workload.c_str(),
                static_cast<unsigned long long>(opts.seed), opts.seconds,
                opts.trace ? 1 : 0, std::thread::hardware_concurrency(),
                compiler, CHF_BENCH_BUILD_TYPE, CHF_BENCH_CXX_FLAGS);

    RunResult res = run(opts);
    if (res.attempted == 0)
        res.fail("no unit completed");

    std::vector<Metric> metrics;
    if (opts.trace) {
        printBreakdown(res);
        double coverage = res.tracer->coverage();
        if (coverage < kCoverageFloor)
            res.fail("layer spans cover only " + number(coverage) +
                     " of unit wall time");
        std::string dir = ".bench_build/traces";
        std::string path = dir + "/" + opts.workload + "-seed" +
                           std::to_string(opts.seed) + ".json";
        std::error_code ec;
        std::filesystem::create_directories(dir, ec);
        if (ec || !res.tracer->writeChrome(path))
            std::fprintf(stderr, "chf_perfbench: cannot write %s\n",
                         path.c_str());
        else
            std::printf("# trace %s (%zu spans)\n", path.c_str(),
                        res.tracer->size());
        metrics = perLayer(res);
    } else {
        metrics = endToEnd(res);
    }

    bool correct = res.failed == 0;
    std::string json = std::string("{\"correct\": ") +
                       (correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(res.attempted) +
                       ", \"failed\": " + std::to_string(res.failed) +
                       ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i)
        json += (i ? ", \"" : "\"") + metrics[i].name +
                "\": {\"value\": " + number(metrics[i].value) +
                ", \"unit\": \"" + metrics[i].unit + "\"}";
    json += "}}";
    std::printf("%s\n", json.c_str());
    return correct ? 0 : 1;
}
