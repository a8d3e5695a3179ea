/**
 * @file
 * Shared types of the benchmark driver: the per-run options, what a
 * workload hands back, and the determinism gate.
 *
 * Every workload is a closed loop over units of work (a table cell, a
 * compile, a batch, a server request). A unit's latency is taken with
 * tracing off or on; traced units also record layer spans and sum the
 * program's own counters, from which the per-layer metrics are built.
 */

#ifndef CHF_PERFBENCH_BENCH_H
#define CHF_PERFBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ir/program.h"
#include "sim/functional_sim.h"
#include "support/stats.h"
#include "trace.h"

namespace chf::perfbench {

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
};

/** Microseconds on the steady clock. */
inline double
nowUs()
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** One completed unit of work. */
struct Sample
{
    double us = 0;
    /** Which input the unit ran; pairs traced with untraced units. */
    uint32_t input = 0;
    bool traced = false;
};

/** Deterministic outcome of compiling one input. */
struct Quality
{
    int64_t blocks = 0;
    int64_t insts = 0;
    int64_t cycles = 0;
    /** Trials attempted: run + answered by the memo + prescreened. */
    int64_t trials = 0;
    int64_t merges = 0;
    int64_t spilled = 0;

    bool operator==(const Quality &other) const = default;
};

/** Quality counts of one unit from its SessionResult totals. */
Quality qualityOf(const StatSet &totals, int64_t blocks, int64_t insts);

/** Program deep copy (Function holds unique_ptrs). */
Program cloneProgram(const Program &program);

/** Everything one run of a workload produces. */
struct RunResult
{
    std::vector<double> setupSeconds;
    std::vector<Sample> samples;
    double measuredSeconds = 0;
    uint64_t attempted = 0;
    uint64_t failed = 0;

    /** Per distinct input; the first completion is the record. */
    std::map<std::string, Quality> quality;

    /** Counters summed over traced units (SessionResult::totals). */
    StatSet compileStats;
    uint64_t tracedUnits = 0;
    /** Session worker threads of a unit's compile. */
    int threads = 1;
    /** Cycles simulated inside traced timing spans. */
    int64_t timingCycles = 0;

    /** Server counters over the run (serve_mix only). */
    uint64_t serverRequests = 0;
    uint64_t serverCompiled = 0;
    uint64_t serverCacheHits = 0;
    uint64_t serverShed = 0;

    /** Tail percentile of the workload's latency (fixed per workload). */
    double tailPercentile = 50;

    /** Peak resident memory (MB) of the timed phase, set-up excluded. */
    double peakRssMb = 0;

    std::unique_ptr<Tracer> tracer = std::make_unique<Tracer>();

    /**
     * Count one unit as failed and say why on stderr. Every oracle
     * mismatch, degraded unit, non-ok response, and determinism
     * mismatch goes through here, once per unit.
     */
    void fail(const std::string &what);

    /**
     * Determinism gate: the first completion of @p input is the
     * record; every later one must equal it exactly. Returns the
     * problem, empty when there is none.
     */
    std::string recordQuality(const std::string &input, const Quality &q);
};

/** Reference result of a prepared, unformed program. */
struct Oracle
{
    int64_t returnValue = 0;
    /** User memory only: register-allocator spill slots differ
     *  between a compiled program and its unformed source. */
    uint64_t userHash = 0;
};

/** Run the functional simulator on @p prepared. */
Oracle oracleOf(const Program &prepared);

/** Empty when @p compiled behaves like @p oracle. */
std::string oracleProblems(const FuncSimResult &compiled,
                           const Oracle &oracle);

/**
 * Drop the peak-resident-memory mark to the current resident size,
 * after handing freed heap back to the system; false when the kernel
 * does not allow it. Called where the timed phase starts.
 */
bool resetPeakRss();

/** Peak resident memory (MB) of this process since the last reset. */
double peakRssMb();

/**
 * How many times an untraced run repeats its set-up: setup_s is the
 * median of these. A traced run, which does not report setup_s, sets
 * up once.
 */
constexpr int kSetupReps = 5;

/** Run and time @p setup (kSetupReps times untraced); keep the last
 *  state. */
template <class Setup>
auto
timedSetup(const Options &opts, RunResult &res, Setup &&setup)
{
    std::optional<decltype(setup())> state;
    for (int rep = 0; rep < (opts.trace ? 1 : kSetupReps); ++rep) {
        double t0 = nowUs();
        state.emplace(setup());
        res.setupSeconds.push_back((nowUs() - t0) / 1e6);
    }
    return std::move(*state);
}

/** The closed-loop, single-caller workloads. */
RunResult runPaperSuite(const Options &opts);
RunResult runLargeFn(const Options &opts);
RunResult runBatch4t(const Options &opts);

/** Four closed-loop clients on one in-process CompileServer. */
RunResult runServeMix(const Options &opts);

/**
 * Should request or round @p index be traced? In a traced run they
 * alternate so that traced and untraced latencies of each input can be
 * paired (trace.overhead_ratio); an untraced run traces nothing.
 */
inline bool
traceUnit(const Options &opts, uint64_t index)
{
    return opts.trace && (index % 2 == 1);
}

} // namespace chf::perfbench

#endif // CHF_PERFBENCH_BENCH_H
