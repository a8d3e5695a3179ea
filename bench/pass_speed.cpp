/**
 * @file
 * Compiler-pass throughput: how fast are the analyses, the scalar
 * optimizations, formation, and the simulators. Useful for catching
 * algorithmic regressions in the compiler itself.
 *
 * Three modes:
 *
 *  - default: google-benchmark micro suite, then a formation wall-time
 *    sweep over every speclike workload with the analysis cache on and
 *    off, a parallel-session sweep (an 8-unit synth64 batch at
 *    1/2/4/8 worker threads), the generated tier, and a size-scaling
 *    sweep (synth64/128/256 through prepare, formation and the
 *    backend), and a simulator sweep (timing and functional model over
 *    the 43 compiled paper programs, scheduleFunction on synth64/128/
 *    256), all written to BENCH_pass_speed.json for trajectory
 *    tracking.
 *  - --json-only: skip the micro suite, emit only the JSON sweeps.
 *  - --smoke <baseline.json>: time formation of the largest speclike
 *    workload (cache on, best of 3) and the 4-thread batch config, and
 *    fail if either regressed more than 2x against the recorded
 *    baseline. Wired into ctest so compile-time regressions fail
 *    tier-1. Skipped in unoptimized builds.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/dominators.h"
#include "analysis/liveness.h"
#include "analysis/loops.h"
#include "backend/scheduler.h"
#include "hyperblock/merge.h"
#include "pipeline/session.h"
#include "report/block_report.h"
#include "sim/functional_sim.h"
#include "sim/timing_sim.h"
#include "support/timer.h"
#include "transform/optimize.h"
#include "transform/simplify_cfg.h"
#include "workloads/generator.h"
#include "workloads/workloads.h"

using namespace chf;

namespace {

/** A prepared mid-sized workload reused across iterations. */
const Program &
preparedWorkload()
{
    static Program program = [] {
        Program p = buildWorkload(*findWorkload("dhry"));
        prepareProgram(p);
        return p;
    }();
    return program;
}

Program
cloneProgram(const Program &program)
{
    Program copy;
    copy.fn = program.fn.clone();
    copy.memory = program.memory;
    copy.defaultArgs = program.defaultArgs;
    return copy;
}

/**
 * Compile @p program in place through a single-unit Session and return
 * that unit's result. One thread is the sequential fast path; more
 * threads spin up the work-stealing pool, which formation uses for
 * speculative parallel trial rounds (DESIGN.md §11).
 */
FunctionResult
compileOne(Program &program, const SessionOptions &options,
           int threads = 1)
{
    Session session(options);
    ProfileData profile; // frequencies already annotated on branches
    session.addProgramRef(program, profile);
    SessionResult result = session.compile(threads);
    return std::move(result.functions[0]);
}

void
BM_Dominators(benchmark::State &state)
{
    const Program &p = preparedWorkload();
    for (auto _ : state) {
        DominatorTree dom(p.fn);
        benchmark::DoNotOptimize(dom.idom(p.fn.entry()));
    }
}
BENCHMARK(BM_Dominators);

void
BM_LoopAnalysis(benchmark::State &state)
{
    const Program &p = preparedWorkload();
    for (auto _ : state) {
        LoopInfo loops(p.fn);
        benchmark::DoNotOptimize(loops.loops().size());
    }
}
BENCHMARK(BM_LoopAnalysis);

void
BM_Liveness(benchmark::State &state)
{
    const Program &p = preparedWorkload();
    for (auto _ : state) {
        Liveness live(p.fn);
        benchmark::DoNotOptimize(live.liveIn(p.fn.entry()).count());
    }
}
BENCHMARK(BM_Liveness);

void
BM_ScalarOptimize(benchmark::State &state)
{
    const Program &p = preparedWorkload();
    for (auto _ : state) {
        state.PauseTiming();
        Program copy = cloneProgram(p);
        state.ResumeTiming();
        optimizeFunction(copy.fn);
    }
}
BENCHMARK(BM_ScalarOptimize);

void
runFormation(Program &program)
{
    compileOne(program, SessionOptions()
                            .withPipeline(Pipeline::IUPO_fused)
                            .withBackend(false));
}

void
BM_ConvergentFormation(benchmark::State &state)
{
    const Program &p = preparedWorkload();
    for (auto _ : state) {
        state.PauseTiming();
        Program copy = cloneProgram(p);
        state.ResumeTiming();
        runFormation(copy);
    }
}
BENCHMARK(BM_ConvergentFormation);

void
BM_ConvergentFormationNoCache(benchmark::State &state)
{
    const Program &p = preparedWorkload();
    setenv("CHF_DISABLE_ANALYSIS_CACHE", "1", 1);
    for (auto _ : state) {
        state.PauseTiming();
        Program copy = cloneProgram(p);
        state.ResumeTiming();
        runFormation(copy);
    }
    unsetenv("CHF_DISABLE_ANALYSIS_CACHE");
}
BENCHMARK(BM_ConvergentFormationNoCache);

void
BM_FullPipeline(benchmark::State &state)
{
    const Program &p = preparedWorkload();
    for (auto _ : state) {
        state.PauseTiming();
        Program copy = cloneProgram(p);
        state.ResumeTiming();
        compileOne(copy,
                   SessionOptions().withPipeline(Pipeline::IUPO_fused));
    }
}
BENCHMARK(BM_FullPipeline);

void
BM_Scheduler(benchmark::State &state)
{
    Program compiled = cloneProgram(preparedWorkload());
    compileOne(compiled,
               SessionOptions().withPipeline(Pipeline::IUPO_fused));
    for (auto _ : state) {
        auto placement = scheduleFunction(compiled.fn);
        benchmark::DoNotOptimize(placement.size());
    }
}
BENCHMARK(BM_Scheduler);

void
BM_FunctionalSimulator(benchmark::State &state)
{
    const Program &p = preparedWorkload();
    for (auto _ : state) {
        FuncSimResult run = runFunctional(p);
        benchmark::DoNotOptimize(run.instsExecuted);
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) *
        static_cast<int64_t>(runFunctional(p).instsExecuted));
}
BENCHMARK(BM_FunctionalSimulator);

void
BM_TimingSimulator(benchmark::State &state)
{
    const Program &p = preparedWorkload();
    for (auto _ : state) {
        TimingResult run = runTiming(p);
        benchmark::DoNotOptimize(run.cycles);
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) *
        static_cast<int64_t>(runTiming(p).instsExecuted));
}
BENCHMARK(BM_TimingSimulator);

// ----- formation wall-time sweep (BENCH_pass_speed.json) -----

struct FormationTiming
{
    std::string name;
    size_t blocks = 0;
    size_t insts = 0;
    int64_t cachedUs = 0;   ///< caches on, full-pass opt (CHF_INCR_OPT=0)
    int64_t incroptUs = 0;  ///< caches on, seam-scoped incremental opt
    int64_t nocacheUs = 0;
    int64_t notrialUs = 0;  ///< analysis cache on, trial cache off
    int64_t parallelUs = 0; ///< cached, speculative trials on 4 threads
    int64_t merges = 0;

    // Trial-merge breakdown of the fully-cached run.
    int64_t trialsRun = 0;
    int64_t trialsMemoHit = 0;
    int64_t trialsPrescreened = 0;
    int64_t usMergeCombine = 0;
    int64_t usMergeOptimize = 0;
    int64_t usMergeLegal = 0;

    // Per-pass optimizer breakdown and seam hit ratio of the
    // incremental-opt run (the usOpt* / optSeam* engine counters).
    int64_t usOptCopyProp = 0;
    int64_t usOptGvn = 0;
    int64_t usOptPredOpt = 0;
    int64_t usOptDce = 0;
    int64_t usOptCoalesce = 0;
    int64_t seamVisited = 0;
    int64_t seamTotal = 0;
};

/** Resolve registry workloads and the synthetic "synthN" names. */
bool
buildNamed(const std::string &name, Program *out)
{
    if (name.rfind("synth", 0) == 0) {
        int regions = std::atoi(name.c_str() + 5);
        if (regions <= 0)
            return false;
        *out = buildWorkload(synthFormationWorkload(regions));
        return true;
    }
    const Workload *w = findWorkload(name);
    if (!w)
        return false;
    *out = buildWorkload(*w);
    return true;
}

/** Formation time (the usFormation counter), best of @p repeats. */
int64_t
timeFormationUs(const Program &prepared, bool use_cache,
                bool use_trial_cache, int repeats,
                FormationTiming *fill = nullptr, int threads = 1,
                bool use_incremental_opt = true)
{
    if (use_cache)
        unsetenv("CHF_DISABLE_ANALYSIS_CACHE");
    else
        setenv("CHF_DISABLE_ANALYSIS_CACHE", "1", 1);
    if (use_trial_cache)
        unsetenv("CHF_TRIAL_CACHE");
    else
        setenv("CHF_TRIAL_CACHE", "0", 1);
    if (use_incremental_opt)
        unsetenv("CHF_INCR_OPT");
    else
        setenv("CHF_INCR_OPT", "0", 1);

    int64_t best = -1;
    for (int r = 0; r < repeats; ++r) {
        Program copy = cloneProgram(prepared);
        FunctionResult result = compileOne(
            copy,
            SessionOptions()
                .withPipeline(Pipeline::IUPO_fused)
                .withBackend(false),
            threads);
        int64_t us = result.stats.get("usFormation");
        if (best < 0 || us < best)
            best = us;
        if (fill) {
            fill->merges = result.stats.get("blocksMerged");
            fill->trialsRun = result.stats.get("trialsRun");
            fill->trialsMemoHit = result.stats.get("trialsMemoHit");
            fill->trialsPrescreened =
                result.stats.get("trialsPrescreened");
            fill->usMergeCombine = result.stats.get("usMergeCombine");
            fill->usMergeOptimize = result.stats.get("usMergeOptimize");
            fill->usMergeLegal = result.stats.get("usMergeLegal");
            fill->usOptCopyProp = result.stats.get("usOptCopyProp");
            fill->usOptGvn = result.stats.get("usOptGvn");
            fill->usOptPredOpt = result.stats.get("usOptPredOpt");
            fill->usOptDce = result.stats.get("usOptDce");
            fill->usOptCoalesce = result.stats.get("usOptCoalesce");
            fill->seamVisited = result.stats.get("optSeamVisited");
            fill->seamTotal = result.stats.get("optSeamTotal");
        }
    }
    unsetenv("CHF_DISABLE_ANALYSIS_CACHE");
    unsetenv("CHF_TRIAL_CACHE");
    unsetenv("CHF_INCR_OPT");
    return best;
}

std::vector<FormationTiming>
sweepFormation(int repeats)
{
    std::vector<Workload> suite = speclikeBenchmarks();
    suite.push_back(synthFormationWorkload(64));
    std::vector<FormationTiming> out;
    for (const Workload &w : suite) {
        Program prepared = buildWorkload(w);
        prepareProgram(prepared);
        FormationTiming t;
        t.name = w.name;
        t.blocks = prepared.fn.numBlocks();
        t.insts = prepared.fn.totalInsts();
        // Untimed warmup so the first configuration measured does not
        // absorb the workload's cold-start (allocator, page faults).
        timeFormationUs(prepared, true, true, 1);
        // The counter breakdown (trials, per-pass timing, seam ratio)
        // describes the incremental-opt run -- the default engine
        // configuration; formation_us_cached keeps its historical
        // meaning (caches on, full-pass per-trial optimization).
        t.incroptUs = timeFormationUs(prepared, true, true, repeats, &t);
        t.cachedUs = timeFormationUs(prepared, true, true, repeats,
                                     nullptr, 1, false);
        t.nocacheUs = timeFormationUs(prepared, false, true, repeats);
        t.notrialUs = timeFormationUs(prepared, true, false, repeats);
        t.parallelUs = timeFormationUs(prepared, true, true, repeats,
                                       nullptr, 4);
        out.push_back(std::move(t));
    }
    return out;
}

const FormationTiming *
largestWorkload(const std::vector<FormationTiming> &sweep)
{
    const FormationTiming *largest = nullptr;
    for (const auto &t : sweep) {
        if (!largest || t.insts > largest->insts)
            largest = &t;
    }
    return largest;
}

// ----- parallel-session sweep -----

struct ParallelTiming
{
    int threads = 1;
    int64_t wallUs = 0;
};

constexpr int kBatchUnits = 8;
constexpr const char *kBatchWorkload = "synth64";

/**
 * Wall time of compiling a batch of @p units clones of @p prepared
 * through one Session at @p threads workers, best of @p repeats.
 */
int64_t
timeBatchWallUs(const Program &prepared, int units, int threads,
                int repeats)
{
    int64_t best = -1;
    for (int r = 0; r < repeats; ++r) {
        Session session(SessionOptions()
                            .withPipeline(Pipeline::IUPO_fused)
                            .withBackend(false)
                            .withThreads(threads));
        for (int u = 0; u < units; ++u)
            session.addProgram(cloneProgram(prepared), ProfileData{});
        Timer timer;
        session.compile();
        int64_t us = timer.elapsedMicros();
        if (best < 0 || us < best)
            best = us;
    }
    return best;
}

std::vector<ParallelTiming>
sweepParallel(int repeats)
{
    Program prepared;
    buildNamed(kBatchWorkload, &prepared);
    prepareProgram(prepared);

    // On fewer than 4 cores a multi-thread batch measures scheduler
    // contention, not compiler speed; recording those rows would seed
    // future comparisons with garbage, so only the 1-thread row lands
    // in the JSON (mirrors the smoke test's skip rule).
    std::vector<int> thread_counts{1, 2, 4, 8};
    if (std::thread::hardware_concurrency() < 4) {
        std::fprintf(stderr,
                     "parallel sweep: hardware_concurrency=%u < 4; "
                     "multi-thread rows skipped (timings on an "
                     "oversubscribed machine are not comparable)\n",
                     std::thread::hardware_concurrency());
        thread_counts = {1};
    }
    std::vector<ParallelTiming> out;
    for (int threads : thread_counts) {
        ParallelTiming t;
        t.threads = threads;
        t.wallUs =
            timeBatchWallUs(prepared, kBatchUnits, threads, repeats);
        out.push_back(t);
    }

    std::fprintf(stderr,
                 "parallel session batch (%d x %s, formation only):\n"
                 "%8s %12s %8s\n",
                 kBatchUnits, kBatchWorkload, "threads", "wall us",
                 "speedup");
    for (const ParallelTiming &t : out) {
        double speedup = t.wallUs > 0
                             ? static_cast<double>(out[0].wallUs) /
                                   static_cast<double>(t.wallUs)
                             : 0.0;
        std::fprintf(stderr, "%8d %12lld %7.2fx\n", t.threads,
                     static_cast<long long>(t.wallUs), speedup);
    }
    return out;
}

// ----- generated-tier sweep (functions/sec on generator output) -----

struct GeneratedTiming
{
    int threads = 1;
    int64_t wallUs = 0;
};

constexpr int kGeneratedCount = 1000;
constexpr const char *kGeneratedShape = "bench";

/**
 * Compiler throughput on the seeded-generator tier: @p kGeneratedCount
 * single-function programs (the "bench" preset, seeds 1..N) through
 * one full-pipeline Session, wall-clocked at 1 and 4 worker threads.
 * Generation, lowering, and profiling happen up front and are not
 * timed — the sweep measures the compiler, not the generator.
 */
std::vector<GeneratedTiming>
sweepGenerated(int repeats)
{
    GeneratorShape shape;
    namedShape(kGeneratedShape, &shape);

    std::vector<Program> prepared(kGeneratedCount);
    std::vector<ProfileData> profiles(kGeneratedCount);
    for (int i = 0; i < kGeneratedCount; ++i) {
        prepared[static_cast<size_t>(i)] = buildGenerated(
            generateTinyC(static_cast<uint64_t>(i) + 1, shape));
        profiles[static_cast<size_t>(i)] =
            prepareProgram(prepared[static_cast<size_t>(i)]);
    }

    // Same rule as the parallel sweep: no multi-thread rows on a
    // machine that cannot actually run 4 workers.
    std::vector<int> thread_counts{1, 4};
    if (std::thread::hardware_concurrency() < 4) {
        std::fprintf(stderr,
                     "generated sweep: hardware_concurrency=%u < 4; "
                     "multi-thread rows skipped (timings on an "
                     "oversubscribed machine are not comparable)\n",
                     std::thread::hardware_concurrency());
        thread_counts = {1};
    }
    std::vector<GeneratedTiming> out;
    for (int threads : thread_counts) {
        int64_t best = -1;
        for (int r = 0; r < repeats; ++r) {
            Session session(SessionOptions()
                                .withPipeline(Pipeline::IUPO_fused)
                                .withThreads(threads));
            for (int i = 0; i < kGeneratedCount; ++i) {
                session.addProgram(
                    cloneProgram(prepared[static_cast<size_t>(i)]),
                    ProfileData(profiles[static_cast<size_t>(i)]));
            }
            Timer timer;
            session.compile();
            int64_t us = timer.elapsedMicros();
            if (best < 0 || us < best)
                best = us;
        }
        GeneratedTiming t;
        t.threads = threads;
        t.wallUs = best;
        out.push_back(t);
    }

    std::fprintf(stderr,
                 "generated tier (%d x shape:%s, full pipeline):\n"
                 "%8s %12s %14s\n",
                 kGeneratedCount, kGeneratedShape, "threads", "wall us",
                 "functions/sec");
    for (const GeneratedTiming &t : out) {
        double fps = t.wallUs > 0
                         ? 1e6 * kGeneratedCount /
                               static_cast<double>(t.wallUs)
                         : 0.0;
        std::fprintf(stderr, "%8d %12lld %14.0f\n", t.threads,
                     static_cast<long long>(t.wallUs), fps);
    }
    return out;
}

// ----- size-scaling sweep (synth64 -> synth256) -----

struct ScalingTiming
{
    std::string name;
    size_t blocks = 0; ///< after prepare, before formation
    size_t insts = 0;
    // Median / min / max over the repeats.
    int64_t prepareUs[3] = {};
    int64_t formationUs[3] = {};
    int64_t backendUs[3] = {};
    // Counters of the first (memo-cold) compile.
    int64_t trialsRun = 0;
    int64_t livenessQueries = 0;
    int64_t livenessBlocksSolved = 0;
    int64_t usMergeLiveness = 0;
    int64_t coldFormationUs = 0;
};

/** {median, min, max} of @p v (sorted in place). */
void
spread(std::vector<int64_t> &v, int64_t out[3])
{
    std::sort(v.begin(), v.end());
    out[0] = v[v.size() / 2];
    out[1] = v.front();
    out[2] = v.back();
}

/**
 * The same synthetic shape at 64, 128 and 256 regions, each through
 * prepare and a one-unit, one-thread full-pipeline compile, @p repeats
 * times. Linear-time compilation shows as prepare/formation/backend
 * time roughly doubling per size step and formation time per trial and
 * liveness blocks solved per trial staying flat. Repeats after the
 * first recompile identical IR, so the process-wide failed-trial memo
 * answers some of their trials; the per-trial counters come from the
 * first, memo-cold compile.
 */
std::vector<ScalingTiming>
sweepScaling(int repeats)
{
    std::vector<ScalingTiming> out;
    for (int regions : {64, 128, 256}) {
        Workload w = synthFormationWorkload(regions);
        ScalingTiming t;
        t.name = w.name;
        std::vector<int64_t> prepare, formation, backend;
        for (int r = 0; r < repeats; ++r) {
            Program program = buildWorkload(w);
            Timer timer;
            ProfileData profile = prepareProgram(program);
            prepare.push_back(timer.elapsedMicros());
            t.blocks = program.fn.numBlocks();
            t.insts = program.fn.totalInsts();

            Session session(
                SessionOptions().withPipeline(Pipeline::IUPO_fused));
            session.addProgramRef(program, profile, w.name);
            const StatSet s = session.compile(1).totals;
            formation.push_back(s.get("usFormation"));
            backend.push_back(s.get("usBackend"));
            if (r == 0) {
                t.trialsRun = s.get("trialsRun");
                t.livenessQueries = s.get("livenessQueries");
                t.livenessBlocksSolved = s.get("livenessBlocksSolved");
                t.usMergeLiveness = s.get("usMergeLiveness");
                t.coldFormationUs = s.get("usFormation");
            }
        }
        spread(prepare, t.prepareUs);
        spread(formation, t.formationUs);
        spread(backend, t.backendUs);
        out.push_back(t);
    }

    std::fprintf(stderr,
                 "size scaling (full pipeline, 1 thread, median of %d):\n"
                 "%10s %7s %11s %13s %11s %11s %16s\n",
                 repeats, "workload", "blocks", "prepare us",
                 "formation us", "backend us", "us/trial",
                 "solved/trial");
    for (const ScalingTiming &t : out) {
        double trials =
            static_cast<double>(std::max<int64_t>(t.trialsRun, 1));
        std::fprintf(stderr,
                     "%10s %7zu %11lld %13lld %11lld %11.1f %16.2f\n",
                     t.name.c_str(), t.blocks,
                     static_cast<long long>(t.prepareUs[0]),
                     static_cast<long long>(t.formationUs[0]),
                     static_cast<long long>(t.backendUs[0]),
                     static_cast<double>(t.coldFormationUs) / trials,
                     static_cast<double>(t.livenessBlocksSolved) / trials);
    }
    return out;
}

// ----- simulator and scheduler sweep -----

/** {median, p10, p90} of @p v by nearest rank (sorted in place). */
void
percentiles(std::vector<double> &v, double out[3])
{
    std::sort(v.begin(), v.end());
    auto rank = [&](double p) {
        return v[static_cast<size_t>(p * (v.size() - 1) + 0.5)];
    };
    out[0] = rank(0.5);
    out[1] = rank(0.1);
    out[2] = rank(0.9);
}

struct SimTiming
{
    size_t programs = 0;
    uint64_t timingInsts = 0;     ///< executed per pass
    uint64_t functionalInsts = 0; ///< executed per pass
    // {median, p10, p90} over the repeats.
    double timingMs[3] = {};
    double functionalMs[3] = {};
    double timingInstsPerUs[3] = {};
    double functionalInstsPerUs[3] = {};
    struct Schedule
    {
        std::string name;
        size_t blocks = 0;
        size_t insts = 0;
        double ms[3] = {};
    };
    std::vector<Schedule> schedule;
};

/**
 * The simulators over the 43 paper programs as the perfbench
 * paper_suite cell compiles them (prepare, then a default one-thread
 * Session), one pass = every program once; runTiming includes its
 * scheduleFunction call, as the cell pays it. Then scheduleFunction
 * alone on compiled synth64/128/256. Every row is timed @p repeats
 * times.
 */
SimTiming
sweepSim(int repeats)
{
    auto compiled = [](const Workload &w) {
        Program program = buildWorkload(w);
        ProfileData profile = prepareProgram(program);
        Session session;
        session.addProgramRef(program, profile, w.name);
        session.compile(1);
        return program;
    };
    SimTiming out;
    std::vector<Program> programs;
    for (const auto *suite : {&microbenchmarks(), &speclikeBenchmarks()}) {
        for (const Workload &w : *suite)
            programs.push_back(compiled(w));
    }
    out.programs = programs.size();

    std::vector<double> timing_ms, functional_ms, timing_rate,
        functional_rate;
    for (int r = 0; r < repeats; ++r) {
        uint64_t timing_insts = 0, functional_insts = 0;
        Timer timer;
        for (const Program &program : programs)
            timing_insts += runTiming(program).instsExecuted;
        const double timing_us = static_cast<double>(timer.elapsedMicros());
        Timer functional_timer;
        for (const Program &program : programs)
            functional_insts += runFunctional(program).instsExecuted;
        const double functional_us =
            static_cast<double>(functional_timer.elapsedMicros());
        out.timingInsts = timing_insts;
        out.functionalInsts = functional_insts;
        timing_ms.push_back(timing_us / 1000.0);
        functional_ms.push_back(functional_us / 1000.0);
        timing_rate.push_back(static_cast<double>(timing_insts) /
                              std::max(timing_us, 1.0));
        functional_rate.push_back(static_cast<double>(functional_insts) /
                                  std::max(functional_us, 1.0));
    }
    percentiles(timing_ms, out.timingMs);
    percentiles(functional_ms, out.functionalMs);
    percentiles(timing_rate, out.timingInstsPerUs);
    percentiles(functional_rate, out.functionalInstsPerUs);

    for (int regions : {64, 128, 256}) {
        Workload w = synthFormationWorkload(regions);
        Program program = compiled(w);
        SimTiming::Schedule row;
        row.name = w.name;
        row.blocks = program.fn.numBlocks();
        row.insts = program.fn.totalInsts();
        std::vector<double> ms;
        for (int r = 0; r < repeats; ++r) {
            Timer timer;
            auto placement = scheduleFunction(program.fn);
            benchmark::DoNotOptimize(placement.size());
            ms.push_back(static_cast<double>(timer.elapsedMicros()) /
                         1000.0);
        }
        percentiles(ms, row.ms);
        out.schedule.push_back(row);
    }

    std::fprintf(stderr,
                 "simulators over %zu compiled paper programs (median "
                 "[p10, p90] of %d passes):\n"
                 "  timing     %8.1f ms [%.1f, %.1f]  %6.1f insts/us\n"
                 "  functional %8.1f ms [%.1f, %.1f]  %6.1f insts/us\n",
                 out.programs, repeats, out.timingMs[0], out.timingMs[1],
                 out.timingMs[2], out.timingInstsPerUs[0],
                 out.functionalMs[0], out.functionalMs[1],
                 out.functionalMs[2], out.functionalInstsPerUs[0]);
    for (const SimTiming::Schedule &row : out.schedule) {
        std::fprintf(stderr,
                     "  scheduleFunction %s (%zu blocks) %.2f ms "
                     "[%.2f, %.2f]\n",
                     row.name.c_str(), row.blocks, row.ms[0], row.ms[1],
                     row.ms[2]);
    }
    return out;
}

/** CPU model from /proc/cpuinfo ("unknown" elsewhere). */
std::string
cpuModel()
{
    std::ifstream f("/proc/cpuinfo");
    std::string line;
    while (std::getline(f, line)) {
        if (line.rfind("model name", 0) == 0) {
            size_t colon = line.find(':');
            if (colon != std::string::npos && colon + 2 <= line.size())
                return line.substr(colon + 2);
        }
    }
    return "unknown";
}

void
writeJson(const std::string &path,
          const std::vector<FormationTiming> &sweep,
          const std::vector<ParallelTiming> &parallel,
          const std::vector<GeneratedTiming> &generated,
          const std::vector<ScalingTiming> &scaling,
          const SimTiming &sim)
{
    const unsigned hw = std::thread::hardware_concurrency();
    std::ostringstream os;
    os << "{\n  \"bench\": \"pass_speed\",\n  \"unit\": \"us\",\n"
       << "  \"hardware_concurrency\": " << hw << ",\n"
       << "  \"cpu\": \"" << cpuModel() << "\",\n"
       << "  \"compiler\": \"" << __VERSION__ << "\",\n"
       << "  \"baseline_hardware_concurrency\": \"multi-thread rows "
          "(parallel batch, generated tier) are only recorded when "
          "hardware_concurrency() >= 4; on fewer cores they measure "
          "scheduler contention, not compiler speed, and must not be "
          "compared against baselines recorded elsewhere\",\n"
       << "  \"multithread_rows_recorded\": "
       << (hw >= 4 ? "true" : "false") << ",\n"
       << "  \"workloads\": [\n";
    for (size_t i = 0; i < sweep.size(); ++i) {
        const auto &t = sweep[i];
        double speedup = t.cachedUs > 0
                             ? static_cast<double>(t.nocacheUs) /
                                   static_cast<double>(t.cachedUs)
                             : 0.0;
        double seam_ratio =
            t.seamTotal > 0 ? static_cast<double>(t.seamVisited) /
                                  static_cast<double>(t.seamTotal)
                            : 1.0;
        os << "    {\"name\": \"" << t.name << "\", \"blocks\": "
           << t.blocks << ", \"insts\": " << t.insts
           << ", \"merges\": " << t.merges
           << ", \"formation_us_cached\": " << t.cachedUs
           << ", \"formation_us_incropt\": " << t.incroptUs
           << ", \"formation_us_nocache\": " << t.nocacheUs
           << ", \"formation_us_notrialcache\": " << t.notrialUs
           << ", \"formation_us_parallel\": " << t.parallelUs
           << ", \"speedup\": " << speedup
           << ", \"trials_run\": " << t.trialsRun
           << ", \"trials_memo_hit\": " << t.trialsMemoHit
           << ", \"trials_prescreened\": " << t.trialsPrescreened
           << ", \"us_merge_combine\": " << t.usMergeCombine
           << ", \"us_merge_optimize\": " << t.usMergeOptimize
           << ", \"us_merge_legal\": " << t.usMergeLegal
           << ", \"us_opt_copyprop\": " << t.usOptCopyProp
           << ", \"us_opt_gvn\": " << t.usOptGvn
           << ", \"us_opt_predopt\": " << t.usOptPredOpt
           << ", \"us_opt_dce\": " << t.usOptDce
           << ", \"us_opt_coalesce\": " << t.usOptCoalesce
           << ", \"opt_seam_visited\": " << t.seamVisited
           << ", \"opt_seam_total\": " << t.seamTotal
           << ", \"opt_seam_ratio\": " << seam_ratio << "}"
           << (i + 1 < sweep.size() ? "," : "") << "\n";
    }
    os << "  ],\n  \"parallel\": {\"workload\": \"" << kBatchWorkload
       << "\", \"units\": " << kBatchUnits << ", \"runs\": [\n";
    for (size_t i = 0; i < parallel.size(); ++i) {
        const auto &t = parallel[i];
        double speedup =
            t.wallUs > 0 ? static_cast<double>(parallel[0].wallUs) /
                               static_cast<double>(t.wallUs)
                         : 0.0;
        os << "    {\"threads\": " << t.threads
           << ", \"batch_wall_us\": " << t.wallUs
           << ", \"speedup\": " << speedup << "}"
           << (i + 1 < parallel.size() ? "," : "") << "\n";
    }
    os << "  ]},\n  \"generated\": {\"shape\": \"" << kGeneratedShape
       << "\", \"functions\": " << kGeneratedCount << ", \"runs\": [\n";
    for (size_t i = 0; i < generated.size(); ++i) {
        const auto &t = generated[i];
        double fps = t.wallUs > 0
                         ? 1e6 * kGeneratedCount /
                               static_cast<double>(t.wallUs)
                         : 0.0;
        os << "    {\"threads\": " << t.threads
           << ", \"batch_wall_us\": " << t.wallUs
           << ", \"functions_per_sec\": " << fps << "}"
           << (i + 1 < generated.size() ? "," : "") << "\n";
    }
    os << "  ]},\n  \"scaling\": {\"note\": \"synth64/128/256 through "
          "prepare and a one-unit, one-thread full-pipeline compile; "
          "times are median/min/max of the repeats; per-trial counters "
          "come from the first, memo-cold compile\", \"rows\": [\n";
    for (size_t i = 0; i < scaling.size(); ++i) {
        const ScalingTiming &t = scaling[i];
        double trials =
            static_cast<double>(std::max<int64_t>(t.trialsRun, 1));
        auto triple = [&](const char *key, const int64_t v[3]) {
            os << ", \"" << key << "\": " << v[0] << ", \"" << key
               << "_min\": " << v[1] << ", \"" << key << "_max\": "
               << v[2];
        };
        os << "    {\"name\": \"" << t.name << "\", \"blocks\": "
           << t.blocks << ", \"insts\": " << t.insts;
        triple("prepare_us", t.prepareUs);
        triple("formation_us", t.formationUs);
        triple("backend_us", t.backendUs);
        os << ", \"trials_run\": " << t.trialsRun
           << ", \"formation_us_per_trial\": "
           << static_cast<double>(t.coldFormationUs) / trials
           << ", \"liveness_queries\": " << t.livenessQueries
           << ", \"liveness_blocks_solved\": " << t.livenessBlocksSolved
           << ", \"liveness_blocks_solved_per_trial\": "
           << static_cast<double>(t.livenessBlocksSolved) / trials
           << ", \"us_merge_liveness\": " << t.usMergeLiveness << "}"
           << (i + 1 < scaling.size() ? "," : "") << "\n";
    }
    auto triple = [&](const char *key, const double v[3]) {
        os << "\"" << key << "\": " << v[0] << ", \"" << key
           << "_p10\": " << v[1] << ", \"" << key << "_p90\": " << v[2];
    };
    os << "  ]},\n  \"sim\": {\"note\": \"the 43 paper programs "
          "compiled by a default one-thread Session; one pass runs each "
          "once (runTiming includes its scheduleFunction call); "
          "scheduleFunction rows time compiled synth programs; values "
          "are median/p10/p90 of the repeats\", \"programs\": "
       << sim.programs << ", \"timing_insts_per_pass\": "
       << sim.timingInsts << ", \"functional_insts_per_pass\": "
       << sim.functionalInsts << ",\n    ";
    triple("timing_ms_per_pass", sim.timingMs);
    os << ", ";
    triple("timing_insts_per_us", sim.timingInstsPerUs);
    os << ",\n    ";
    triple("functional_ms_per_pass", sim.functionalMs);
    os << ", ";
    triple("functional_insts_per_us", sim.functionalInstsPerUs);
    os << ",\n    \"schedule\": [\n";
    for (size_t i = 0; i < sim.schedule.size(); ++i) {
        const SimTiming::Schedule &row = sim.schedule[i];
        os << "      {\"name\": \"" << row.name << "\", \"blocks\": "
           << row.blocks << ", \"insts\": " << row.insts << ", ";
        triple("schedule_ms", row.ms);
        os << "}" << (i + 1 < sim.schedule.size() ? "," : "") << "\n";
    }
    os << "    ]";
    const TrialMemoStats memo = trialMemoStats();
    os << "},\n  \"memo_store\": {\"hits\": " << memo.hits
       << ", \"misses\": " << memo.misses
       << ", \"evictions\": " << memo.evictions
       << ", \"entries\": " << memo.entries
       << ", \"shards\": " << memo.shards
       << ", \"max_shard_entries\": " << memo.maxShardEntries
       << ", \"capacity\": " << memo.capacity << "}\n}\n";
    std::ofstream f(path);
    f << os.str();
    std::fprintf(stderr, "wrote %s\n", path.c_str());
}

/** Pull "key": <number> out of a small JSON file; -1 if absent. */
int64_t
jsonInt(const std::string &text, const std::string &key)
{
    std::string needle = "\"" + key + "\"";
    size_t at = text.find(needle);
    if (at == std::string::npos)
        return -1;
    at = text.find(':', at);
    if (at == std::string::npos)
        return -1;
    return std::strtoll(text.c_str() + at + 1, nullptr, 10);
}

std::string
jsonString(const std::string &text, const std::string &key)
{
    std::string needle = "\"" + key + "\"";
    size_t at = text.find(needle);
    if (at == std::string::npos)
        return "";
    at = text.find(':', at);
    size_t open = text.find('"', at);
    size_t close = text.find('"', open + 1);
    if (open == std::string::npos || close == std::string::npos)
        return "";
    return text.substr(open + 1, close - open - 1);
}

/**
 * Smoke mode for ctest: time cached formation of the largest speclike
 * workload (default configuration — incremental opt on) and the
 * 4-thread parallel batch, and compare each against the recorded
 * baseline. A >2x regression fails the test. The incremental path is
 * additionally timed against an in-run full-pass measurement
 * (CHF_INCR_OPT=0) — it may not be materially slower than the path it
 * replaces. The batch check is skipped when the baseline predates the
 * batch_wall_us_4t key.
 */
int
runSmoke(const char *baseline_path)
{
#ifndef NDEBUG
    std::fprintf(stderr,
                 "formation_speed_smoke: skipped (unoptimized build; "
                 "timings are not comparable to the baseline)\n");
    (void)baseline_path;
    return 0;
#else
    std::ifstream f(baseline_path);
    if (!f) {
        std::fprintf(stderr, "cannot read baseline %s\n", baseline_path);
        return 1;
    }
    std::stringstream buf;
    buf << f.rdbuf();
    std::string baseline = buf.str();
    std::string name = jsonString(baseline, "workload");
    int64_t baseline_us = jsonInt(baseline, "formation_us_cached");
    if (name.empty() || baseline_us <= 0) {
        std::fprintf(stderr, "malformed baseline %s\n", baseline_path);
        return 1;
    }
    Program prepared;
    if (!buildNamed(name, &prepared)) {
        std::fprintf(stderr, "baseline workload '%s' not found\n",
                     name.c_str());
        return 1;
    }
    prepareProgram(prepared);
    // Untimed warmup: the first compile of the process pays allocator
    // and page-fault costs that would bias whichever configuration is
    // measured first.
    timeFormationUs(prepared, true, true, 1);
    // Default configuration: incremental opt on (unless the caller
    // exported CHF_INCR_OPT=0, which the differential matrix does).
    int64_t us = timeFormationUs(prepared, true, true, 3);
    // Prefer the incremental-path baseline when the file records one;
    // fall back to the full-pass cached number for older baselines.
    int64_t incr_baseline_us = jsonInt(baseline, "formation_us_incropt");
    if (incr_baseline_us > 0)
        baseline_us = incr_baseline_us;
    std::fprintf(stderr,
                 "formation_speed_smoke: %s formation %lld us "
                 "(baseline %lld us, limit %lld us)\n",
                 name.c_str(), static_cast<long long>(us),
                 static_cast<long long>(baseline_us),
                 static_cast<long long>(2 * baseline_us));
    if (us > 2 * baseline_us) {
        std::fprintf(stderr,
                     "FAIL: formation regressed >2x against the "
                     "recorded baseline (%s)\n",
                     baseline_path);
        return 1;
    }

    // The incremental seam path exists to save time; guard it against
    // the full pass measured in the same run (CHF_INCR_OPT=0), with a
    // 1.25x tolerance so single-core scheduling noise cannot flake the
    // gate. A real inversion (incremental materially slower than the
    // path it replaces) still fails.
    int64_t full_us =
        timeFormationUs(prepared, true, true, 3, nullptr, 1, false);
    std::fprintf(stderr,
                 "formation_speed_smoke: incremental-opt %lld us vs "
                 "full-pass %lld us (limit %lld us)\n",
                 static_cast<long long>(us),
                 static_cast<long long>(full_us),
                 static_cast<long long>(full_us + full_us / 4));
    if (us > full_us + full_us / 4) {
        std::fprintf(stderr,
                     "FAIL: incremental trial optimization is >1.25x "
                     "slower than the full pass it replaces "
                     "(CHF_INCR_OPT=0) in the same run\n");
        return 1;
    }

    // The trial-merge fast path must keep beating the cached formation
    // wall time recorded before it existed (the pre-fast-path seed);
    // losing that bound means the memo/pre-screen stopped paying off.
    int64_t seed_us = jsonInt(baseline, "formation_us_seed_cached");
    if (seed_us > 0) {
        std::fprintf(stderr,
                     "formation_speed_smoke: trial-cache-on %lld us vs "
                     "pre-fast-path seed %lld us\n",
                     static_cast<long long>(us),
                     static_cast<long long>(seed_us));
        if (us > seed_us) {
            std::fprintf(stderr,
                         "FAIL: trial-cache formation is slower than "
                         "the pre-fast-path seed baseline (%s)\n",
                         baseline_path);
            return 1;
        }
    } else {
        std::fprintf(stderr,
                     "formation_speed_smoke: no formation_us_seed_cached "
                     "in baseline; trial-cache check skipped\n");
    }

    int64_t batch_baseline_us = jsonInt(baseline, "batch_wall_us_4t");
    const unsigned hw = std::thread::hardware_concurrency();
    if (batch_baseline_us > 0 && hw < 4) {
        // On fewer than 4 cores a 4-thread batch measures scheduler
        // contention, not compiler speed; comparing it against a
        // baseline recorded elsewhere would flag phantom regressions
        // (or mask real ones). Skip rather than guess.
        std::fprintf(stderr,
                     "formation_speed_smoke: hardware_concurrency=%u "
                     "< 4; 4-thread batch check skipped (timings on "
                     "an oversubscribed machine are not comparable)\n",
                     hw);
    } else if (batch_baseline_us > 0) {
        int64_t batch_us =
            timeBatchWallUs(prepared, kBatchUnits, 4, 3);
        std::fprintf(
            stderr,
            "formation_speed_smoke: %dx %s batch at 4 threads "
            "%lld us (baseline %lld us, limit %lld us)\n",
            kBatchUnits, name.c_str(),
            static_cast<long long>(batch_us),
            static_cast<long long>(batch_baseline_us),
            static_cast<long long>(2 * batch_baseline_us));
        if (batch_us > 2 * batch_baseline_us) {
            std::fprintf(stderr,
                         "FAIL: 4-thread session batch regressed >2x "
                         "against the recorded baseline (%s)\n",
                         baseline_path);
            return 1;
        }
    } else {
        std::fprintf(stderr,
                     "formation_speed_smoke: no batch_wall_us_4t in "
                     "baseline; parallel check skipped\n");
    }
    return 0;
#endif
}

} // namespace

int
main(int argc, char **argv)
{
    bool json_only = false;
    const char *smoke_baseline = nullptr;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json-only") == 0)
            json_only = true;
        else if (std::strcmp(argv[i], "--smoke") == 0 && i + 1 < argc)
            smoke_baseline = argv[++i];
    }

    if (smoke_baseline)
        return runSmoke(smoke_baseline);

    if (!json_only) {
        benchmark::Initialize(&argc, argv);
        benchmark::RunSpecifiedBenchmarks();
    }

    std::vector<FormationTiming> sweep = sweepFormation(3);
    std::vector<ParallelTiming> parallel = sweepParallel(3);
    std::vector<GeneratedTiming> generated = sweepGenerated(3);
    std::vector<ScalingTiming> scaling = sweepScaling(5);
    SimTiming sim = sweepSim(7);
    writeJson("BENCH_pass_speed.json", sweep, parallel, generated,
              scaling, sim);
    if (const FormationTiming *big = largestWorkload(sweep)) {
        double speedup =
            big->cachedUs > 0
                ? static_cast<double>(big->nocacheUs) /
                      static_cast<double>(big->cachedUs)
                : 0.0;
        std::fprintf(stderr,
                     "largest workload %s: cached %lld us, "
                     "no-cache %lld us (%.1fx)\n",
                     big->name.c_str(),
                     static_cast<long long>(big->cachedUs),
                     static_cast<long long>(big->nocacheUs), speedup);
    }
    return 0;
}
