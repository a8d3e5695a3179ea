/**
 * @file
 * The three single-caller workloads: paper_suite (one table cell per
 * unit), large_fn (one module of three large functions per unit) and
 * batch_4t (one 32-unit Session compiled on four threads per unit).
 *
 * Each runs a closed loop over whole rounds: a round runs every input
 * once in a seeded order, and the clock is read only between rounds,
 * so every run measures the same mix of units.
 *
 * Every round runs in a process of its own, forked from the driver
 * after set-up, and sends what it measured back through a pipe. The
 * failed-trial memo (src/hyperblock/merge.cpp) is process-wide and
 * keyed by content, so in one process every round after the first
 * would answer most failed trials from the memo: the units would time
 * memo-warm recompiles that no caller of a table cell or a module
 * compile sees. A fresh process starts each round with an empty memo,
 * as a caller's first compile of these programs does.
 *
 * The two one-thread workloads move their caller from CPU to CPU
 * between compiles and between set-ups. A lone busy thread otherwise
 * stays on whichever CPU the scheduler gave it first, and on a shared
 * host that CPU's neighbour load then sets the speed of the whole run
 * (on a 4-vCPU VM, runs of one seed differed by up to 1.5x); spreading
 * compiles over all CPUs averages it out. batch_4t does not rotate: its pool threads
 * inherit the caller's CPU mask.
 */

#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <numeric>
#include <type_traits>

#include "bench.h"
#include "hyperblock/merge.h"
#include "pipeline/session.h"
#include "sim/functional_sim.h"
#include "sim/timing_sim.h"
#include "workloads/generator.h"
#include "workloads/workloads.h"

namespace chf::perfbench {

namespace {

/** Fisher-Yates shuffle driven by the workload seed. */
void
shuffle(std::vector<size_t> &order, Rng &rng)
{
    for (size_t i = order.size(); i > 1; --i)
        std::swap(order[i - 1], order[rng.below(i)]);
}

/** Pins the calling thread to one allowed CPU at a time, round robin,
 *  and restores its original mask on destruction. */
class CpuRotation
{
  public:
    CpuRotation()
    {
        if (sched_getaffinity(0, sizeof original, &original) != 0)
            return;
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
            if (CPU_ISSET(cpu, &original))
                cpus.push_back(cpu);
    }

    ~CpuRotation()
    {
        if (!cpus.empty())
            sched_setaffinity(0, sizeof original, &original);
    }

    CpuRotation(const CpuRotation &) = delete;
    CpuRotation &operator=(const CpuRotation &) = delete;

    /** Move to the CPU for step @p step (no-op with one CPU). */
    void
    moveTo(uint64_t step)
    {
        if (cpus.size() < 2)
            return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus[step % cpus.size()], &one);
        sched_setaffinity(0, sizeof one, &one);
    }

  private:
    cpu_set_t original{};
    std::vector<int> cpus;
};

/** Byte stream of one round's results, from the child to the driver. */
class Wire
{
  public:
    template <class T>
    void
    put(const T &value)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        bytes.append(reinterpret_cast<const char *>(&value), sizeof value);
    }

    void
    put(const std::string &text)
    {
        put(text.size());
        bytes += text;
    }

    /** Next value; sets bad (and returns T{}) past the end. */
    template <class T>
    T
    get()
    {
        static_assert(std::is_trivially_copyable_v<T>);
        T value{};
        if (bytes.size() - at < sizeof value) {
            bad = true;
            return value;
        }
        std::memcpy(&value, bytes.data() + at, sizeof value);
        at += sizeof value;
        return value;
    }

    std::string
    getString()
    {
        size_t n = get<size_t>();
        if (bad || bytes.size() - at < n) {
            bad = true;
            return {};
        }
        at += n;
        return bytes.substr(at - n, n);
    }

    std::string bytes;
    size_t at = 0;
    bool bad = false;
};

/** Ends a complete round record. */
constexpr uint64_t kRoundEnd = 0x726f756e64656e64ull;

/**
 * Write what one round added to @p res: its counters (the child zeroed
 * them before the round), the samples and spans from @p firstSample
 * and @p firstSpan on, and the quality records.
 */
void
writeRound(Wire &w, const RunResult &res, size_t firstSample,
           size_t firstSpan)
{
    w.put(res.measuredSeconds);
    w.put(res.attempted);
    w.put(res.failed);
    w.put(res.tracedUnits);
    w.put(res.timingCycles);
    w.put(res.peakRssMb);
    w.put(res.samples.size() - firstSample);
    for (size_t i = firstSample; i < res.samples.size(); ++i)
        w.put(res.samples[i]);
    w.put(res.compileStats.entries().size());
    for (const auto &[key, value] : res.compileStats.entries()) {
        w.put(key);
        w.put(value);
    }
    w.put(res.quality.size());
    for (const auto &[input, q] : res.quality) {
        w.put(input);
        w.put(q);
    }
    std::vector<Span> spans = res.tracer->spansFrom(firstSpan);
    w.put(spans.size());
    for (const Span &span : spans) {
        // Span names are string literals; a forked child shares the
        // driver's image, so the pointer is valid on both sides.
        w.put(span.name);
        w.put(span.startUs);
        w.put(span.endUs);
        w.put(span.parent);
        w.put(span.unit);
        w.put(span.thread);
        w.put(span.args.size());
        for (const auto &[key, value] : span.args) {
            w.put(key);
            w.put(value);
        }
    }
    w.put(kRoundEnd);
}

/** Fold a round written by writeRound into @p res; false if torn. */
bool
readRound(Wire &w, RunResult &res)
{
    res.measuredSeconds += w.get<double>();
    res.attempted += w.get<uint64_t>();
    res.failed += w.get<uint64_t>();
    res.tracedUnits += w.get<uint64_t>();
    res.timingCycles += w.get<int64_t>();
    res.peakRssMb = std::max(res.peakRssMb, w.get<double>());
    for (size_t n = w.get<size_t>(); n > 0 && !w.bad; --n)
        res.samples.push_back(w.get<Sample>());
    for (size_t n = w.get<size_t>(); n > 0 && !w.bad; --n) {
        std::string key = w.getString();
        res.compileStats.add(key, w.get<int64_t>());
    }
    for (size_t n = w.get<size_t>(); n > 0 && !w.bad; --n) {
        std::string input = w.getString();
        res.quality.emplace(input, w.get<Quality>());
    }
    std::vector<Span> spans;
    for (size_t n = w.get<size_t>(); n > 0 && !w.bad; --n) {
        Span span;
        span.name = w.get<const char *>();
        span.startUs = w.get<double>();
        span.endUs = w.get<double>();
        span.parent = w.get<uint32_t>();
        span.unit = w.get<uint64_t>();
        span.thread = w.get<uint32_t>();
        for (size_t a = w.get<size_t>(); a > 0 && !w.bad; --a) {
            std::string key = w.getString();
            span.args.emplace_back(key, w.get<int64_t>());
        }
        spans.push_back(std::move(span));
    }
    res.tracer->append(std::move(spans));
    return w.get<uint64_t>() == kRoundEnd && !w.bad;
}

size_t
threadCount()
{
    std::error_code ec;
    size_t n = 0;
    for (std::filesystem::directory_iterator it("/proc/self/task", ec), end;
         !ec && it != end; it.increment(ec))
        ++n;
    return n;
}

/**
 * Run @p round in a forked child and fold what it measured into
 * @p res. False, with a failure counted, when the round could not run
 * or its child did not report. The driver must be single-threaded to
 * fork, and must not have compiled anything, so that the child's trial
 * memo is empty; the child checks the latter.
 */
template <class Round>
bool
inFreshProcess(RunResult &res, Round &&round)
{
    if (threadCount() != 1) {
        res.fail("driver is not single-threaded; cannot fork a round");
        return false;
    }
    int fds[2];
    if (pipe(fds) != 0) {
        res.fail("cannot open a pipe for a round");
        return false;
    }
    std::fflush(stdout);
    std::fflush(stderr);
    pid_t driver = getpid();
    pid_t pid = fork();
    if (pid < 0) {
        close(fds[0]);
        close(fds[1]);
        res.fail("cannot fork a round");
        return false;
    }
    if (pid == 0) {
        close(fds[0]);
        // A driver killed on timeout takes its round with it.
        prctl(PR_SET_PDEATHSIG, SIGKILL);
        if (getppid() != driver)
            _exit(1);
        size_t firstSample = res.samples.size();
        size_t firstSpan = res.tracer->size();
        res.measuredSeconds = 0;
        res.attempted = res.failed = res.tracedUnits = 0;
        res.timingCycles = 0;
        res.compileStats = StatSet();
        if (trialMemoStats().entries != 0)
            res.fail("trial memo not empty at round start");
        if (!resetPeakRss())
            std::fprintf(stderr, "perfbench: cannot reset the peak "
                                 "resident memory mark\n");
        try {
            round();
        } catch (const std::exception &e) {
            res.fail(std::string("round threw: ") + e.what());
        }
        res.peakRssMb = peakRssMb();
        Wire w;
        writeRound(w, res, firstSample, firstSpan);
        for (size_t at = 0; at < w.bytes.size();) {
            ssize_t n = write(fds[1], w.bytes.data() + at,
                              w.bytes.size() - at);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                _exit(1);
            at += static_cast<size_t>(n);
        }
        _exit(0);
    }
    close(fds[1]);
    Wire w;
    char buf[1 << 16];
    for (;;) {
        ssize_t n = read(fds[0], buf, sizeof buf);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        w.bytes.append(buf, static_cast<size_t>(n));
    }
    close(fds[0]);
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
        !readRound(w, res)) {
        res.fail("a round's process died without reporting");
        return false;
    }
    return true;
}

/**
 * Closed loop over whole rounds of @p inputs units, each round in a
 * fresh process. @p unit runs one unit: (input, tracer or null, unit
 * span id, unit index) -> problems (empty when the unit is correct).
 * @p check then runs off the clock, for checks that need not be timed:
 * (input) -> problems. In a traced run, odd rounds are traced. With
 * @p cpus set, input i of round r runs on CPU (i + r / 2) mod n: every
 * input visits every CPU in turn, whatever order the seed draws, and
 * its untraced and traced runs of a round pair share a CPU, which
 * trace.overhead_ratio compares.
 *
 * measuredSeconds sums the unit latencies: with one caller that is the
 * caller's time, without the forks and checks between units.
 */
template <class Unit, class Check>
void
closedLoop(const Options &opts, RunResult &res, size_t inputs,
           const std::vector<std::string> &names, CpuRotation *cpus,
           Unit &&unit, Check &&check)
{
    Rng rng(opts.seed);
    std::vector<size_t> order(inputs);
    uint64_t index = 0;
    double deadline = nowUs() + opts.seconds * 1e6;
    for (uint64_t round = 0;; ++round) {
        std::iota(order.begin(), order.end(), 0);
        shuffle(order, rng);
        bool ran = inFreshProcess(res, [&] {
            uint64_t at = index;
            for (size_t input : order) {
                if (cpus)
                    cpus->moveTo(input + round / 2);
                bool traced = traceUnit(opts, round);
                Tracer *tracer = traced ? res.tracer.get() : nullptr;
                double t0 = nowUs();
                std::string why;
                {
                    SpanScope span(tracer, "unit", at, kNoSpan);
                    why = unit(input, tracer, span.spanId(), at);
                }
                double t1 = nowUs();
                why += check(input);
                res.samples.push_back(
                    {t1 - t0, static_cast<uint32_t>(input), traced});
                res.measuredSeconds += (t1 - t0) / 1e6;
                ++res.attempted;
                if (traced)
                    ++res.tracedUnits;
                if (!why.empty())
                    res.fail(names[input] + ":" + why);
                ++at;
            }
        });
        index += inputs;
        if (!ran || nowUs() >= deadline)
            break;
    }
}

/** For units whose checks all run inside the timed unit. */
std::string
noCheck(size_t)
{
    return "";
}

/** The program's phase timers, attached to a compile span. */
std::vector<std::pair<std::string, int64_t>>
phaseArgs(const StatSet &totals)
{
    std::vector<std::pair<std::string, int64_t>> args;
    for (const auto &[key, value] : totals.entries())
        if (key.rfind("us", 0) == 0)
            args.emplace_back(key, value);
    return args;
}

/** Compile @p program as a one-unit, one-thread Session in place. */
SessionResult
compileTraced(Program &program, const ProfileData &profile,
              const std::string &name, Tracer *tracer, uint32_t parent,
              uint64_t index)
{
    Session session;
    session.addProgramRef(program, profile, name);
    SpanScope span(tracer, "compile", index, parent);
    SessionResult result = session.compile(1);
    if (tracer)
        span.args = phaseArgs(result.totals);
    return result;
}

/** Problems of one compiled unit: degradation and determinism. */
std::string
compileProblems(RunResult &res, const std::string &name,
                const FunctionResult &fr, const Quality &q)
{
    std::string why;
    if (fr.degraded())
        why += " unit degraded;";
    why += res.recordQuality(name, q);
    return why;
}

} // namespace

RunResult
runPaperSuite(const Options &opts)
{
    RunResult res;
    res.tailPercentile = 90;
    CpuRotation cpus;
    uint64_t setups = 0;

    struct Cell
    {
        const Workload *workload;
        Oracle oracle;
    };
    std::vector<Cell> cells = timedSetup(opts, res, [&] {
        cpus.moveTo(setups++);
        std::vector<Cell> out;
        auto add = [&](const std::vector<Workload> &suite) {
            for (const Workload &w : suite) {
                Program program = buildWorkload(w);
                prepareProgram(program);
                out.push_back({&w, oracleOf(program)});
            }
        };
        add(microbenchmarks());
        add(speclikeBenchmarks());
        return out;
    });

    std::vector<std::string> names;
    for (const Cell &cell : cells)
        names.push_back(cell.workload->name);

    closedLoop(opts, res, cells.size(), names, &cpus,
               [&](size_t input, Tracer *tracer, uint32_t parent,
                   uint64_t index) {
        const Cell &cell = cells[input];
        Program program;
        {
            SpanScope span(tracer, "frontend", index, parent);
            program = buildWorkload(*cell.workload);
        }
        ProfileData profile;
        {
            SpanScope span(tracer, "prepare", index, parent);
            profile = prepareProgram(program);
        }
        SessionResult result = compileTraced(
            program, profile, names[input], tracer, parent, index);
        TimingResult timing;
        {
            SpanScope span(tracer, "sim.timing", index, parent);
            timing = runTiming(program);
        }
        FuncSimResult functional;
        {
            SpanScope span(tracer, "sim.functional", index, parent);
            functional = runFunctional(program);
        }
        if (tracer) {
            res.compileStats.merge(result.totals);
            res.timingCycles += static_cast<int64_t>(timing.cycles);
        }

        const FunctionResult &fr = result.functions[0];
        Quality q = qualityOf(result.totals,
                              static_cast<int64_t>(fr.blocks),
                              static_cast<int64_t>(fr.insts));
        q.cycles = static_cast<int64_t>(timing.cycles);
        std::string why = oracleProblems(functional, cell.oracle);
        if (timing.returnValue != cell.oracle.returnValue)
            why += " timing-model return value differs;";
        return why + compileProblems(res, names[input], fr, q);
    }, noCheck);
    return res;
}

RunResult
runLargeFn(const Options &opts)
{
    RunResult res;
    // The unit is one module: the 64-, 128- and 256-region functions
    // compiled in a seeded order. Per-compile latencies of three sizes
    // put the median on a handful of synth128 samples, which host noise
    // moved by more than the benchmark's bound between runs; a module
    // averages over all three. A run has too few modules for any
    // percentile above the median to have ten samples beyond it.
    res.tailPercentile = 50;
    CpuRotation cpus;
    uint64_t setups = 0;

    struct Input
    {
        Workload workload;
        Oracle oracle;
    };
    std::vector<Input> inputs = timedSetup(opts, res, [&] {
        cpus.moveTo(setups++);
        std::vector<Input> out;
        for (int regions : {64, 128, 256}) {
            Workload w = synthFormationWorkload(regions);
            Program program = buildWorkload(w);
            prepareProgram(program);
            Oracle oracle = oracleOf(program);
            out.push_back({std::move(w), oracle});
        }
        return out;
    });

    // What each function of the current module compiled to; the
    // off-clock check simulates its cycles and records its quality.
    struct Done
    {
        Program program;
        Quality quality;
    };
    std::vector<Done> done(inputs.size());
    std::vector<size_t> order(inputs.size());

    closedLoop(opts, res, 1, {"module"}, nullptr,
               [&](size_t, Tracer *tracer, uint32_t parent,
                   uint64_t index) {
        // Each module runs in its own process, so its order is drawn
        // from (seed, module) rather than from a running generator.
        Rng rng(opts.seed ^ (index * 0x9e3779b97f4a7c15ull));
        std::iota(order.begin(), order.end(), 0);
        shuffle(order, rng);
        std::string why;
        for (size_t i : order) {
            // Every function visits every CPU in turn; a traced module
            // and the untraced one before it share CPUs.
            cpus.moveTo(i + index / 2);
            const Input &in = inputs[i];
            const std::string &name = in.workload.name;
            Program program;
            {
                SpanScope span(tracer, "frontend", index, parent);
                program = buildWorkload(in.workload);
            }
            ProfileData profile;
            {
                SpanScope span(tracer, "prepare", index, parent);
                profile = prepareProgram(program);
            }
            SessionResult result = compileTraced(program, profile, name,
                                                 tracer, parent, index);
            FuncSimResult functional;
            {
                SpanScope span(tracer, "sim.functional", index, parent);
                functional = runFunctional(program);
            }
            if (tracer)
                res.compileStats.merge(result.totals);

            const FunctionResult &fr = result.functions[0];
            std::string problems = oracleProblems(functional, in.oracle);
            if (fr.degraded())
                problems += " unit degraded;";
            if (!problems.empty())
                why += " " + name + ":" + problems;
            done[i] = {std::move(program),
                       qualityOf(result.totals,
                                 static_cast<int64_t>(fr.blocks),
                                 static_cast<int64_t>(fr.insts))};
        }
        return why;
    }, [&](size_t) {
        // Cycles are a quality count here, not part of the unit.
        std::string why;
        for (size_t i = 0; i < inputs.size(); ++i) {
            Done &d = done[i];
            d.quality.cycles =
                static_cast<int64_t>(runTiming(d.program).cycles);
            why += res.recordQuality(inputs[i].workload.name, d.quality);
        }
        return why;
    });
    return res;
}

RunResult
runBatch4t(const Options &opts)
{
    constexpr int kUnits = 32;
    constexpr int kThreads = 4;
    RunResult res;
    res.threads = kThreads;
    res.tailPercentile = 66;

    struct Unit
    {
        std::string name;
        Program prepared;
        ProfileData profile;
        Oracle oracle;
    };
    // Every 4th unit is synth64; the rest are fixed generated programs
    // whose order among the remaining slots the seed permutes.
    std::vector<size_t> genOrder(kUnits - kUnits / 4);
    std::iota(genOrder.begin(), genOrder.end(), 1);
    Rng rng(opts.seed);
    shuffle(genOrder, rng);

    std::vector<Unit> units = timedSetup(opts, res, [&] {
        GeneratorShape shape;
        namedShape("bench", &shape);
        std::vector<Unit> out;
        size_t nextGen = 0;
        for (int i = 0; i < kUnits; ++i) {
            Unit u;
            if (i % 4 == 0) {
                u.name = "synth64#" + std::to_string(i / 4);
                u.prepared = buildWorkload(synthFormationWorkload(64));
            } else {
                size_t genSeed = genOrder[nextGen++];
                u.name = "gen" + std::to_string(genSeed);
                u.prepared = buildGenerated(generateTinyC(genSeed, shape));
            }
            u.profile = prepareProgram(u.prepared);
            u.oracle = oracleOf(u.prepared);
            out.push_back(std::move(u));
        }
        return out;
    });

    std::unique_ptr<Session> last;
    SessionResult lastResult;
    closedLoop(opts, res, 1, {"batch"}, nullptr,
               [&](size_t, Tracer *tracer, uint32_t parent,
                   uint64_t index) {
        auto session = std::make_unique<Session>(
            SessionOptions().withThreads(kThreads));
        {
            SpanScope span(tracer, "session.build", index, parent);
            for (const Unit &u : units)
                session->addProgram(cloneProgram(u.prepared), u.profile,
                                    u.name);
        }
        SessionResult result;
        {
            SpanScope span(tracer, "compile", index, parent);
            result = session->compile();
            if (tracer)
                span.args = phaseArgs(result.totals);
        }
        std::string why;
        {
            SpanScope span(tracer, "sim.functional", index, parent);
            for (size_t i = 0; i < units.size(); ++i) {
                std::string problems = oracleProblems(
                    runFunctional(session->program(i)), units[i].oracle);
                if (result.functions[i].degraded())
                    problems += " unit degraded;";
                if (!problems.empty())
                    why += " " + units[i].name + ":" + problems;
            }
        }
        if (tracer)
            res.compileStats.merge(result.totals);
        last = std::move(session);
        lastResult = std::move(result);
        return why;
    }, [&](size_t) {
        // Cycles are a quality count here, not part of the unit.
        std::string why;
        for (size_t i = 0; i < units.size(); ++i) {
            const FunctionResult &fr = lastResult.functions[i];
            Quality q = qualityOf(fr.stats,
                                  static_cast<int64_t>(fr.blocks),
                                  static_cast<int64_t>(fr.insts));
            q.cycles =
                static_cast<int64_t>(runTiming(last->program(i)).cycles);
            std::string problems = res.recordQuality(units[i].name, q);
            if (!problems.empty())
                why += " " + units[i].name + ":" + problems;
        }
        return why;
    });
    return res;
}

} // namespace chf::perfbench
