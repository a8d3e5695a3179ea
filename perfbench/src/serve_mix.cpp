/**
 * @file
 * serve_mix: four closed-loop clients call CompileServer::handle on
 * one in-process server (maxInFlight = 4), the way chf_serve callers
 * each wait for their reply.
 *
 * The seeded request stream is ~70% fresh `gen:"seed:S,shape:bench"`
 * specs (S = 1, 2, 3, ... in order, so every run compiles the same
 * programs), ~15% exact repeats of a request 16-64 places back (a
 * response-cache hit) and ~15% resends of a recent spec with
 * "target":"small-block" (a cache miss on identical IR). The seed
 * decides the mix and which earlier requests come back.
 *
 * Every response is checked against a direct compile of the same spec
 * and target that itself passed the functional oracle. Set-up computes
 * these references for specs 1..kQualitySpecs on both targets (they
 * also give the workload's deterministic quality counts); requests
 * beyond them are checked after the timed phase. References run with
 * the trial cache off: that keeps them out of the process-wide trial
 * memo the server would otherwise find warm, and makes each check a
 * differential one (fast path in the server, slow path here).
 */

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "bench.h"
#include "pipeline/server.h"
#include "pipeline/session.h"
#include "sim/timing_sim.h"
#include "support/random.h"
#include "workloads/generator.h"

namespace chf::perfbench {

namespace {

constexpr int kClients = 4;
constexpr uint64_t kQualitySpecs = 128;
constexpr uint64_t kRepeatPct = 15;
constexpr uint64_t kSmallBlockPct = 15;

/** A request's content: generator seed and target (cache identity). */
struct Key
{
    uint64_t spec = 0;
    bool smallBlock = false;

    uint64_t code() const { return spec * 2 + (smallBlock ? 1 : 0); }
    static Key of(uint64_t code) { return {code / 2, code % 2 == 1}; }

    std::string
    genSpec() const
    {
        return "seed:" + std::to_string(spec) + ",shape:bench";
    }
};

/** The seeded request stream, generated in order on demand. */
class Stream
{
  public:
    explicit Stream(uint64_t seed) : rng(seed) {}

    /** Next request's index and content. Thread-safe. */
    std::pair<uint64_t, Key>
    next()
    {
        std::lock_guard<std::mutex> guard(lock);
        uint64_t index = codes.size();
        uint64_t roll = rng.below(100);
        uint64_t code = 0;
        if (roll < kRepeatPct && index >= 16) {
            uint64_t lo = index >= 64 ? index - 64 : 0;
            code = codes[lo + rng.below(index - 16 - lo + 1)];
        } else if (roll < kRepeatPct + kSmallBlockPct &&
                   !notResent.empty()) {
            size_t pick = rng.below(notResent.size());
            code = Key{notResent[pick], true}.code();
            notResent.erase(notResent.begin() +
                            static_cast<std::ptrdiff_t>(pick));
        } else {
            uint64_t spec = nextSpec++;
            code = Key{spec, false}.code();
            notResent.push_back(spec);
            if (notResent.size() > 32)
                notResent.pop_front();
        }
        codes.push_back(code);
        return {index, Key::of(code)};
    }

  private:
    std::mutex lock;
    Rng rng;                        ///< guarded by lock
    std::vector<uint64_t> codes;    ///< guarded by lock
    std::deque<uint64_t> notResent; ///< guarded by lock
    uint64_t nextSpec = 1;          ///< guarded by lock
};

std::string
requestLine(uint64_t index, const Key &key)
{
    std::string line = "{\"op\":\"compile\",\"id\":" +
                       std::to_string(index) + ",\"gen\":\"" +
                       key.genSpec() + "\"";
    if (key.smallBlock)
        line += ",\"target\":\"small-block\"";
    return line + "}";
}

/** Integer field @p name of a flat response, or -1. */
int64_t
intField(const std::string &response, const char *name)
{
    std::string pat = std::string("\"") + name + "\":";
    size_t at = response.find(pat);
    if (at == std::string::npos)
        return -1;
    return std::strtoll(response.c_str() + at + pat.size(), nullptr, 10);
}

bool
hasField(const std::string &response, const char *field)
{
    return response.find(field) != std::string::npos;
}

/** What one response said. */
struct Answer
{
    uint64_t code = 0;
    int64_t blocks = -1;
    int64_t insts = -1;
    bool ok = false;
};

/** Direct compile of a request's content, checked by the oracle. */
struct Reference
{
    Quality quality;
    std::string problems;
};

/** Direct compile of @p key; the timing model runs only @p withCycles
 *  (cycles are a quality count, taken for the set-up references). */
Reference
referenceCompile(const Key &key, bool withCycles)
{
    Reference ref;
    uint64_t seed = 0;
    GeneratorShape shape;
    std::string err;
    if (!parseGenSpec(key.genSpec(), &seed, &shape, &err)) {
        ref.problems = " bad gen spec: " + err;
        return ref;
    }
    // Mirrors the server's compile of a gen request: keep_going is on
    // by default there, so prepare and compile run guarded.
    Program program = buildGenerated(generateTinyC(seed, shape));
    DiagnosticEngine diags;
    ProfileData profile = prepareProgram(program, {}, true, &diags, true);
    Oracle oracle = oracleOf(program);
    Session session(SessionOptions()
                        .withPipeline(Pipeline::IUPO_fused)
                        .withTarget(key.smallBlock ? "small-block" : "trips")
                        .withKeepGoing(true)
                        .withTrialCache(false)
                        .withThreads(1));
    session.addProgramRef(program, profile);
    SessionResult result = session.compile();
    const FunctionResult &fr = result.functions[0];
    ref.quality = qualityOf(result.totals, static_cast<int64_t>(fr.blocks),
                            static_cast<int64_t>(fr.insts));
    if (withCycles)
        ref.quality.cycles =
            static_cast<int64_t>(runTiming(program).cycles);
    if (fr.degraded())
        ref.problems += " reference compile degraded;";
    ref.problems += oracleProblems(runFunctional(program), oracle);
    return ref;
}

using References = std::unordered_map<uint64_t, Reference>;

/** Compute references for @p codes on kClients threads. */
void
addReferences(References &refs, const std::vector<uint64_t> &codes,
              bool withCycles)
{
    std::vector<Reference> out(codes.size());
    std::atomic<size_t> next{0};
    auto worker = [&] {
        for (size_t i; (i = next.fetch_add(1)) < codes.size();) {
            try {
                out[i] = referenceCompile(Key::of(codes[i]), withCycles);
            } catch (const std::exception &e) {
                out[i].problems = std::string(" reference threw: ") +
                                  e.what();
            }
        }
    };
    std::vector<std::thread> threads;
    for (int t = 0; t < kClients; ++t)
        threads.emplace_back(worker);
    for (std::thread &t : threads)
        t.join();
    for (size_t i = 0; i < codes.size(); ++i)
        refs[codes[i]] = std::move(out[i]);
}

} // namespace

RunResult
runServeMix(const Options &opts)
{
    RunResult res;
    res.tailPercentile = 99;

    References refs = timedSetup(opts, res, [] {
        std::vector<uint64_t> codes;
        for (uint64_t spec = 1; spec <= kQualitySpecs; ++spec)
            for (bool small : {false, true})
                codes.push_back(Key{spec, small}.code());
        References out;
        addReferences(out, codes, true);
        return out;
    });
    for (const auto &[code, ref] : refs) {
        Key key = Key::of(code);
        res.quality.emplace(
            key.genSpec() + (key.smallBlock ? "@small-block" : "@trips"),
            ref.quality);
    }

    ServerOptions serverOpts;
    serverOpts.threads = 1;
    serverOpts.maxInFlight = kClients;
    CompileServer server(serverOpts);
    Stream stream(opts.seed);

    // The peak memory reported is the server traffic's, not set-up's.
    if (!resetPeakRss())
        std::fprintf(stderr, "perfbench: cannot reset the peak resident "
                             "memory mark\n");

    std::vector<std::vector<Sample>> samples(kClients);
    std::vector<std::vector<Answer>> answers(kClients);
    std::vector<uint64_t> traced(kClients, 0);
    double start = nowUs();
    double deadline = start + opts.seconds * 1e6;
    std::atomic<double> lastDone{start};
    auto client = [&](int id) {
        while (nowUs() < deadline) {
            auto [index, key] = stream.next();
            std::string line = requestLine(index, key);
            bool tracedUnit = traceUnit(opts, index);
            Tracer *tracer = tracedUnit ? res.tracer.get() : nullptr;
            auto thread = static_cast<uint32_t>(id);
            std::string response;
            double t0 = nowUs();
            {
                SpanScope unit(tracer, "unit", index, kNoSpan, thread);
                SpanScope handle(tracer, "server.handle", index,
                                 unit.spanId(), thread);
                response = server.handle(line);
            }
            double t1 = nowUs();
            samples[id].push_back({t1 - t0, 0, tracedUnit});
            traced[id] += tracedUnit ? 1 : 0;
            answers[id].push_back(
                {key.code(), intField(response, "blocks"),
                 intField(response, "insts"),
                 hasField(response, "\"status\":\"ok\"") &&
                     hasField(response, "\"degraded\":false")});
            double seen = lastDone.load();
            while (seen < t1 && !lastDone.compare_exchange_weak(seen, t1)) {
            }
        }
    };
    std::vector<std::thread> clients;
    for (int id = 0; id < kClients; ++id)
        clients.emplace_back(client, id);
    for (std::thread &t : clients)
        t.join();
    res.measuredSeconds = (lastDone.load() - start) / 1e6;
    res.peakRssMb = peakRssMb();

    ServerStats stats = server.stats();
    res.serverRequests = stats.requests;
    res.serverCompiled = stats.compiled;
    res.serverCacheHits = stats.cacheHits;
    res.serverShed = stats.shed;

    // Check every response: reference any content set-up did not.
    std::vector<uint64_t> missing;
    for (const auto &perClient : answers)
        for (const Answer &a : perClient)
            if (refs.emplace(a.code, Reference{}).second) // filled below
                missing.push_back(a.code);
    addReferences(refs, missing, false);

    for (int id = 0; id < kClients; ++id) {
        res.samples.insert(res.samples.end(), samples[id].begin(),
                           samples[id].end());
        res.tracedUnits += traced[id];
        for (const Answer &a : answers[id]) {
            ++res.attempted;
            const Reference &ref = refs.at(a.code);
            std::string why = ref.problems;
            if (!a.ok)
                why += " response status not ok or degraded;";
            if (a.blocks != ref.quality.blocks ||
                a.insts != ref.quality.insts)
                why += " blocks/insts differ from the reference;";
            if (!why.empty())
                res.fail(Key::of(a.code).genSpec() + ":" + why);
        }
    }
    return res;
}

} // namespace chf::perfbench
