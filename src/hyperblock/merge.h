/**
 * @file
 * The MergeBlocks procedure of convergent hyperblock formation (paper
 * Fig. 5, lines 1-17).
 *
 * A merge is tested in scratch space: HB and S are copied, combined via
 * incremental if-conversion, optionally optimized, and checked against
 * the structural constraints; only then is the CFG transformed. On
 * success the engine classifies the merge:
 *
 *  - Simple:   S had one predecessor; S is removed outright.
 *  - TailDup:  S had side entrances; S stays for the other paths
 *              (classical tail duplication, Fig. 2).
 *  - Peel:     S is a loop header entered from outside the loop; the
 *              merged copy is a peeled iteration (head duplication,
 *              Fig. 3).
 *  - Unroll:   HB -> S is HB's own back edge; the merged copy is an
 *              unrolled iteration (head duplication, Fig. 4). The
 *              original loop body is saved on first unroll and appended
 *              one pristine iteration at a time, so unroll factors are
 *              not limited to powers of two (paper §4.1).
 *
 * The engine owns an AnalysisManager: loop / predecessor / liveness
 * queries are answered from one cached snapshot per candidate, and the
 * engine reports every CFG mutation it commits so the cache stays
 * exact. Failed merges leave the CFG -- and thus the cache -- intact.
 *
 * Trial-merge fast path (DESIGN.md §10). The convergent loop retries
 * failed candidates after every successful merge, so most trials are
 * repeats. Three cooperating layers make them near-free while keeping
 * the output bit-identical to the slow path:
 *  1. a persistent scratch arena (blocks + per-pass temporaries)
 *     reused across trials,
 *  2. a failed-trial memo keyed by a content hash of both blocks, the
 *     merge kind, the constraint configuration, and the live-out
 *     context -- self-invalidating, because any committed change to a
 *     participating block changes its hash. The store is process-wide
 *     (mutex-guarded): the key covers every input the trial reads, so
 *     an entry recorded by one engine answers identically for any
 *     other, and hits arise whenever identical content is compiled
 *     repeatedly (best-of-N timing runs, multi-unit Session batches of
 *     similar functions, re-expansion after a transactional rollback),
 *  3. a conservative size pre-screen that rejects trials whose
 *     provable lower bound already violates maxInsts before paying
 *     combine+optimize.
 * Skipped trials replay the exact register-allocation burn of the work
 * they skip (combineVregCost), so vreg numbering -- and thus all
 * downstream output -- stays identical. CHF_TRIAL_CACHE=0 (or
 * MergeOptions::useTrialCache=false) forces the slow path for
 * differential testing.
 *
 * Speculative parallel trials (DESIGN.md §11). Within one mutation
 * epoch a serial expansion is a chain of failed trials ending in a
 * success (or exhaustion), and a trial is side-effect-free until
 * commit, so the chain's trials can run concurrently: tryMergeRound()
 * plans the chain on the compiling thread (each candidate's register
 * base predicted from the prefix sum of combineVregCost), freezes the
 * analyses (AnalysisManager::beginConcurrentReads), fans the trials
 * out over the Session's work-stealing pool against per-thread scratch
 * arenas, and consumes results in exact serial candidate order,
 * committing the first success on the compiling thread. Traces, vreg
 * numbering, and emitted IR are bit-identical to the serial path,
 * which remains the oracle: CHF_PARALLEL_TRIALS=0 (or
 * MergeOptions::parallelTrials=false) forces serial execution.
 *
 * Seam-scoped incremental trial optimization (DESIGN.md §14). The
 * dominant trial cost is re-optimizing the whole combined block even
 * though everything below the first consumed branch is a verbatim copy
 * of the hyperblock's already-optimized body. When that body is a
 * known fixpoint of the scalar-opt pipeline (tracked per block across
 * commits), trials hand the combine seam to optimizeBlockFrom, which
 * replays the unchanged prefix in table-maintenance mode and rewrites
 * only from the seam down -- reaching the exact same fixpoint byte for
 * byte. CHF_INCR_OPT=0 (or MergeOptions::incrementalOpt=false) forces
 * the full pass for differential testing.
 */

#ifndef CHF_HYPERBLOCK_MERGE_H
#define CHF_HYPERBLOCK_MERGE_H

#include <cstdint>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analysis/analysis_manager.h"
#include "hyperblock/constraints.h"
#include "support/cancellation.h"
#include "support/stats.h"
#include "transform/if_convert.h"
#include "transform/optimize.h"

namespace chf {

/** How a successful merge transformed the CFG. */
enum class MergeKind { Simple, TailDup, Peel, Unroll };

const char *mergeKindName(MergeKind kind);

/** Knobs of the merge engine. */
struct MergeOptions
{
    /** Target description whose structural limits gate every merge
     *  (target/target_model.h; defaults to the TRIPS model). */
    TargetModel target;

    /** Run scalar optimizations on the scratch block (the "O" of
     *  (IUPO); off reproduces (IUP)O and the plain VLIW heuristic). */
    bool optimizeDuringMerge = true;

    /** Allow Peel/Unroll merges (head duplication). Off restricts the
     *  engine to classical if-conversion + tail duplication. */
    bool enableHeadDuplication = true;

    /** Instructions reserved for later spill code. */
    size_t sizeHeadroom = 4;

    /**
     * Basic-block splitting (paper §9): when a single-predecessor
     * candidate is too large to merge whole, split it and merge its
     * first piece, improving code density at the cost of a cross-block
     * value handoff.
     */
    bool enableBlockSplitting = false;

    /** Cache analyses across merge attempts (also globally switchable
     *  off with CHF_DISABLE_ANALYSIS_CACHE=1 for differential runs). */
    bool useAnalysisCache = true;

    /**
     * Trial-merge fast path: scratch arena reuse, failed-trial
     * memoization, and conservative size pre-screening. Bit-identical
     * to the slow path; also globally switchable off with
     * CHF_TRIAL_CACHE=0 for differential runs.
     */
    bool useTrialCache = true;

    /**
     * Seam-scoped incremental trial optimization (DESIGN.md §14): when
     * the hyperblock's body is a known fixpoint of the scalar-opt
     * pipeline (its producing run's last round made zero changes),
     * trials seed the optimizer at the combine seam instead of
     * position 0, replaying the unchanged prefix in table-maintenance
     * mode. Bit-identical to the full pass; also globally switchable
     * off with CHF_INCR_OPT=0 for differential runs.
     */
    bool incrementalOpt = true;

    /** Record every tryMerge attempt in MergeEngine::trace(). */
    bool recordMergeTrace = false;

    /**
     * Cooperative cancellation (DESIGN.md §12): polled once per merge
     * round in expandBlock and at the start of every speculative trial
     * task, throwing CancelledError when tripped so a deadline bounds
     * even pathological formation loops. A default (null) token never
     * cancels and the polls compile down to an untaken branch.
     */
    CancellationToken cancel;

    /**
     * Speculative parallel trial formation: when the engine runs on a
     * worker of a multi-threaded Session, candidate trials of one
     * expansion epoch execute concurrently on the shared work-stealing
     * pool and commit in serial order (bit-identical output; see
     * DESIGN.md §11). Requires the trial fast path; also globally
     * switchable off with CHF_PARALLEL_TRIALS=0 for differential runs.
     */
    bool parallelTrials = true;
};

/**
 * Snapshot of the process-wide sharded failed-trial memo store
 * (cumulative counters since process start; Session reports per-compile
 * deltas). An eviction-heavy snapshot means the working set exceeds the
 * capacity and trials are being re-run that could have been memo hits.
 */
struct TrialMemoStats
{
    uint64_t hits = 0;        ///< lookups answered from the store
    uint64_t misses = 0;      ///< lookups that found nothing
    uint64_t evictions = 0;   ///< entries dropped by shard-cap flushes
    uint64_t entries = 0;     ///< current occupancy across all shards
    uint64_t shards = 0;      ///< number of striped-lock shards
    uint64_t maxShardEntries = 0; ///< most loaded shard's occupancy
    uint64_t capacity = 0;    ///< total entry capacity across shards
};

/** Read the current trial-memo store counters (thread-safe). */
TrialMemoStats trialMemoStats();

/** Outcome of tryMerge. */
struct MergeOutcome
{
    bool success = false;
    MergeKind kind = MergeKind::Simple;
    std::string reason; ///< failure reason when !success
};

/** One recorded tryMerge attempt (MergeOptions::recordMergeTrace). */
struct MergeTraceEntry
{
    BlockId hb = kNoBlock;
    BlockId s = kNoBlock;
    bool success = false;
    MergeKind kind = MergeKind::Simple;
    std::string reason;

    bool
    operator==(const MergeTraceEntry &o) const
    {
        return hb == o.hb && s == o.s && success == o.success &&
               kind == o.kind && reason == o.reason;
    }
};

/**
 * Stateful merge engine for one function. Tracks pristine loop bodies
 * across unrolls and accumulates the m/t/u/p statistics of Table 1
 * (merges / tail duplications / unrolled / peeled iterations).
 */
class MergeEngine
{
  public:
    MergeEngine(Function &fn, const MergeOptions &options);

    /** Try to merge successor @p s into block @p hb. */
    MergeOutcome tryMerge(BlockId hb, BlockId s);

    /**
     * Speculative parallel form of a serial chain of tryMerge calls:
     * @p sources is the exact order in which the serial loop would
     * attempt candidates within the current epoch (the caller simulates
     * the policy; Policy::select is pure, see policy.h). Trials run
     * concurrently on the Session's work-stealing pool and are consumed
     * in the given order — @p sink is invoked once per consumed
     * candidate with its outcome, exactly as a serial loop of tryMerge
     * calls would observe — stopping after the first success (later
     * speculative results are invalidated by the commit and discarded).
     * Returns the number of candidates consumed. Falls back to plain
     * serial tryMerge calls when parallel trials are inactive; output
     * is bit-identical either way.
     */
    size_t tryMergeRound(
        BlockId hb, const std::vector<BlockId> &sources,
        const std::function<void(size_t, const MergeOutcome &)> &sink);

    /**
     * How many candidates are worth speculating per round, or 0 when
     * parallel trials are inactive (serial engine, options or
     * CHF_PARALLEL_TRIALS=0, no surrounding pool, block splitting on —
     * splitting mutates the CFG on *failed* trials, which breaks the
     * trials-are-side-effect-free premise, so those engines stay
     * serial).
     */
    size_t speculationWidth() const;

    /**
     * Cheap pre-check mirroring the paper's LegalMerge: is @p s a
     * structurally admissible candidate (ignoring size constraints)?
     */
    bool legalMerge(BlockId hb, BlockId s, std::string *why = nullptr);

    /** Activity counters and per-step trial timings (usMerge*). */
    const StatSet &stats() const;
    const MergeOptions &options() const { return opts; }
    Function &function() { return fn; }

    /** Cached analyses for this function, kept current across merges. */
    AnalysisManager &analyses() { return am; }

    /** Recorded attempts (empty unless recordMergeTrace is set). */
    const std::vector<MergeTraceEntry> &trace() const
    {
        return mergeTrace;
    }

    /** True when the trial fast path (memo + pre-screen + incremental
     *  candidate descriptors in expandBlock) is enabled for this
     *  engine (options + environment). */
    bool fastPathActive() const { return fastPath; }

    /**
     * Monotonic count of CFG mutations this engine has committed
     * (merges, block splits, and in-place stabilizations on declined
     * splits). expandBlock reuses its candidate descriptors verbatim
     * while this is unchanged: failed trials touch nothing a
     * descriptor depends on.
     */
    uint64_t mutationEpoch() const { return mutations; }

    /** False when CHF_TRIAL_CACHE=0 disables the fast path globally. */
    static bool trialCacheEnabledByEnv();

    /** False when CHF_PARALLEL_TRIALS=0 forces serial trials. */
    static bool parallelTrialsEnabledByEnv();

    /** False when CHF_INCR_OPT=0 forces full-pass trial optimization. */
    static bool incrementalOptEnabledByEnv();

    /**
     * Forget every per-block fixpoint certification. Must be called
     * whenever block bodies change outside the engine's own commit
     * paths -- e.g. a transactional rollback restoring pre-phase
     * bodies while the engine lives on -- since a stale certification
     * would let a later trial seam-skip a prefix that is no longer a
     * known optimizer fixpoint.
     */
    void invalidateFixpoints();

    /**
     * Provable lower bound on the combined block's size estimate; the
     * fast path's pre-screen rejects a trial without running it when
     * trialSizeFloor + sizeHeadroom > target.maxInsts. Counts the
     * instructions no legal trial can shed: every branch and store of
     * both participants (minus HB's consumed branches), plus all other
     * instructions when optimizeDuringMerge is off. Public so tests
     * can pin the formula and the firing condition.
     */
    size_t trialSizeFloor(const BasicBlock &hb_block,
                          const BasicBlock &source) const;

  private:
    /** Persistent scratch arena reused across trials (fast path); the
     *  slow path constructs a fresh instance per trial so differential
     *  runs exercise genuinely fresh state. */
    struct TrialScratch
    {
        BasicBlock scratch{kNoBlock, ""};
        BasicBlock sourceCopy{kNoBlock, ""};
        BitVector liveOut;
        CombineScratch combine;
        BlockOptScratch opt;
        BlockAnalysisScratch legal;
    };

    /**
     * Plan for one speculative candidate trial, computed on the
     * compiling thread before fan-out. Captures everything about the
     * trial that needs the engine's mutable state (classification,
     * source resolution, the predicted register base) so the worker
     * side is a pure function of the plan, the frozen analyses, and
     * const reads of the function.
     */
    struct TrialPlan
    {
        BlockId hb = kNoBlock;
        BlockId s = kNoBlock;
        MergeKind kind = MergeKind::Simple;

        /** Resolved append source (pristine body for unrolls). */
        const BasicBlock *source = nullptr;

        /** Predicted register counter at this trial's serial position:
         *  the round's starting counter plus the combineVregCost of
         *  every earlier candidate (failures burn exactly that). */
        uint32_t vregBase = 0;

        /** combineVregCost(hb, source) at plan time. */
        uint32_t burn = 0;

        /** Failed blocksExist/legalForKind: no trial runs, no burn. */
        bool immediate = false;
        std::string immediateReason;

        /** Must re-run through serial tryMerge at its position (unroll
         *  trials: pristine-body bookkeeping mutates engine state). */
        bool serialOnly = false;
    };

    /** Worker-side result of one speculative trial. */
    struct TrialResult
    {
        bool ran = false;          ///< full combine+optimize+legal
        bool prescreened = false;
        bool memoHit = false;
        bool combineFailed = false; ///< "no branch to successor"
        bool success = false;
        std::string reason;        ///< failure reason
        uint32_t vregsBurned = 0;  ///< replayed at consume time
        double share = 1.0;        ///< entry share (commit needs it)
        std::vector<Instruction> mergedInsts; ///< on success
        int64_t nsCombine = 0;
        int64_t nsOptimize = 0;
        int64_t nsLegal = 0;
        OptPassStats optStats;     ///< per-pass timing + visit counts
        bool fixpoint = false;     ///< optimize ended at a known fixpoint
        std::exception_ptr error;  ///< rethrown at the serial position
    };

    /** Existence/structure checks shared by legalMerge and tryMerge. */
    bool blocksExist(BlockId hb, BlockId s, std::string *why) const;

    /** Plan one candidate of a speculative round (compiling thread). */
    TrialPlan planTrial(BlockId hb, BlockId s, uint32_t vreg_base);

    /** Run one planned trial against @p t (any thread; engine state is
     *  read-only, results go to @p out). */
    void runTrialSpeculative(const TrialPlan &plan,
                             const Liveness &liveness, TrialScratch &t,
                             TrialResult &out);

    /** Replay one speculative result's serial bookkeeping — counters,
     *  vreg burn, trace, memo semantics — and commit on success
     *  (compiling thread, exact serial position). */
    MergeOutcome consumeTrial(const TrialPlan &plan, TrialResult &result);

    /** True when this engine may fan trials out right now. */
    bool parallelTrialsActive() const;

    /** Classify what committing the merge will do. */
    MergeKind classify(BlockId hb, BlockId s);

    /** Kind-dependent legality (head-duplication gating). */
    bool legalForKind(BlockId s, MergeKind kind, std::string *why);

    /** Append to the trace (when enabled) and pass @p outcome through. */
    MergeOutcome record(BlockId hb, BlockId s, MergeOutcome outcome);

    /** Content hash identifying a trial (see DESIGN.md §10). Reads
     *  live-ins through @p live_in (BlockId -> const BitVector &): the
     *  serial path asks the manager, which solves on demand;
     *  speculative workers read the frozen snapshot instead of calling
     *  back into the manager. */
    template <typename LiveIn>
    uint64_t trialKey(BlockId hb, BlockId s, MergeKind kind,
                      const BasicBlock &hb_block,
                      const BasicBlock &source, LiveIn &&live_in) const;

    /** Live-out of @p merged (HB's would-be body) into t.liveOut: the
     *  union of its targets' live-ins, plus its own upward-exposed
     *  uses and HB's live-in if it loops back to itself (the next
     *  iteration's reads). */
    template <typename LiveIn>
    void combinedLiveOut(BlockId hb, const BasicBlock &merged,
                         uint32_t universe, LiveIn &&live_in,
                         TrialScratch &t) const;

    /**
     * True when block @p b's current body is a known fixpoint of the
     * scalar-opt pipeline: the optimizeBlockFrom run that produced it
     * ended with a zero-change round, and the body has not been
     * mutated since. Such a body's combine-seam prefix may be replayed
     * in table-maintenance mode (optimize.h).
     */
    bool
    isFixpoint(BlockId b) const
    {
        return b < fixpointKnown.size() && fixpointKnown[b] != 0;
    }

    /** Record (or conservatively clear) a block's fixpoint flag. */
    void
    setFixpoint(BlockId b, bool known)
    {
        if (b >= fixpointKnown.size())
            fixpointKnown.resize(b + 1, 0);
        fixpointKnown[b] = known ? 1 : 0;
    }

    /**
     * Trial-step time and optimizer pass stats, kept as plain integers
     * on the per-trial path and written into `counters` by stats().
     * Nanoseconds: a step often takes under a microsecond, and
     * truncating each one would leave its time unattributed.
     */
    struct TrialTimes
    {
        bool ran = false;       ///< some trial reached the combine
        bool optimized = false; ///< some trial ran the optimizer
        int64_t combineNs = 0;
        int64_t optimizeNs = 0;
        int64_t legalNs = 0;
        OptPassStats opt;
    };

    Function &fn;
    MergeOptions opts;
    AnalysisManager am;
    mutable StatSet counters;
    TrialTimes trialTimes;
    std::vector<MergeTraceEntry> mergeTrace;

    /** Original loop bodies saved at first unroll, by header id. */
    std::map<BlockId, std::unique_ptr<BasicBlock>> pristineBodies;

    bool fastPath = false;
    bool parallelEnabled = false;
    bool incrOpt = false;
    uint64_t mutations = 0;
    TrialScratch arena;

    /** Per-block-id fixpoint flags (isFixpoint/setFixpoint). Set when
     *  a commit installs an optimizer-certified body; cleared whenever
     *  the engine mutates a block's instructions outside that path
     *  (frequency rescales, splits, in-place stabilizations). Only
     *  read by workers between fan-out and wait, when no commit can
     *  run, so unsynchronized access is safe. */
    std::vector<uint8_t> fixpointKnown;

    /** Per-pool-worker scratch arenas for speculative trials, indexed
     *  by WorkStealingPool::currentWorkerIndex() (one extra slot for a
     *  helping non-worker thread). Only this engine's tasks use them,
     *  and a thread runs one task at a time, so slots never race. */
    std::vector<std::unique_ptr<TrialScratch>> specArenas;
};

} // namespace chf

#endif // CHF_HYPERBLOCK_MERGE_H
