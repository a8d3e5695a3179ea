/**
 * @file
 * Per-function analysis cache with fine-grained invalidation.
 *
 * Convergent hyperblock formation (paper Fig. 5) tests every candidate
 * merge in scratch space, so formation speed is dominated by how
 * cheaply loop / predecessor / liveness queries can be re-answered
 * after each CFG mutation. The AnalysisManager keeps one snapshot of
 * each analysis alive across queries and updates it from explicit
 * mutation events instead of rebuilding from scratch.
 *
 * Concurrency contract: an AnalysisManager is per-function, per-worker
 * state. Every cached snapshot lives inside the instance, and the
 * analysis layer keeps no mutable globals (the only statics are a pure
 * key function and a `static const` empty map), so distinct instances
 * over distinct Functions never share mutable state. This is what lets
 * chf::Session compile units on worker threads without locks: each
 * worker constructs its own manager for the function it owns
 * (session.cpp static_asserts the type is non-copyable so a snapshot
 * cannot leak across workers by value). Sharing one instance — or one
 * Function — across threads is NOT supported, with one carefully
 * scoped exception: between beginConcurrentReads() and
 * endConcurrentReads(), the manager is *frozen* — every snapshot is
 * materialized up front, the liveness universe is pre-padded to the
 * caller-supplied register bound, and any mutation event or lazy
 * rebuild inside the window is a programming error (asserted). In that
 * window other threads may read the returned const Liveness & (and any
 * const analysis reference obtained before the freeze) without locks,
 * which is what speculative parallel trial merges do (DESIGN.md §11).
 *
 * The invalidation machinery:
 *
 *  - PredecessorMap: patched edge-by-edge (exact, ordered like
 *    Function::predecessors()).
 *  - Liveness: demand-driven. Events mark the changed blocks, and every
 *    block that can reach them, pending; liveIn(b) solves only the
 *    pending blocks b can reach (exact; see Liveness::markChanged and
 *    Liveness::solveFrom). Entry reachability is kept across events and
 *    recomputed only after an edge change that is not a splice.
 *  - DominatorTree / LoopInfo: patched in place for the simple-merge
 *    splice (blockAbsorbed -- the common case during formation);
 *    invalidated on any other edge change and rebuilt lazily on the
 *    next query.
 *
 * Every CFG-mutating caller must report what it did through one of the
 * invalidation events below; the contract is documented in DESIGN.md
 * ("Analysis caching & invalidation"). Results are bit-identical to
 * fresh per-query construction -- CHF_DISABLE_ANALYSIS_CACHE=1 turns
 * the cache off to cross-check (see tests/hyperblock/
 * test_merge_trace.cpp).
 */

#ifndef CHF_ANALYSIS_ANALYSIS_MANAGER_H
#define CHF_ANALYSIS_ANALYSIS_MANAGER_H

#include <memory>
#include <vector>

#include "analysis/dominators.h"
#include "analysis/liveness.h"
#include "analysis/loops.h"
#include "ir/function.h"
#include "support/stats.h"
#include "support/timer.h"

namespace chf {

/** Cached analyses for one function, kept current by mutation events. */
class AnalysisManager
{
  public:
    /** Caching on unless CHF_DISABLE_ANALYSIS_CACHE=1 is set. */
    explicit AnalysisManager(Function &fn);

    /** Explicit cache control (tests, differential runs). */
    AnalysisManager(Function &fn, bool enable_cache);

    AnalysisManager(const AnalysisManager &) = delete;
    AnalysisManager &operator=(const AnalysisManager &) = delete;

    Function &function() { return fn; }
    bool cachingEnabled() const { return cacheEnabled; }

    /** False when CHF_DISABLE_ANALYSIS_CACHE=1 is in the environment. */
    static bool cacheEnabledByEnv();

    // --- queries (lazily build or refresh the cached snapshot) ---
    const DominatorTree &dominators();
    const LoopInfo &loops();
    const PredecessorMap &predecessors();

    /** Whole-function liveness with every pending block solved. */
    const Liveness &liveness();

    /**
     * Exact live-in set of block @p id. Solves only the pending blocks
     * @p id can reach -- what formation trials read after each commit.
     * The vector is livenessUniverse() bits wide.
     */
    const BitVector &liveIn(BlockId id);

    /**
     * Register universe of the vectors liveIn() returns (at least
     * fn.numVregs()); size set-algebra partners from this. Stable until
     * the function allocates registers past it.
     */
    uint32_t livenessUniverse();

    // --- concurrent-read window (speculative parallel trials) ---

    /**
     * Freeze the manager for lock-free concurrent reads: materializes
     * the predecessor map and liveness now (on the calling thread) and
     * pads the liveness universe to at least @p vreg_bound, so a trial
     * running at a predicted register base below the bound never
     * triggers a resize mid-read. Returns the frozen liveness; workers
     * must use that reference (plus const Function reads) and never
     * call back into the manager. Mutation events assert until
     * endConcurrentReads(). Padding does not perturb results: set-bit
     * algebra and Hash64::bits are universe-size-independent.
     */
    const Liveness &beginConcurrentReads(uint32_t vreg_bound);

    /** Thaw the manager; mutation events are legal again. */
    void endConcurrentReads();

    /** True inside a beginConcurrentReads() window. */
    bool concurrentReadsActive() const { return frozen; }

    // --- invalidation events ---

    /** Drop everything (block table grew, bulk rewrite, unknown edit). */
    void invalidateAll();

    /**
     * Block @p id's instructions were replaced; @p old_succs is its
     * successor set from before the rewrite. Detects whether the edge
     * set actually changed and invalidates accordingly.
     */
    void branchesRewritten(BlockId id,
                           const std::vector<BlockId> &old_succs);

    /**
     * Block @p id was removed; @p old_succs is the successor set it had
     * when it was still alive. Callers must have already rewritten any
     * branches into @p id (Function::removeBlock leaves a hole).
     */
    void blockRemoved(BlockId id, const std::vector<BlockId> &old_succs);

    /**
     * A simple merge committed: @p hb (the single predecessor of @p s)
     * absorbed @p s's instructions and @p s was removed. @p hb_old_succs
     * and @p s_old_succs are the successor sets both blocks had before
     * the commit. When @p hb's new successor set is exactly the splice
     * (hb_old_succs - {s}) U s_old_succs, every other block's dominators
     * and loop memberships are unchanged -- the dominator tree and loop
     * info are patched in O(changed) instead of being invalidated. Any
     * other shape (e.g. optimization folded a branch during the merge)
     * falls back to edge invalidation.
     */
    void blockAbsorbed(BlockId hb, BlockId s,
                       const std::vector<BlockId> &hb_old_succs,
                       const std::vector<BlockId> &s_old_succs);

    /**
     * Block @p id's instructions changed but its successor set did not
     * (pure dataflow edit). Cheaper than branchesRewritten: dominators,
     * loops, and predecessors all survive.
     */
    void instructionsRewritten(BlockId id);

    /**
     * Cache-activity counters (builds / hits / patches / updates), plus
     * the liveness solve accounting: livenessQueries (liveIn calls),
     * livenessBlocksSolved (Liveness::blocksWorked -- block sets
     * recomputed, fresh builds included, plus the block table once per
     * reachability re-walk) and usMergeLiveness
     * (time spent absorbing events and solving -- formation's liveness
     * cost, whichever trial step asked).
     */
    const StatSet &stats() const;

  private:
    /** True when the cached liveness is absent, has events to absorb,
     *  or covers fewer registers than the function has. */
    bool livenessOutOfSync() const;

    /** Apply the recorded events to the cached liveness (building it
     *  if absent); nothing is solved. */
    void syncLiveness();

    /** Replace the cached liveness with a fresh solve (uncached mode). */
    void rebuildLiveness();

    /** Blocks the cached liveness has worked on (0 when absent). */
    uint64_t livenessWork() const;

    /** Charge the time since @p timer started and the blocks worked
     *  since livenessWork() read @p work_before to the counters. */
    void noteLivenessWork(const Timer &timer, uint64_t work_before);

    void patchPredecessors(BlockId id,
                           const std::vector<BlockId> &old_succs,
                           const std::vector<BlockId> &new_succs);

    Function &fn;
    bool cacheEnabled;

    std::unique_ptr<DominatorTree> dom;
    std::unique_ptr<LoopInfo> loopInfo;
    std::unique_ptr<Liveness> live;

    PredecessorMap predsCache;
    bool predsValid = false;

    /** Blocks whose dataflow facts changed since `live` last absorbed
     *  events, and whether an edge change since then may have moved
     *  entry reachability. */
    std::vector<BlockId> pendingLive;
    bool reachabilityChanged = false;

    /** Set inside a beginConcurrentReads() window (reads only). */
    bool frozen = false;

    // Liveness accounting, written into `counters` by stats().
    uint64_t livenessQueries = 0;
    uint64_t livenessBlocksSolved = 0;
    int64_t livenessNs = 0;

    mutable StatSet counters;
};

} // namespace chf

#endif // CHF_ANALYSIS_ANALYSIS_MANAGER_H
