#include "analysis/analysis_manager.h"

#include <algorithm>
#include <cstdlib>

#include "support/fatal.h"
#include "support/timer.h"

namespace chf {

namespace {

bool
contains(const std::vector<BlockId> &list, BlockId id)
{
    return std::find(list.begin(), list.end(), id) != list.end();
}

/** Compare successor lists as sets (order-insensitive). */
bool
sameEdgeSet(const std::vector<BlockId> &a, const std::vector<BlockId> &b)
{
    if (a.size() != b.size())
        return false;
    for (BlockId id : a) {
        if (!contains(b, id))
            return false;
    }
    return true;
}

} // namespace

bool
AnalysisManager::cacheEnabledByEnv()
{
    const char *env = std::getenv("CHF_DISABLE_ANALYSIS_CACHE");
    return env == nullptr || env[0] == '\0' || env[0] == '0';
}

AnalysisManager::AnalysisManager(Function &fn)
    : AnalysisManager(fn, cacheEnabledByEnv())
{
}

AnalysisManager::AnalysisManager(Function &fn, bool enable_cache)
    : fn(fn), cacheEnabled(enable_cache)
{
}

const DominatorTree &
AnalysisManager::dominators()
{
    if (!cacheEnabled) {
        ScopedStatTimer t(counters, "usAnalysisDom");
        dom = std::make_unique<DominatorTree>(fn);
        return *dom;
    }
    if (!dom) {
        const PredecessorMap &preds = predecessors();
        ScopedStatTimer t(counters, "usAnalysisDom");
        dom = std::make_unique<DominatorTree>(fn, preds);
        counters.add("analysisDomBuilds");
    } else {
        counters.add("analysisDomHits");
    }
    return *dom;
}

const LoopInfo &
AnalysisManager::loops()
{
    if (!cacheEnabled) {
        ScopedStatTimer t(counters, "usAnalysisLoops");
        loopInfo = std::make_unique<LoopInfo>(fn);
        return *loopInfo;
    }
    if (!loopInfo) {
        // Reuse the cached dominator tree and predecessor map; the
        // borrowed tree stays alive as long as this LoopInfo does
        // because every invalidation path resets both together.
        const DominatorTree &dt = dominators();
        const PredecessorMap &preds = predecessors();
        ScopedStatTimer t(counters, "usAnalysisLoops");
        loopInfo = std::make_unique<LoopInfo>(fn, dt, preds);
        counters.add("analysisLoopBuilds");
    } else {
        counters.add("analysisLoopHits");
    }
    return *loopInfo;
}

const PredecessorMap &
AnalysisManager::predecessors()
{
    if (!cacheEnabled) {
        predsCache = fn.predecessors();
        return predsCache;
    }
    if (!predsValid) {
        predsCache = fn.predecessors();
        predsValid = true;
        counters.add("analysisPredsBuilds");
    } else {
        counters.add("analysisPredsHits");
    }
    return predsCache;
}

bool
AnalysisManager::livenessOutOfSync() const
{
    return !live || !pendingLive.empty() || reachabilityChanged ||
           live->universe() < fn.numVregs();
}

void
AnalysisManager::syncLiveness()
{
    CHF_ASSERT(!frozen, "liveness update inside a concurrent-read "
                        "window would race frozen readers");
    if (!live) {
        live = std::make_unique<Liveness>(fn);
        pendingLive.clear();
        reachabilityChanged = false;
        counters.add("analysisLivenessBuilds");
        return;
    }
    if (!livenessOutOfSync())
        return;
    // predecessors() first: the pending region grows backward.
    const PredecessorMap &preds = predecessors();
    live->markChanged(fn, pendingLive, preds, reachabilityChanged);
    pendingLive.clear();
    reachabilityChanged = false;
    counters.add("analysisLivenessUpdates");
}

void
AnalysisManager::rebuildLiveness()
{
    CHF_ASSERT(!frozen, "liveness rebuild inside a concurrent-read "
                        "window would race frozen readers");
    live = std::make_unique<Liveness>(fn);
}

uint64_t
AnalysisManager::livenessWork() const
{
    return live ? live->blocksWorked() : 0;
}

void
AnalysisManager::noteLivenessWork(const Timer &timer, uint64_t work_before)
{
    livenessNs += timer.elapsedNanos();
    livenessBlocksSolved += livenessWork() - work_before;
}

const Liveness &
AnalysisManager::liveness()
{
    Timer timer;
    if (!cacheEnabled) {
        rebuildLiveness();
        noteLivenessWork(timer, 0);
        return *live;
    }
    if (livenessOutOfSync() || live->anyPending()) {
        uint64_t before = livenessWork();
        syncLiveness();
        live->solveAll();
        noteLivenessWork(timer, before);
    } else {
        counters.add("analysisLivenessHits");
    }
    return *live;
}

const BitVector &
AnalysisManager::liveIn(BlockId id)
{
    ++livenessQueries;
    Timer timer;
    if (!cacheEnabled) {
        rebuildLiveness();
        noteLivenessWork(timer, 0);
        return live->liveIn(id);
    }
    if (livenessOutOfSync() || live->pending(id)) {
        uint64_t before = livenessWork();
        syncLiveness();
        live->solveFrom(id);
        noteLivenessWork(timer, before);
    }
    return live->liveIn(id);
}

uint32_t
AnalysisManager::livenessUniverse()
{
    // Uncached: the width the fresh solve of the next liveIn() will have.
    if (!cacheEnabled)
        return Liveness::paddedUniverse(fn.numVregs());
    if (!live || live->universe() < fn.numVregs()) {
        Timer timer;
        uint64_t before = livenessWork();
        syncLiveness();
        noteLivenessWork(timer, before);
    }
    return live->universe();
}

const StatSet &
AnalysisManager::stats() const
{
    if (livenessQueries > 0)
        counters.set("livenessQueries",
                     static_cast<int64_t>(livenessQueries));
    if (livenessBlocksSolved > 0)
        counters.set("livenessBlocksSolved",
                     static_cast<int64_t>(livenessBlocksSolved));
    if (livenessNs > 0)
        counters.set("usMergeLiveness", livenessNs / 1000);
    return counters;
}

const Liveness &
AnalysisManager::beginConcurrentReads(uint32_t vreg_bound)
{
    CHF_ASSERT(!frozen, "concurrent-read windows do not nest");
    // Materialize on this thread so no worker ever takes a build path.
    predecessors();
    Liveness &snapshot = const_cast<Liveness &>(liveness()); // solves all
    snapshot.ensureUniverse(vreg_bound);
    frozen = true;
    return snapshot;
}

void
AnalysisManager::endConcurrentReads()
{
    CHF_ASSERT(frozen, "endConcurrentReads without a matching begin");
    frozen = false;
}

void
AnalysisManager::invalidateAll()
{
    CHF_ASSERT(!frozen,
               "CFG mutation inside a concurrent-read window");
    dom.reset();
    loopInfo.reset();
    live.reset();
    predsValid = false;
    predsCache.clear();
    pendingLive.clear();
    reachabilityChanged = false;
    if (cacheEnabled)
        counters.add("analysisInvalidateAll");
}

void
AnalysisManager::branchesRewritten(BlockId id,
                                   const std::vector<BlockId> &old_succs)
{
    CHF_ASSERT(!frozen,
               "CFG mutation inside a concurrent-read window");
    if (!cacheEnabled)
        return;
    if (id >= fn.blockTableSize()) {
        invalidateAll();
        return;
    }
    const BasicBlock *bb = fn.block(id);
    std::vector<BlockId> new_succs =
        bb ? bb->successors() : std::vector<BlockId>();
    if (!sameEdgeSet(old_succs, new_succs)) {
        patchPredecessors(id, old_succs, new_succs);
        dom.reset();
        loopInfo.reset();
        reachabilityChanged = true;
        counters.add("analysisEdgeInvalidations");
    }
    if (live)
        pendingLive.push_back(id);
}

void
AnalysisManager::blockRemoved(BlockId id,
                              const std::vector<BlockId> &old_succs)
{
    CHF_ASSERT(!frozen,
               "CFG mutation inside a concurrent-read window");
    if (!cacheEnabled)
        return;
    patchPredecessors(id, old_succs, {});
    if (predsValid && id < predsCache.size())
        predsCache[id].clear();
    dom.reset();
    loopInfo.reset();
    if (live) {
        pendingLive.push_back(id);
        reachabilityChanged = true;
    }
    counters.add("analysisBlockRemovals");
}

void
AnalysisManager::blockAbsorbed(BlockId hb, BlockId s,
                               const std::vector<BlockId> &hb_old_succs,
                               const std::vector<BlockId> &s_old_succs)
{
    CHF_ASSERT(!frozen,
               "CFG mutation inside a concurrent-read window");
    if (!cacheEnabled)
        return;
    const BasicBlock *bb =
        hb < fn.blockTableSize() ? fn.block(hb) : nullptr;
    if (!bb) {
        invalidateAll();
        return;
    }
    std::vector<BlockId> new_succs = bb->successors();

    // The splice shape: hb's new out-edges are its old ones minus the
    // edge into s, plus s's old out-edges. Anything else (e.g. merge
    // optimization folded a branch away) invalidates as a generic edge
    // change would.
    std::vector<BlockId> expect;
    for (BlockId t : hb_old_succs) {
        if (t != s && !contains(expect, t))
            expect.push_back(t);
    }
    for (BlockId t : s_old_succs) {
        if (!contains(expect, t))
            expect.push_back(t);
    }
    bool splice = sameEdgeSet(expect, new_succs);
    // Reachability survives a splice of hb's sole successor: every
    // walk through s went through hb, and hb now reaches s's targets.
    bool sole_pred = predsValid && s < predsCache.size() &&
                     predsCache[s].size() == 1 && predsCache[s][0] == hb;

    patchPredecessors(hb, hb_old_succs, new_succs);
    patchPredecessors(s, s_old_succs, {});
    if (predsValid && s < predsCache.size())
        predsCache[s].clear();

    if (splice && dom && dom->reachable(hb) && dom->reachable(s) &&
        dom->idom(s) == hb) {
        dom->applyBlockAbsorbed(hb, s);
        if (loopInfo)
            loopInfo->applyBlockAbsorbed(hb, s);
        counters.add("analysisDomPatches");
    } else {
        dom.reset();
        loopInfo.reset();
        counters.add("analysisEdgeInvalidations");
    }

    if (live) {
        pendingLive.push_back(hb);
        pendingLive.push_back(s);
        if (!splice || !sole_pred)
            reachabilityChanged = true;
    }
    counters.add("analysisBlockRemovals");
}

void
AnalysisManager::instructionsRewritten(BlockId id)
{
    CHF_ASSERT(!frozen,
               "CFG mutation inside a concurrent-read window");
    if (!cacheEnabled)
        return;
    if (live)
        pendingLive.push_back(id);
}

void
AnalysisManager::patchPredecessors(BlockId id,
                                   const std::vector<BlockId> &old_succs,
                                   const std::vector<BlockId> &new_succs)
{
    if (!predsValid)
        return;
    for (BlockId t : old_succs) {
        if (contains(new_succs, t) || t >= predsCache.size())
            continue;
        auto &list = predsCache[t];
        list.erase(std::remove(list.begin(), list.end(), id), list.end());
    }
    for (BlockId t : new_succs) {
        if (contains(old_succs, t) || t >= predsCache.size())
            continue;
        auto &list = predsCache[t];
        auto pos = std::lower_bound(list.begin(), list.end(), id);
        if (pos == list.end() || *pos != id)
            list.insert(pos, id);
    }
    counters.add("analysisPredsPatches");
}

} // namespace chf
