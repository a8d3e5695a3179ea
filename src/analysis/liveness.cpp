#include "analysis/liveness.h"

#include <algorithm>
#include <utility>

namespace chf {

/**
 * Bitvector universe padding. Formation allocates predicate registers
 * on nearly every merge; if the analysis tracked exactly
 * fn.numVregs() bits, every incremental update would resize every
 * bitvector of every block. Rounding the universe up by ~25% (and to a
 * whole word) makes growth resizes logarithmic in total register
 * growth. Padding bits are never set, so results are unaffected.
 */
uint32_t
Liveness::paddedUniverse(uint32_t n)
{
    uint32_t pad = std::max<uint32_t>(64, n / 4);
    return (n + pad + 63) & ~uint32_t(63);
}

BitVector
blockUses(const BasicBlock &bb, uint32_t num_vregs)
{
    BitVector uses;
    BitVector killed;
    blockUsesInto(bb, num_vregs, uses, killed);
    return uses;
}

void
blockUsesInto(const BasicBlock &bb, uint32_t num_vregs, BitVector &uses,
              BitVector &killed_scratch)
{
    uses.resize(num_vregs);
    uses.reset();
    killed_scratch.resize(num_vregs);
    killed_scratch.reset();
    for (const auto &inst : bb.insts) {
        inst.forEachUse([&](Vreg v) {
            if (!killed_scratch.test(v))
                uses.set(v);
        });
        if (inst.hasDest() && !inst.pred.valid())
            killed_scratch.set(inst.dest);
    }
}

BitVector
blockKills(const BasicBlock &bb, uint32_t num_vregs)
{
    BitVector kills(num_vregs);
    for (const auto &inst : bb.insts) {
        if (inst.hasDest() && !inst.pred.valid())
            kills.set(inst.dest);
    }
    return kills;
}

BitVector
blockDefs(const BasicBlock &bb, uint32_t num_vregs)
{
    BitVector defs;
    blockDefsInto(bb, num_vregs, defs);
    return defs;
}

void
blockDefsInto(const BasicBlock &bb, uint32_t num_vregs, BitVector &defs)
{
    defs.resize(num_vregs);
    defs.reset();
    for (const auto &inst : bb.insts) {
        if (inst.hasDest())
            defs.set(inst.dest);
    }
}

Liveness::Liveness(const Function &fn)
{
    nv = paddedUniverse(fn.numVregs());
    size_t table = fn.blockTableSize();
    // Only existing blocks get sets; removed ids stay zero-sized.
    // uses/kills are sized when a block's facts are first computed.
    ins.assign(table, BitVector());
    outs.assign(table, BitVector());
    uses.assign(table, BitVector());
    kills.assign(table, BitVector());
    for (BlockId id : fn.blockIds()) {
        ins[id].resize(nv);
        outs[id].resize(nv);
    }
    succs.assign(table, {});
    reachable.assign(table, 0);
    pendingBits.assign(table, 0);
    dirty.assign(table, 0);
    version.assign(table, 0);
    seen.assign(table, 0);
    visit.assign(table, 0);
    index.assign(table, 0);
    low.assign(table, 0);
    onStack.assign(table, 0);

    // Every reachable block joins (its facts are computed on the way)
    // and is pending and dirty; one solveAll() settles them.
    std::vector<BlockId> joined;
    recomputeReachability(fn, joined);
    for (BlockId id : joined) {
        pendingBits[id] = 1;
        dirty[id] = 1;
    }
    numPending = joined.size();
    solveAll();
}

void
Liveness::rebuild(const Function &fn)
{
    uint64_t before = worked;
    *this = Liveness(fn);
    worked += before;
}

void
Liveness::ensureUniverse(uint32_t vreg_bound)
{
    if (vreg_bound <= nv)
        return;
    uint32_t padded = paddedUniverse(vreg_bound);
    // Zero-sized sets belong to removed blocks (or facts never
    // computed) and stay that way.
    for (auto *sets : {&ins, &outs, &uses, &kills}) {
        for (BitVector &set : *sets) {
            if (set.size() != 0)
                set.resize(padded);
        }
    }
    nv = padded;
}

void
Liveness::nextEpoch()
{
    if (++epoch == 0) {
        // Stamp wraparound (2^32 walks): flush everything once.
        std::fill(visit.begin(), visit.end(), 0u);
        epoch = 1;
    }
}

void
Liveness::refreshFacts(const Function &fn, BlockId id)
{
    const BasicBlock *bb = fn.block(id);
    // The upward-exposure walk's kill scratch ends up holding exactly
    // the block's unpredicated defs.
    blockUsesInto(*bb, nv, uses[id], kills[id]);
    succs[id] = bb->successors();
}

void
Liveness::clearBlock(BlockId id)
{
    ins[id].reset();
    outs[id].reset();
    dirty[id] = 0;
    if (pendingBits[id]) {
        pendingBits[id] = 0;
        --numPending;
    }
}

void
Liveness::addPending(BlockId id, const PredecessorMap &preds)
{
    if (pendingBits[id])
        return;
    // The region stays closed under reachable predecessors, so the
    // walk can stop wherever it meets a block already pending.
    pendingBits[id] = 1;
    ++numPending;
    workStack.clear();
    workStack.push_back(id);
    while (!workStack.empty()) {
        BlockId b = workStack.back();
        workStack.pop_back();
        if (b >= preds.size())
            continue;
        for (BlockId p : preds[b]) {
            if (p < pendingBits.size() && reachable[p] &&
                !pendingBits[p]) {
                pendingBits[p] = 1;
                ++numPending;
                workStack.push_back(p);
            }
        }
    }
}

void
Liveness::recomputeReachability(const Function &fn,
                                std::vector<BlockId> &joined)
{
    size_t table = ins.size();
    worked += table;
    nextEpoch();
    workStack.clear();
    BlockId entry = fn.entry();
    if (entry != kNoBlock && entry < table && fn.block(entry)) {
        visit[entry] = epoch;
        workStack.push_back(entry);
    }
    while (!workStack.empty()) {
        BlockId b = workStack.back();
        workStack.pop_back();
        // Facts of unreachable blocks are not maintained; refresh them
        // as the block joins.
        if (!reachable[b])
            refreshFacts(fn, b);
        for (BlockId s : succs[b]) {
            if (s < table && visit[s] != epoch && fn.block(s)) {
                visit[s] = epoch;
                workStack.push_back(s);
            }
        }
    }
    // Blocks that fell off the CFG go to bottom (a from-scratch solve
    // never visits them); blocks that joined it are reported.
    for (BlockId b = 0; b < table; ++b) {
        bool now = visit[b] == epoch;
        if (reachable[b] && !now)
            clearBlock(b);
        else if (!reachable[b] && now)
            joined.push_back(b);
        reachable[b] = now ? 1 : 0;
    }
}

void
Liveness::markChanged(const Function &fn,
                      const std::vector<BlockId> &changed,
                      const PredecessorMap &preds,
                      bool reachability_changed)
{
    size_t table = ins.size();
    if (fn.blockTableSize() != table) {
        // New blocks appeared: no cheap patch, recompute.
        rebuild(fn);
        return;
    }
    if (fn.numVregs() > nv)
        ensureUniverse(fn.numVregs());

    // Refresh the changed blocks' facts first, so a reachability walk
    // follows their new edges. Removed blocks leave the CFG here.
    for (BlockId c : changed) {
        if (c >= table)
            continue;
        if (!fn.block(c)) {
            // Removed for good (ids are never reused): release its sets.
            clearBlock(c);
            reachable[c] = 0;
            ins[c] = BitVector();
            outs[c] = BitVector();
            uses[c] = BitVector();
            kills[c] = BitVector();
            succs[c].clear();
            continue;
        }
        refreshFacts(fn, c);
    }

    std::vector<BlockId> seeds;
    if (reachability_changed)
        recomputeReachability(fn, seeds);
    for (BlockId c : changed) {
        if (c < table && fn.block(c) && reachable[c])
            seeds.push_back(c);
    }
    for (BlockId c : seeds) {
        dirty[c] = 1;
        addPending(c, preds);
    }
}

void
Liveness::refresh(const Function &fn)
{
    size_t table = ins.size();
    if (fn.blockTableSize() != table) {
        rebuild(fn);
        return;
    }
    if (fn.numVregs() > nv)
        ensureUniverse(fn.numVregs());

    std::vector<BlockId> changed;
    bool edges_changed = false;
    for (BlockId b = 0; b < table; ++b) {
        const BasicBlock *bb = fn.block(b);
        if (!bb) {
            if (reachable[b]) {
                changed.push_back(b);
                edges_changed = true;
            }
            continue;
        }
        // Unreachable blocks are refreshed if an edge change lets them
        // join; only a reachable block's edges can move reachability.
        if (!reachable[b])
            continue;
        tmpSuccs.clear();
        for (const Instruction &inst : bb->insts) {
            if (inst.op == Opcode::Br &&
                std::find(tmpSuccs.begin(), tmpSuccs.end(),
                          inst.target) == tmpSuccs.end())
                tmpSuccs.push_back(inst.target);
        }
        bool edges = tmpSuccs != succs[b];
        blockUsesInto(*bb, nv, tmpIn, tmpOut);
        if (edges || tmpIn != uses[b] || tmpOut != kills[b]) {
            changed.push_back(b);
            edges_changed = edges_changed || edges;
        }
    }
    if (changed.empty())
        return;
    markChanged(fn, changed, fn.predecessors(), edges_changed);
    solveAll();
}

void
Liveness::solveAll()
{
    for (BlockId b = 0; b < pendingBits.size() && numPending > 0; ++b) {
        if (pendingBits[b])
            solveFrom(b);
    }
}

void
Liveness::solveFrom(BlockId root)
{
    if (!pending(root))
        return;
    if (tmpIn.size() != nv) {
        tmpIn.resize(nv);
        tmpOut.resize(nv);
    }

    // Iterative Tarjan over the successor edges restricted to pending
    // blocks. Tarjan emits SCCs successors first -- exactly the
    // evaluation order a backward problem wants -- so each SCC is
    // solved as it is emitted: every solution it reads is final.
    nextEpoch();
    uint32_t next_index = 0;
    std::vector<Frame> &dfs = frames;
    dfs.clear();
    auto open = [&](BlockId b) {
        visit[b] = epoch;
        index[b] = low[b] = next_index++;
        sccStack.push_back(b);
        onStack[b] = 1;
        dfs.push_back({b, 0});
    };
    sccStack.clear();
    open(root);
    while (!dfs.empty()) {
        Frame &f = dfs.back();
        if (f.child < succs[f.b].size()) {
            BlockId s = succs[f.b][f.child++];
            if (!pending(s))
                continue;
            if (visit[s] != epoch) {
                open(s);
            } else if (onStack[s]) {
                low[f.b] = std::min(low[f.b], index[s]);
            }
            continue;
        }
        BlockId b = f.b;
        dfs.pop_back();
        if (!dfs.empty())
            low[dfs.back().b] = std::min(low[dfs.back().b], low[b]);
        if (low[b] != index[b])
            continue;
        scc.clear();
        while (true) {
            BlockId m = sccStack.back();
            sccStack.pop_back();
            onStack[m] = 0;
            scc.push_back(m);
            if (m == b)
                break;
        }
        solveScc(scc);
    }
}

void
Liveness::solveScc(const std::vector<BlockId> &members)
{
    // Change-driven: an SCC is recomputed only if a member's facts
    // changed or a member reads a live-in that changed since the
    // member was last solved. Otherwise its equations and inputs are
    // those its current solution already satisfies as a least fixed
    // point, and it just leaves the pending region.
    bool needs = false;
    for (BlockId b : members) {
        if (dirty[b]) {
            needs = true;
            break;
        }
        for (BlockId s : succs[b]) {
            if (version[s] > seen[b]) {
                needs = true;
                break;
            }
        }
        if (needs)
            break;
    }

    if (needs) {
        worked += members.size();
        bool cyclic = members.size() > 1;
        for (BlockId s : succs[members[0]])
            cyclic = cyclic || s == members[0];

        auto evaluate = [&](BlockId b) {
            tmpOut.reset();
            for (BlockId s : succs[b])
                tmpOut.unionWith(ins[s]);
            tmpIn = tmpOut;
            tmpIn.subtract(kills[b]);
            tmpIn.unionWith(uses[b]);
        };
        if (!cyclic) {
            BlockId b = members[0];
            evaluate(b);
            if (tmpIn != ins[b]) {
                std::swap(ins[b], tmpIn);
                version[b] = ++clock;
            }
            std::swap(outs[b], tmpOut);
        } else {
            // Reset to bottom first -- a warm start could sustain a
            // stale value around the cycle forever -- so the result is
            // the least fixed point, bit-identical to a from-scratch
            // solve.
            if (oldIns.size() < members.size())
                oldIns.resize(members.size());
            for (size_t i = 0; i < members.size(); ++i) {
                std::swap(oldIns[i], ins[members[i]]);
                ins[members[i]].resize(nv);
                ins[members[i]].reset();
                outs[members[i]].reset();
            }
            bool iter = true;
            while (iter) {
                iter = false;
                for (BlockId b : members) {
                    evaluate(b);
                    if (tmpOut != outs[b] || tmpIn != ins[b]) {
                        std::swap(outs[b], tmpOut);
                        std::swap(ins[b], tmpIn);
                        iter = true;
                    }
                }
            }
            for (size_t i = 0; i < members.size(); ++i) {
                if (ins[members[i]] != oldIns[i])
                    version[members[i]] = ++clock;
            }
        }
    }
    for (BlockId b : members) {
        dirty[b] = 0;
        pendingBits[b] = 0;
        seen[b] = clock;
    }
    numPending -= members.size();
}

BitVector
Liveness::liveOutOf(const Function &fn, const BasicBlock &bb) const
{
    // Size to the universe this analysis was computed over: registers
    // allocated after construction cannot be live across blocks yet.
    (void)fn;
    BitVector out(nv);
    for (BlockId s : bb.successors())
        out.unionWith(ins.at(s));
    return out;
}

} // namespace chf
