#include "analysis/dominators.h"

#include <algorithm>
#include <cstdint>
#include <limits>

#include "support/fatal.h"

namespace chf {

DominatorTree::DominatorTree(const Function &fn)
    : entry(fn.entry())
{
    build(fn, fn.predecessors());
}

DominatorTree::DominatorTree(const Function &fn,
                             const PredecessorMap &preds)
    : entry(fn.entry())
{
    build(fn, preds);
}

void
DominatorTree::build(const Function &fn, const PredecessorMap &preds)
{
    std::vector<BlockId> order = fn.reversePostOrder();
    size_t table = fn.blockTableSize();
    idoms.assign(table, kNoBlock);
    rpoIndex.assign(table, std::numeric_limits<uint32_t>::max());
    for (size_t i = 0; i < order.size(); ++i)
        rpoIndex[order[i]] = static_cast<uint32_t>(i);

    // Cooper-Harvey-Kennedy: iterate intersecting predecessor doms in
    // reverse post-order until a fixed point.
    auto intersect = [&](BlockId a, BlockId b) {
        while (a != b) {
            while (rpoIndex[a] > rpoIndex[b])
                a = idoms[a];
            while (rpoIndex[b] > rpoIndex[a])
                b = idoms[b];
        }
        return a;
    };

    idoms[entry] = entry;
    bool changed = true;
    while (changed) {
        changed = false;
        for (BlockId id : order) {
            if (id == entry)
                continue;
            BlockId new_idom = kNoBlock;
            for (BlockId p : preds[id]) {
                if (!reachable(p) || idoms[p] == kNoBlock)
                    continue;
                new_idom = new_idom == kNoBlock
                               ? p
                               : intersect(p, new_idom);
            }
            if (new_idom != kNoBlock && idoms[id] != new_idom) {
                idoms[id] = new_idom;
                changed = true;
            }
        }
    }
    // The entry's idom is conventionally "none".
    idoms[entry] = kNoBlock;

    // Materialize the tree and DFS-number it so dominance queries are
    // interval containment instead of an idom-chain walk (which made
    // back-edge scans O(V*E) on deep, mostly-sequential CFGs).
    kids.assign(table, {});
    for (BlockId b : order) {
        if (b != entry && idoms[b] != kNoBlock)
            kids[idoms[b]].push_back(b);
    }
    dfsIn.assign(table, 0);
    dfsOut.assign(table, 0);
    uint32_t clock = 0;
    struct Frame
    {
        BlockId b;
        size_t child;
    };
    std::vector<Frame> dfs;
    if (!order.empty()) {
        dfsIn[entry] = clock++;
        dfs.push_back({entry, 0});
        while (!dfs.empty()) {
            Frame &f = dfs.back();
            if (f.child < kids[f.b].size()) {
                BlockId c = kids[f.b][f.child++];
                dfsIn[c] = clock++;
                dfs.push_back({c, 0});
            } else {
                dfsOut[f.b] = clock++;
                dfs.pop_back();
            }
        }
    }
}

void
DominatorTree::applyBlockAbsorbed(BlockId hb, BlockId s)
{
    CHF_ASSERT(s < idoms.size() && hb < idoms.size(),
               "applyBlockAbsorbed out of range");
    CHF_ASSERT(idoms[s] == hb, "absorbed block not idom'd by absorber");

    // Reparent s's dominator-tree children to hb. Their DFS intervals
    // were nested inside s's, which was nested inside hb's, so the
    // interval numbering stays valid without renumbering.
    for (BlockId c : kids[s]) {
        idoms[c] = hb;
        kids[hb].push_back(c);
    }
    kids[s].clear();
    auto &hb_kids = kids[hb];
    hb_kids.erase(std::remove(hb_kids.begin(), hb_kids.end(), s),
                  hb_kids.end());

    // s is gone: unreachable for every future query.
    idoms[s] = kNoBlock;
    rpoIndex[s] = std::numeric_limits<uint32_t>::max();
}

BlockId
DominatorTree::idom(BlockId id) const
{
    CHF_ASSERT(id < idoms.size(), "idom query out of range");
    return idoms[id];
}

bool
DominatorTree::dominates(BlockId a, BlockId b) const
{
    if (!reachable(a) || !reachable(b))
        return false;
    return dfsIn[a] <= dfsIn[b] && dfsOut[b] <= dfsOut[a];
}

bool
DominatorTree::reachable(BlockId id) const
{
    return id < rpoIndex.size() &&
           rpoIndex[id] != std::numeric_limits<uint32_t>::max();
}

std::vector<BlockId>
DominatorTree::children(BlockId id) const
{
    if (id >= kids.size())
        return {};
    return kids[id];
}

} // namespace chf
