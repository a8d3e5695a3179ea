#include "analysis/loops.h"

#include <algorithm>
#include <cstdint>

#include "support/fatal.h"

namespace chf {

LoopInfo::LoopInfo(const Function &fn)
    : ownedDom(std::make_unique<DominatorTree>(fn)),
      domTree(ownedDom.get())
{
    build(fn, fn.predecessors());
}

LoopInfo::LoopInfo(const Function &fn, const DominatorTree &dom,
                   const PredecessorMap &preds)
    : domTree(&dom)
{
    build(fn, preds);
}

void
LoopInfo::build(const Function &fn, const PredecessorMap &preds)
{
    blockDepth.assign(fn.blockTableSize(), 0);

    // Find back edges and group them by header.
    std::vector<std::pair<BlockId, BlockId>> back_edges;
    for (BlockId id : fn.blockIds()) {
        if (!domTree->reachable(id))
            continue;
        for (BlockId succ : fn.block(id)->successors()) {
            if (domTree->dominates(succ, id))
                back_edges.emplace_back(id, succ);
        }
    }

    // Build one natural loop per header: all blocks that can reach a
    // latch without passing through the header.
    std::vector<BlockId> headers;
    for (const auto &[latch, header] : back_edges) {
        if (std::find(headers.begin(), headers.end(), header) ==
            headers.end()) {
            headers.push_back(header);
        }
    }

    // in_loop[b] == the index of the loop being collected: one table
    // for all headers instead of one per header.
    std::vector<size_t> in_loop(fn.blockTableSize(), SIZE_MAX);
    for (BlockId header : headers) {
        const size_t mark = allLoops.size();
        Loop loop;
        loop.header = header;
        in_loop[header] = mark;
        loop.blocks.push_back(header);
        std::vector<BlockId> worklist;
        for (const auto &[latch, h] : back_edges) {
            if (h != header)
                continue;
            loop.latches.push_back(latch);
            if (in_loop[latch] != mark) {
                in_loop[latch] = mark;
                loop.blocks.push_back(latch);
                worklist.push_back(latch);
            }
        }
        while (!worklist.empty()) {
            BlockId b = worklist.back();
            worklist.pop_back();
            for (BlockId p : preds[b]) {
                if (!domTree->reachable(p) || in_loop[p] == mark)
                    continue;
                in_loop[p] = mark;
                loop.blocks.push_back(p);
                worklist.push_back(p);
            }
        }
        std::sort(loop.blocks.begin(), loop.blocks.end());
        allLoops.push_back(std::move(loop));
    }

    // Depth: number of loops containing each block; loop depth = depth
    // of its header.
    for (const Loop &loop : allLoops) {
        for (BlockId b : loop.blocks)
            blockDepth[b]++;
    }
    for (Loop &loop : allLoops)
        loop.depth = blockDepth[loop.header];

    // Per-block indexes for O(1) queries. Natural loops with distinct
    // headers are nested or disjoint, so the loops containing a block
    // form a chain by depth: the deepest is its innermost loop, and a
    // loop's parent is the loop one level up that contains its header.
    headerLoop.assign(fn.blockTableSize(), -1);
    innermostLoop.assign(fn.blockTableSize(), -1);
    for (size_t i = 0; i < allLoops.size(); ++i)
        headerLoop[allLoops[i].header] = static_cast<int>(i);
    for (size_t i = 0; i < allLoops.size(); ++i) {
        const Loop &loop = allLoops[i];
        for (BlockId b : loop.blocks) {
            int &best = innermostLoop[b];
            if (best < 0 || loop.depth > allLoops[best].depth)
                best = static_cast<int>(i);
            int headed = headerLoop[b];
            if (headed >= 0 && allLoops[headed].depth == loop.depth + 1)
                allLoops[headed].parent = static_cast<int>(i);
        }
    }
}

void
LoopInfo::applyBlockAbsorbed(BlockId hb, BlockId s)
{
    // s cannot be a header: a simple merge requires its only pred's
    // edge not be a back edge, so no loop disappears and no depth
    // changes. Bodies lose s; a latch s becomes a latch hb (hb
    // inherited the back edge). Keep blocks and latches in the
    // ascending order a fresh build produces. Only the loops holding s
    // change -- the chain from its innermost loop outward -- and each
    // also holds hb (s is entered only from hb), so hb's innermost
    // loop stays put.
    int first = s < innermostLoop.size() ? innermostLoop[s] : -1;
    for (int li = first; li >= 0; li = allLoops[li].parent) {
        Loop &loop = allLoops[li];
        auto pos = std::lower_bound(loop.blocks.begin(),
                                    loop.blocks.end(), s);
        if (pos != loop.blocks.end() && *pos == s)
            loop.blocks.erase(pos);

        auto &latches = loop.latches;
        auto latch = std::find(latches.begin(), latches.end(), s);
        if (latch != latches.end()) {
            latches.erase(latch);
            auto at = std::lower_bound(latches.begin(), latches.end(),
                                       hb);
            if (at == latches.end() || *at != hb)
                latches.insert(at, hb);
        }
    }
    if (s < blockDepth.size()) {
        blockDepth[s] = 0;
        innermostLoop[s] = -1;
    }
}

bool
LoopInfo::isBackEdge(BlockId from, BlockId to) const
{
    return domTree->reachable(from) && domTree->dominates(to, from);
}

bool
LoopInfo::isLoopHeader(BlockId id) const
{
    return loopAt(id) != nullptr;
}

const Loop *
LoopInfo::loopAt(BlockId header) const
{
    if (header >= headerLoop.size() || headerLoop[header] < 0)
        return nullptr;
    return &allLoops[headerLoop[header]];
}

const Loop *
LoopInfo::innermostContaining(BlockId id) const
{
    if (id >= innermostLoop.size() || innermostLoop[id] < 0)
        return nullptr;
    return &allLoops[innermostLoop[id]];
}

int
LoopInfo::depth(BlockId id) const
{
    if (id >= blockDepth.size())
        return 0;
    return blockDepth[id];
}

} // namespace chf
