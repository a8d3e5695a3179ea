/**
 * @file
 * Dominator tree via the Cooper-Harvey-Kennedy iterative algorithm.
 */

#ifndef CHF_ANALYSIS_DOMINATORS_H
#define CHF_ANALYSIS_DOMINATORS_H

#include <vector>

#include "ir/function.h"

namespace chf {

/** Immediate-dominator tree over the blocks reachable from the entry. */
class DominatorTree
{
  public:
    explicit DominatorTree(const Function &fn);

    /** Build reusing an existing predecessor map for the current CFG. */
    DominatorTree(const Function &fn, const PredecessorMap &preds);

    /**
     * Patch for a committed simple merge: @p hb, the sole predecessor
     * of @p s, absorbed @p s's code and inherited its out-edges, and
     * @p s was removed. Every walk of the new CFG is a walk of the old
     * CFG with @p s spliced out, so dominance is unchanged for all
     * other blocks; @p s's dominator-tree children reparent to @p hb.
     * Precondition: idom(s) == hb and the caller verified the new edge
     * set is exactly the splice.
     */
    void applyBlockAbsorbed(BlockId hb, BlockId s);

    /** Immediate dominator; kNoBlock for the entry or unreachable. */
    BlockId idom(BlockId id) const;

    /**
     * True if @p a dominates @p b (reflexive). O(1): answered by
     * pre/post interval containment on the dominator tree.
     */
    bool dominates(BlockId a, BlockId b) const;

    /** True if @p id is reachable from the entry. */
    bool reachable(BlockId id) const;

    /** Dominator-tree children of @p id. */
    std::vector<BlockId> children(BlockId id) const;

  private:
    void build(const Function &fn, const PredecessorMap &preds);

    std::vector<BlockId> idoms;     // by block id
    std::vector<uint32_t> rpoIndex; // by block id; UINT32_MAX unreachable
    BlockId entry;

    // Dominator-tree structure for O(1) dominance tests: child lists
    // plus entry/exit times of a DFS over the tree. a dominates b iff
    // a's interval contains b's.
    std::vector<std::vector<BlockId>> kids;
    std::vector<uint32_t> dfsIn;
    std::vector<uint32_t> dfsOut;
};

} // namespace chf

#endif // CHF_ANALYSIS_DOMINATORS_H
