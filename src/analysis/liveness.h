/**
 * @file
 * Block-level live-variable analysis over virtual registers.
 *
 * Predication is handled conservatively and correctly: a predicated
 * write does not kill a register (the old value flows through when the
 * predicate is false), so only unpredicated writes enter the kill set.
 *
 * The analysis is demand-driven after edits (see markChanged()): an
 * edit only marks the blocks whose solution it can affect as pending,
 * and solveFrom() re-solves just the pending blocks a query can reach.
 * This is what makes the AnalysisManager's liveness cache profitable
 * during hyperblock formation, where each trial reads the live-ins of a
 * handful of blocks after every committed merge.
 */

#ifndef CHF_ANALYSIS_LIVENESS_H
#define CHF_ANALYSIS_LIVENESS_H

#include <vector>

#include "ir/function.h"
#include "support/bitvector.h"

namespace chf {

/** Live-in/live-out sets per block. */
class Liveness
{
  public:
    /** Solve @p fn from scratch; nothing is left pending. */
    explicit Liveness(const Function &fn);

    /**
     * Solution of block @p id. Exact for every block that is not
     * pending(); a freshly constructed analysis has nothing pending.
     * Unreachable blocks read as empty; removed blocks have zero-sized
     * sets.
     */
    const BitVector &liveIn(BlockId id) const { return ins.at(id); }
    const BitVector &liveOut(BlockId id) const { return outs.at(id); }

    /** Registers live into any successor of @p bb given this analysis. */
    BitVector liveOutOf(const Function &fn, const BasicBlock &bb) const;

    /**
     * Virtual-register universe this analysis currently covers. At
     * least fn.numVregs() at the last markChanged() -- the universe is
     * padded so register growth between edits stays cheap. Size
     * vectors that meet liveIn()/liveOut() in set algebra from this,
     * not from fn.numVregs().
     */
    uint32_t universe() const { return nv; }

    /**
     * Grow the register universe to at least @p vreg_bound without
     * re-solving (new registers are dead everywhere until an edit says
     * otherwise, so padding is semantically free — see the file
     * comment in liveness.cpp). Speculative trial merges call this
     * before fanning out so every live-out vector a concurrent trial
     * reads is already big enough for the registers that trial will
     * create at its predicted base (DESIGN.md §11); Hash64::bits hashes
     * set bits only, so padding never perturbs trial-memo keys.
     */
    void ensureUniverse(uint32_t vreg_bound);

    // --- demand-driven maintenance (used by AnalysisManager) ---

    /**
     * Record that the blocks in @p changed had their instructions
     * and/or outgoing edges rewritten (removed blocks may be listed;
     * their sets go empty). Refreshes the changed blocks' local facts
     * and adds them, with every block that can reach them over
     * @p preds (the *current* predecessor map), to the pending region;
     * nothing is solved yet. Entry reachability is kept across calls:
     * pass @p reachability_changed when some edge set changed in a way
     * that may have moved it (anything but a splice that removes the
     * listed absorbed block), and it is recomputed. Grows the register
     * universe to fn.numVregs(); rebuilds from scratch when the block
     * table itself grew.
     */
    void markChanged(const Function &fn,
                     const std::vector<BlockId> &changed,
                     const PredecessorMap &preds,
                     bool reachability_changed);

    /**
     * Bring the whole solution up to date with @p fn after edits nobody
     * reported: every block whose local facts or successors differ from
     * the ones last solved is treated as changed (markChanged), then
     * everything pending is solved. Costs one scan of the function plus
     * the re-solve of what the edits can reach -- far less than a fresh
     * construction when few blocks changed.
     */
    void refresh(const Function &fn);

    /** True when block @p id's solution awaits a solveFrom(). */
    bool
    pending(BlockId id) const
    {
        return id < pendingBits.size() && pendingBits[id] != 0;
    }

    /** True when any block is pending. */
    bool anyPending() const { return numPending > 0; }

    /**
     * Solve the pending blocks forward-reachable from @p id (through
     * pending blocks), strongly connected component by component in
     * Tarjan order. Afterwards liveIn(b)/liveOut(b) are exact for @p id
     * and everything it reaches. The result is the least fixed point a
     * from-scratch solve computes, bit for bit.
     */
    void solveFrom(BlockId id);

    /** Solve every pending block (see solveFrom). */
    void solveAll();

    /**
     * Blocks this analysis has worked on since it was first built: one
     * per block set recomputed by a solve, plus the block table once per
     * entry-reachability walk. Rebuilds (block table grew) carry the
     * count on, so callers charge work as a difference of two readings.
     */
    uint64_t blocksWorked() const { return worked; }

    /** Register universe a fresh Liveness of a function with
     *  @p num_vregs registers covers. */
    static uint32_t paddedUniverse(uint32_t num_vregs);

  private:
    /** Recompute uses/kills/successors of existing block @p id. */
    void refreshFacts(const Function &fn, BlockId id);

    /** Empty block @p id's sets and drop it from the pending region. */
    void clearBlock(BlockId id);

    /** Add @p id and every block reaching it over @p preds to the
     *  pending region (stops at blocks already pending). */
    void addPending(BlockId id, const PredecessorMap &preds);

    /** Re-walk entry reachability; blocks that joined the CFG are
     *  appended to @p joined, blocks that left it are cleared. */
    void recomputeReachability(const Function &fn,
                               std::vector<BlockId> &joined);

    /** Start a new walk: every visit stamp goes stale. */
    void nextEpoch();

    /** Solve one SCC whose successors outside it are all final. */
    void solveScc(const std::vector<BlockId> &scc);

    /** Rebuild from scratch, keeping the work count. */
    void rebuild(const Function &fn);

    uint32_t nv = 0;
    uint64_t worked = 0;
    std::vector<BitVector> ins;
    std::vector<BitVector> outs;

    // Per-block dataflow facts, current for every reachable block, so
    // a solve never rescans unchanged blocks.
    std::vector<BitVector> uses;
    std::vector<BitVector> kills;
    std::vector<std::vector<BlockId>> succs;
    std::vector<uint8_t> reachable; ///< entry-reachable right now

    // Pending region: closed under (reachable) predecessors, so every
    // block outside it reaches only exact solutions. `dirty` marks the
    // blocks whose own facts changed since their last solve; a clean
    // pending block is re-solved only if a successor's live-in changed
    // after it was last computed (version[s] > seen[b]).
    std::vector<uint8_t> pendingBits;
    std::vector<uint8_t> dirty;
    size_t numPending = 0;
    std::vector<uint64_t> version; ///< clock of the last live-in change
    std::vector<uint64_t> seen;    ///< clock when last solved
    uint64_t clock = 0;

    // Persistent, epoch-stamped walk state (a block's index/low/
    // onStack are valid iff visit[b] == epoch).
    uint32_t epoch = 0;
    std::vector<uint32_t> visit;
    std::vector<uint32_t> index;
    std::vector<uint32_t> low;
    std::vector<uint8_t> onStack;
    struct Frame
    {
        BlockId b;
        size_t child; ///< next successor to visit
    };
    std::vector<Frame> frames;
    std::vector<BlockId> workStack;
    std::vector<BlockId> sccStack;
    std::vector<BlockId> scc;
    std::vector<BitVector> oldIns;
    std::vector<BlockId> tmpSuccs;
    BitVector tmpIn, tmpOut;
};

/**
 * Upward-exposed uses of a block: registers read before any
 * unpredicated write within the block (includes predicate registers and
 * the Ret value).
 */
BitVector blockUses(const BasicBlock &bb, uint32_t num_vregs);

/** Registers written unconditionally (unpredicated defs). */
BitVector blockKills(const BasicBlock &bb, uint32_t num_vregs);

/** Registers written at all (predicated or not). */
BitVector blockDefs(const BasicBlock &bb, uint32_t num_vregs);

/**
 * Allocation-free variants for hot per-trial callers: @p uses /
 * @p defs are resized to @p num_vregs and overwritten (capacity is
 * reused across calls); @p killed_scratch is working storage for the
 * upward-exposure computation.
 */
void blockUsesInto(const BasicBlock &bb, uint32_t num_vregs,
                   BitVector &uses, BitVector &killed_scratch);
void blockDefsInto(const BasicBlock &bb, uint32_t num_vregs,
                   BitVector &defs);

} // namespace chf

#endif // CHF_ANALYSIS_LIVENESS_H
