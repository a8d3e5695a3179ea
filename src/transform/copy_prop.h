/**
 * @file
 * Local copy propagation: forwards the sources of unpredicated moves
 * into later uses so the moves become dead (removed by DCE).
 */

#ifndef CHF_TRANSFORM_COPY_PROP_H
#define CHF_TRANSFORM_COPY_PROP_H

#include "ir/function.h"
#include "support/bitvector.h"

namespace chf {

class Liveness;

/**
 * Reusable copy table for copyPropagateBlock: a dense epoch-stamped
 * map from copy destination to source operand. An entry is valid when
 * its stamp equals the current epoch, so "clearing" the table between
 * blocks is one integer increment instead of touching every slot; the
 * vectors keep their capacity across trials.
 */
struct CopyPropScratch
{
    std::vector<Operand> value;   ///< source operand per destination
    std::vector<uint32_t> stamp;  ///< valid iff stamp[v] == epoch
    std::vector<Vreg> active;     ///< destinations touched this epoch
    uint32_t epoch = 0;
};

/**
 * Propagate copies within @p bb. The prefix [0, begin) is known to be
 * at the pass's fixpoint (see optimizeBlockFrom): it is replayed in a
 * maintenance-only mode that updates the copy table without attempting
 * rewrites. begin == 0 is the full pass.
 * @return number of uses rewritten.
 */
size_t copyPropagateBlock(BasicBlock &bb,
                          CopyPropScratch *scratch = nullptr,
                          size_t begin = 0);

/** Apply to every block. @return total uses rewritten. */
size_t copyPropagateFunction(Function &fn);

/**
 * Reusable per-register count vectors for coalesceMoves,
 * epoch-stamped so a call touches only the registers the block
 * actually mentions instead of assigning all numVregs slots.
 */
struct CoalesceScratch
{
    std::vector<uint32_t> defs;
    std::vector<uint32_t> uses;
    std::vector<uint8_t> predUse;
    std::vector<uint32_t> stamp; ///< valid iff stamp[v] == epoch
    uint32_t epoch = 0;
};

/**
 * Coalesce `t = op ...; x = mov t` pairs into `x = op ...` when t is a
 * block-local temporary with no other uses and x is untouched in
 * between. The front end emits this shape for every assignment to a
 * mutable variable; coalescing it is what exposes `i = i + 1` to the
 * counted-loop matcher and removes most lowering chatter.
 * If @p min_touched is non-null it receives the smallest instruction
 * index whose content or position changed (bb.insts.size() when
 * nothing changed) -- the watermark input for seam-scoped
 * re-optimization.
 * @return number of moves coalesced.
 */
size_t coalesceMoves(BasicBlock &bb, const BitVector &live_out,
                     CoalesceScratch *scratch = nullptr,
                     size_t *min_touched = nullptr);

/**
 * Apply coalesceMoves to every block, reading live-outs from @p live,
 * which must be current. @return total coalesced.
 */
size_t coalesceMovesFunction(Function &fn, const Liveness &live);

} // namespace chf

#endif // CHF_TRANSFORM_COPY_PROP_H
